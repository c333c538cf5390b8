// Kernel-level differential tests: every wide kernel must be
// bit-identical to its scalar twin on adversarial inputs (random flag
// patterns, all-dense, all-sparse, unaligned counts), and the kernel
// mode must resolve exactly as documented.
// The engine-level scalar-vs-simd equivalence is covered separately by
// tests/test_engine.cpp and the fuzz loop in tests/test_differential.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "local/engine.hpp"
#include "local/simd.hpp"

namespace lcl::local {
namespace {

TEST(KernelMode, ResolveCollapsesAutoAndDegrades) {
  // Explicit requests resolve to themselves (simd degrades to scalar
  // only in forced-scalar builds).
  EXPECT_EQ(resolve_kernel_mode(KernelMode::kScalar),
            KernelMode::kScalar);
  EXPECT_EQ(resolve_kernel_mode(KernelMode::kSimd),
            simd_compiled() ? KernelMode::kSimd : KernelMode::kScalar);

  // kAuto collapses to the widest compiled path.
  EXPECT_EQ(resolve_kernel_mode(KernelMode::kAuto),
            simd_compiled() ? KernelMode::kSimd : KernelMode::kScalar);
}

TEST(Kernels, FlipCommitMatchesScalar) {
  std::mt19937_64 rng(7);
  for (const std::size_t count : {0UL, 1UL, 63UL, 64UL, 200UL, 4096UL}) {
    std::vector<std::uint8_t> cur_a(count);
    std::vector<std::uint8_t> pub_a(count);
    for (std::size_t i = 0; i < count; ++i) {
      cur_a[i] = static_cast<std::uint8_t>(rng() & 1);
      pub_a[i] = static_cast<std::uint8_t>(rng() % 3 == 0);
    }
    std::vector<std::uint8_t> cur_b = cur_a;
    std::vector<std::uint8_t> pub_b = pub_a;
    flip_commit_scalar(cur_a.data(), pub_a.data(), count);
    flip_commit_simd(cur_b.data(), pub_b.data(), count);
    EXPECT_EQ(cur_a, cur_b) << "count=" << count;
    EXPECT_EQ(pub_a, pub_b) << "count=" << count;
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(pub_a[i], 0);
  }
}

TEST(Kernels, CompactAliveMatchesScalarAndIsStable) {
  std::mt19937_64 rng(11);
  // Termination densities from "nothing terminates" (the block fast
  // path end to end) to "everything terminates", plus ragged counts
  // exercising the per-id tail.
  for (const double density : {0.0, 0.01, 0.3, 1.0}) {
    for (const std::size_t count : {0UL, 5UL, 16UL, 17UL, 1000UL}) {
      std::vector<std::uint8_t> term(count + 64, 0);
      std::vector<graph::NodeId> ids(count);
      for (std::size_t i = 0; i < count; ++i) {
        ids[i] = static_cast<graph::NodeId>(i);
        term[i] = static_cast<std::uint8_t>(
            std::uniform_real_distribution<>(0, 1)(rng) < density);
      }
      std::vector<graph::NodeId> a = ids;
      std::vector<graph::NodeId> b = ids;
      const std::size_t wa =
          compact_alive_scalar(a.data(), count, term.data());
      const std::size_t wb =
          compact_alive_simd(b.data(), count, term.data());
      ASSERT_EQ(wa, wb) << "density=" << density << " count=" << count;
      a.resize(wa);
      b.resize(wb);
      EXPECT_EQ(a, b);
      // Stability: survivors keep their original relative order.
      for (std::size_t i = 1; i < a.size(); ++i) {
        EXPECT_LT(a[i - 1], a[i]);
      }

      // Second pass over the now-gapped survivor list (fresh kill
      // flags): exercises the non-contiguous blocks where the kernel
      // must fall back to indexed flag gathers.
      for (std::size_t i = 0; i < count; ++i) {
        term[i] = static_cast<std::uint8_t>(
            std::uniform_real_distribution<>(0, 1)(rng) < 0.2);
      }
      const std::size_t wa2 =
          compact_alive_scalar(a.data(), a.size(), term.data());
      const std::size_t wb2 =
          compact_alive_simd(b.data(), b.size(), term.data());
      ASSERT_EQ(wa2, wb2) << "density=" << density << " count=" << count;
      a.resize(wa2);
      b.resize(wb2);
      EXPECT_EQ(a, b);
    }
  }
}

TEST(Kernels, ReduceTvMatchesScalarExactly) {
  std::mt19937_64 rng(13);
  for (const std::size_t count : {0UL, 1UL, 3UL, 4UL, 8UL, 777UL}) {
    std::vector<std::int64_t> t(count);
    for (std::size_t i = 0; i < count; ++i) {
      t[i] = static_cast<std::int64_t>(rng() % 1000000);
    }
    const TvReduction a = reduce_tv_scalar(t.data(), count);
    const TvReduction b = reduce_tv_simd(t.data(), count);
    EXPECT_EQ(a.sum, b.sum) << "count=" << count;
    EXPECT_EQ(a.max, b.max) << "count=" << count;
  }
}

TEST(AlignedPlaneContract, PaddingAlignmentAndAllocAccounting) {
  AlignedPlane<std::int64_t> plane;
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(0), 0u);
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(1), 8u);
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(8), 8u);
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(9), 16u);
  EXPECT_EQ(AlignedPlane<std::uint8_t>::padded(1), 64u);

  EXPECT_TRUE(plane.assign(100, 7));  // first sizing allocates
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plane.data()) % 64, 0u);
  // The fill covers the padded extent, not just the requested count.
  for (std::size_t i = 0; i < AlignedPlane<std::int64_t>::padded(100);
       ++i) {
    EXPECT_EQ(plane.data()[i], 7);
  }
  EXPECT_FALSE(plane.assign(50, 1));   // shrinking reuses
  EXPECT_FALSE(plane.assign(104, 2));  // fits the padded capacity
  EXPECT_TRUE(plane.assign(105, 3));   // genuine growth reallocates
}

}  // namespace
}  // namespace lcl::local
