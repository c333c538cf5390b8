#include "local/simd.hpp"

#include <algorithm>
#include <cstring>

namespace lcl::local {

// The scalar kernels are the *reference* path: they must stay genuinely
// one-element-per-step so the simd-vs-scalar series measures the
// data-parallel win (and so a kScalar engine behaves the same under
// every compiler), hence auto-vectorization is pinned off per function
// (GCC) or per loop (Clang).
#if defined(__clang__)
#define LCL_SCALAR_KERNEL
#define LCL_SCALAR_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define LCL_SCALAR_KERNEL \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define LCL_SCALAR_LOOP
#else
#define LCL_SCALAR_KERNEL
#define LCL_SCALAR_LOOP
#endif

KernelMode resolve_kernel_mode(KernelMode mode) {
  if (mode == KernelMode::kAuto) {
    mode = simd_compiled() ? KernelMode::kSimd : KernelMode::kScalar;
  }
  if (mode == KernelMode::kSimd && !simd_compiled()) {
    mode = KernelMode::kScalar;
  }
  return mode;
}

LCL_SCALAR_KERNEL
void flip_commit_scalar(std::uint8_t* cur, std::uint8_t* pub,
                        std::size_t count) {
  LCL_SCALAR_LOOP
  for (std::size_t i = 0; i < count; ++i) {
    cur[i] ^= pub[i];
    pub[i] = 0;
  }
}

LCL_SCALAR_KERNEL
std::size_t compact_alive_scalar(graph::NodeId* alive, std::size_t count,
                                 const std::uint8_t* terminated) {
  std::size_t w = 0;
  LCL_SCALAR_LOOP
  for (std::size_t i = 0; i < count; ++i) {
    const graph::NodeId v = alive[i];
    if (terminated[static_cast<std::size_t>(v)] == 0) alive[w++] = v;
  }
  return w;
}

LCL_SCALAR_KERNEL
TvReduction reduce_tv_scalar(const std::int64_t* term_round,
                             std::size_t count) {
  TvReduction r;
  LCL_SCALAR_LOOP
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t t = term_round[i];
    r.sum += t;
    if (t > r.max) r.max = t;
  }
  return r;
}

#if defined(LCL_FORCE_SCALAR)

// Forced-scalar build: the wide entry points stay linkable so call
// sites (engine dispatch, benches, tests) compile unchanged, but every
// path executes the reference kernels.
void flip_commit_simd(std::uint8_t* cur, std::uint8_t* pub,
                      std::size_t count) {
  flip_commit_scalar(cur, pub, count);
}

std::size_t compact_alive_simd(graph::NodeId* alive, std::size_t count,
                               const std::uint8_t* terminated) {
  return compact_alive_scalar(alive, count, terminated);
}

TvReduction reduce_tv_simd(const std::int64_t* term_round,
                           std::size_t count) {
  return reduce_tv_scalar(term_round, count);
}

#else  // wide kernels

namespace {

// Portable GCC/Clang vector extensions: 32-byte lanes compile on any
// target (the backend lowers them to whatever width the ISA has), so no
// -march flag or intrinsic header is required.
using v32u8 [[gnu::vector_size(32)]] = std::uint8_t;
using v4i64 [[gnu::vector_size(32)]] = std::int64_t;

}  // namespace

// Runtime ISA dispatch: the baseline x86-64 ABI is SSE2-only, where the
// 64-bit lanewise compare in reduce_tv has no instruction and gets
// scalarized — slower than the reference kernel. target_clones emits a
// baseline body plus an AVX2 clone and picks per CPU at load time
// (ifunc), keeping one portable binary. Skipped under sanitizers
// (instrumented ifunc resolvers are not worth the risk) and on
// compilers without the attribute — the generic lowering still runs.
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#if defined(__clang__)
#if __has_feature(ifunc_target_clones)
#define LCL_WIDE_KERNEL __attribute__((target_clones("default", "avx2")))
#endif
#else  // GCC
#define LCL_WIDE_KERNEL __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef LCL_WIDE_KERNEL
#define LCL_WIDE_KERNEL
#endif

LCL_WIDE_KERNEL
void flip_commit_simd(std::uint8_t* cur, std::uint8_t* pub,
                      std::size_t count) {
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32) {
    v32u8 c;
    v32u8 p;
    std::memcpy(&c, cur + i, 32);
    std::memcpy(&p, pub + i, 32);
    c ^= p;
    std::memcpy(cur + i, &c, 32);
  }
  for (; i < count; ++i) cur[i] ^= pub[i];
  std::memset(pub, 0, count);
}

LCL_WIDE_KERNEL
std::size_t compact_alive_simd(graph::NodeId* alive, std::size_t count,
                               const std::uint8_t* terminated) {
  // Blocked three-speed compaction. Termination is lumpy in most rounds
  // (the alive set shrinks by a few ids at a time, or a whole region
  // dies at once), so 16-id blocks are usually uniform: one flag-gather
  // sum decides, and a fully-surviving block moves with a single
  // 64-byte memmove (fully-terminated blocks cost nothing at all)
  // instead of 16 dependent conditional stores. Mixed blocks fall back
  // to the per-id pass, preserving the exact stable order of the scalar
  // twin.
  constexpr std::size_t kBlock = 16;
  // All-ones in every flag byte: terminated[] stores strict 0/1.
  constexpr std::uint64_t kAllDead = 0x0101010101010101ULL;
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + kBlock <= count; i += kBlock) {
    const graph::NodeId first = alive[i];
    if (alive[i + kBlock - 1] ==
        first + static_cast<graph::NodeId>(kBlock - 1)) {
      // Contiguous id run (the common shape: alive starts as 0..n-1 and
      // compaction keeps it sorted, so runs only break at gaps): the 16
      // flags are adjacent in the terminated lane and two 8-byte loads
      // replace 16 indexed gathers.
      std::uint64_t f0;
      std::uint64_t f1;
      std::memcpy(&f0, terminated + static_cast<std::size_t>(first), 8);
      std::memcpy(&f1, terminated + static_cast<std::size_t>(first) + 8, 8);
      if ((f0 | f1) == 0) {
        if (w != i) {
          std::memmove(alive + w, alive + i,
                       kBlock * sizeof(graph::NodeId));
        }
        w += kBlock;
        continue;
      }
      if (f0 == kAllDead && f1 == kAllDead) continue;
    } else {
      unsigned dead = 0;
      for (std::size_t j = 0; j < kBlock; ++j) {
        dead += terminated[static_cast<std::size_t>(alive[i + j])];
      }
      if (dead == 0) {
        if (w != i) {
          std::memmove(alive + w, alive + i,
                       kBlock * sizeof(graph::NodeId));
        }
        w += kBlock;
        continue;
      }
      if (dead == kBlock) continue;
    }
    for (std::size_t j = 0; j < kBlock; ++j) {
      const graph::NodeId v = alive[i + j];
      alive[w] = v;
      w += static_cast<std::size_t>(
          terminated[static_cast<std::size_t>(v)] == 0);
    }
  }
  for (; i < count; ++i) {
    const graph::NodeId v = alive[i];
    alive[w] = v;
    w += static_cast<std::size_t>(
        terminated[static_cast<std::size_t>(v)] == 0);
  }
  return w;
}

LCL_WIDE_KERNEL
TvReduction reduce_tv_simd(const std::int64_t* term_round,
                           std::size_t count) {
  // Four independent accumulator pairs: a single pair serializes every
  // iteration behind the compare/blend latency chain, so the loop runs
  // at chain latency instead of load throughput. The vector ternary
  // lowers to one compare + one blend (or a native lanewise max).
  v4i64 sum0 = {0, 0, 0, 0}, sum1 = sum0, sum2 = sum0, sum3 = sum0;
  v4i64 mx0 = sum0, mx1 = sum0, mx2 = sum0, mx3 = sum0;
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    v4i64 a0, a1, a2, a3;
    std::memcpy(&a0, term_round + i, 32);
    std::memcpy(&a1, term_round + i + 4, 32);
    std::memcpy(&a2, term_round + i + 8, 32);
    std::memcpy(&a3, term_round + i + 12, 32);
    sum0 += a0;
    sum1 += a1;
    sum2 += a2;
    sum3 += a3;
    mx0 = a0 > mx0 ? a0 : mx0;
    mx1 = a1 > mx1 ? a1 : mx1;
    mx2 = a2 > mx2 ? a2 : mx2;
    mx3 = a3 > mx3 ? a3 : mx3;
  }
  const v4i64 sum = (sum0 + sum1) + (sum2 + sum3);
  v4i64 mx = mx0 > mx1 ? mx0 : mx1;
  const v4i64 mxb = mx2 > mx3 ? mx2 : mx3;
  mx = mx > mxb ? mx : mxb;
  TvReduction r;
  r.sum = sum[0] + sum[1] + sum[2] + sum[3];
  r.max = std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]));
  for (; i < count; ++i) {
    const std::int64_t t = term_round[i];
    r.sum += t;
    if (t > r.max) r.max = t;
  }
  return r;
}

#endif  // LCL_FORCE_SCALAR

}  // namespace lcl::local
