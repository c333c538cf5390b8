// Data-parallel kernels for the engine hot path, with a scalar twin for
// every SIMD routine.
//
// The engine's per-round bookkeeping reduces to three bulk passes over
// flat lanes (see engine.hpp for the structure-of-arrays layout):
//
//   flip_commit    cur ^= pub; pub = 0        (publish-flip, uint8 lanes)
//   compact_alive  stable-remove terminated   (alive list, NodeId lane)
//   reduce_tv      sum_v T_v and max_v T_v    (term-round lane, int64)
//
// Each exists in two semantically identical variants. The *scalar*
// variant is the reference implementation: one element per step, with
// compiler auto-vectorization explicitly disabled so the pair measures
// the data-parallel win rather than the optimizer's mood — and so an
// engine built with KernelMode::kScalar is a stable baseline across
// compilers. The *simd* variant uses GCC/Clang portable vector
// extensions (32-byte lanes; no intrinsics, no -march requirement).
// Building with -DLCL_FORCE_SCALAR=ON compiles the simd entry points as
// forwards to the scalar ones, so every call site stays valid on
// targets without vector support and sanitizer CI can pin both paths.
//
// Differential guarantee: for identical inputs the two variants produce
// bit-identical outputs (same stable order from compaction, same exact
// integer sums) — pinned by tests/test_simd.cpp and the engine-level
// fuzz loop in tests/test_differential.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/tree.hpp"

namespace lcl::local {

/// Which kernel family an engine run dispatches to, chosen where the
/// engine is constructed.
///   kScalar — reference one-element-per-step kernels.
///   kSimd   — wide kernels (degrades to kScalar in LCL_FORCE_SCALAR
///             builds).
///   kAuto   — the widest compiled path.
enum class KernelMode { kScalar = 0, kSimd = 1, kAuto = 2 };

/// Whether this build compiled the wide kernels (false under
/// -DLCL_FORCE_SCALAR=ON).
[[nodiscard]] constexpr bool simd_compiled() {
#if defined(LCL_FORCE_SCALAR)
  return false;
#else
  return true;
#endif
}

/// Collapses a requested mode to the concrete kScalar/kSimd an engine
/// run will execute: kAuto picks the widest compiled path, and kSimd
/// degrades to kScalar when the wide kernels are not compiled.
[[nodiscard]] KernelMode resolve_kernel_mode(KernelMode mode);

/// End-of-run T_v reduction result: sum_v T_v (the node-averaged
/// numerator) and max_v T_v (the worst case).
struct TvReduction {
  std::int64_t sum = 0;
  std::int64_t max = 0;
};

// --- publish-flip: cur[i] ^= pub[i]; pub[i] = 0 over a byte range. ---
// The engine calls the simd variant on a 64-byte-aligned subrange
// covering the round's publishers (dense flip); the scalar engine path
// scatters over the publisher list instead and never calls these.
void flip_commit_scalar(std::uint8_t* cur, std::uint8_t* pub,
                        std::size_t count);
void flip_commit_simd(std::uint8_t* cur, std::uint8_t* pub,
                      std::size_t count);

// --- alive compaction: stable in-place removal of terminated ids. ---
// Returns the surviving count. The simd variant classifies 16-id blocks
// (fully alive -> one block move, fully dead -> skipped outright, mixed
// -> per-id pass); order is identical to the scalar pass.
// Precondition for the simd variant: `alive` is strictly increasing and
// `terminated` holds strict 0/1 flags — both invariants of the engine's
// alive list (initialized 0..n-1, compaction is stable), and what lets
// a contiguous id run load its 16 flags as two words instead of 16
// indexed gathers.
std::size_t compact_alive_scalar(graph::NodeId* alive, std::size_t count,
                                 const std::uint8_t* terminated);
std::size_t compact_alive_simd(graph::NodeId* alive, std::size_t count,
                               const std::uint8_t* terminated);

// --- T_v reduction: exact integer sum and max over the lane. ---
// `count` may include the plane's zeroed 64-byte-block padding: T_v >= 0
// makes zero a neutral element for both sum and max.
TvReduction reduce_tv_scalar(const std::int64_t* term_round,
                             std::size_t count);
TvReduction reduce_tv_simd(const std::int64_t* term_round,
                           std::size_t count);

}  // namespace lcl::local
