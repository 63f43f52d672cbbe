#pragma once

/// \file simd.hpp
/// Shared runtime-dispatched SIMD row kernels for the post-MLP hot path
/// (graph gather/scatter/concat/layer_norm and the MPM transfer kernels).
///
/// Same contract as the fused linear kernels in ad/ops_matmul.cpp:
///
///  * every vector kernel is **bitwise identical** to its scalar
///    reference — separate mul/add, never FMA (an FMA would skip the
///    intermediate rounding; the build passes -ffp-contract=off so the
///    compiler does not fuse them either), each lane runs the same
///    correctly-rounded IEEE ops in the same order as the scalar loop;
///  * the AVX2 twin is compiled with `__attribute__((target("avx2")))`
///    inside a baseline-ISA translation unit and selected at runtime via
///    `__builtin_cpu_supports`, so one binary runs everywhere;
///  * a process-wide toggle (`GNS_SIMD`, **default on**; set GNS_SIMD=0 to
///    force the scalar bodies, the MLP rows' `ad::rows_leaf()` included)
///    lets CI and benches pin either leaf kernel. It picks kernels only:
///    callers run the same loops either way.
///
/// These kernels only vectorize across *independent* elements (row copies,
/// elementwise accumulate, the per-element normalize pass of layer_norm).
/// Reductions keep their scalar accumulation order — that is what makes
/// the toggle bitwise-invisible.

#include <cstddef>

namespace gns::simd {

/// True when SIMD kernels are enabled (GNS_SIMD unset or != "0", or the
/// last set_enabled call said so). Cheap: one relaxed atomic load.
[[nodiscard]] bool enabled();

/// Programmatic override of GNS_SIMD (used by benches/tests to sweep both
/// paths in one process).
void set_enabled(bool enabled);

/// Runtime CPU checks, cached after the first call. False on non-x86
/// builds.
[[nodiscard]] bool cpu_has_avx2();
[[nodiscard]] bool cpu_has_avx512f();

/// enabled() && cpu_has_avx2(): the vector bodies actually run. Leaf
/// kernels (these and mpm::shape_weights_batch) dispatch on it, and
/// ad::rows_leaf() on enabled() and the CPU checks; no loop structure
/// depends on any of these queries.
[[nodiscard]] bool active();

/// dst[0..n) = src[0..n). Pure copy — trivially bitwise.
void copy(double* dst, const double* src, std::size_t n);

/// dst[i] += src[i] for i in [0, n). Element-independent: each output is
/// one add, so lane order is irrelevant and both paths are bitwise equal.
void accumulate(double* dst, const double* src, std::size_t n);

/// dst[i] += scale * src[i] for i in [0, n). Separate mul then add in
/// both paths (never contracted).
void accumulate_scaled(double* dst, const double* src, double scale,
                       std::size_t n);

/// y[i] = gamma[i] * (x[i] - mu) * inv_s + beta[i] for i in [0, n) — the
/// per-element normalize pass of layer_norm, with the exact left-to-right
/// association of the scalar loop. The mu/inv_s *reductions* stay scalar
/// in the caller (vectorizing a sum would reassociate it).
void norm_affine(double* y, const double* x, const double* gamma,
                 const double* beta, double mu, double inv_s, std::size_t n);

}  // namespace gns::simd
