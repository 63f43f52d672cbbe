#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define GNS_SIMD_AVX2_KERNEL 1
#endif

namespace gns::simd {

namespace {

// -1 = unset (read GNS_SIMD on first query), else 0/1. Default ON: the
// kernels are bitwise equal to the scalar references, so there is nothing
// to opt into — GNS_SIMD=0 exists to pin the reference path (CI sanitizer
// legs, A/B benches).
std::atomic<int> g_simd_state{-1};

#ifdef GNS_SIMD_AVX2_KERNEL

__attribute__((target("avx2"))) void copy_avx2(double* dst, const double* src,
                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d a = _mm256_loadu_pd(src + i);
    const __m256d b = _mm256_loadu_pd(src + i + 4);
    const __m256d c = _mm256_loadu_pd(src + i + 8);
    const __m256d d = _mm256_loadu_pd(src + i + 12);
    _mm256_storeu_pd(dst + i, a);
    _mm256_storeu_pd(dst + i + 4, b);
    _mm256_storeu_pd(dst + i + 8, c);
    _mm256_storeu_pd(dst + i + 12, d);
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_loadu_pd(src + i));
  for (; i < n; ++i) dst[i] = src[i];
}

__attribute__((target("avx2"))) void accumulate_avx2(double* dst,
                                                     const double* src,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a =
        _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i));
    const __m256d b = _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                    _mm256_loadu_pd(src + i + 4));
    _mm256_storeu_pd(dst + i, a);
    _mm256_storeu_pd(dst + i + 4, b);
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        dst + i,
        _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) void accumulate_scaled_avx2(
    double* dst, const double* src, double scale, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(scale);
  std::size_t i = 0;
  // mul then add, never FMA: matches `dst[i] += scale * src[i]` exactly.
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        dst + i,
        _mm256_add_pd(_mm256_loadu_pd(dst + i),
                      _mm256_mul_pd(vs, _mm256_loadu_pd(src + i))));
  for (; i < n; ++i) dst[i] += scale * src[i];
}

__attribute__((target("avx2"))) void norm_affine_avx2(
    double* y, const double* x, const double* gamma, const double* beta,
    double mu, double inv_s, std::size_t n) {
  const __m256d vmu = _mm256_set1_pd(mu);
  const __m256d vis = _mm256_set1_pd(inv_s);
  std::size_t i = 0;
  // ((gamma * (x - mu)) * inv_s) + beta — same association as the scalar
  // expression `gamma[i] * (x[i] - mu) * inv_s + beta[i]`.
  for (; i + 4 <= n; i += 4) {
    const __m256d centered = _mm256_sub_pd(_mm256_loadu_pd(x + i), vmu);
    const __m256d scaled = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_loadu_pd(gamma + i), centered), vis);
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(scaled, _mm256_loadu_pd(beta + i)));
  }
  for (; i < n; ++i) y[i] = gamma[i] * (x[i] - mu) * inv_s + beta[i];
}

#endif  // GNS_SIMD_AVX2_KERNEL

}  // namespace

bool enabled() {
  int s = g_simd_state.load(std::memory_order_relaxed);
  if (s < 0) {
    const char* env = std::getenv("GNS_SIMD");
    s = (env != nullptr && env[0] == '0' && env[1] == '\0') ? 0 : 1;
    g_simd_state.store(s, std::memory_order_relaxed);
  }
  return s != 0;
}

void set_enabled(bool enabled) {
  g_simd_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool cpu_has_avx2() {
#ifdef GNS_SIMD_AVX2_KERNEL
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#ifdef GNS_SIMD_AVX2_KERNEL
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has;
#else
  return false;
#endif
}

bool active() { return enabled() && cpu_has_avx2(); }

void copy(double* dst, const double* src, std::size_t n) {
#ifdef GNS_SIMD_AVX2_KERNEL
  if (active()) {
    copy_avx2(dst, src, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

void accumulate(double* dst, const double* src, std::size_t n) {
#ifdef GNS_SIMD_AVX2_KERNEL
  if (active()) {
    accumulate_avx2(dst, src, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void accumulate_scaled(double* dst, const double* src, double scale,
                       std::size_t n) {
#ifdef GNS_SIMD_AVX2_KERNEL
  if (active()) {
    accumulate_scaled_avx2(dst, src, scale, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void norm_affine(double* y, const double* x, const double* gamma,
                 const double* beta, double mu, double inv_s, std::size_t n) {
#ifdef GNS_SIMD_AVX2_KERNEL
  if (active()) {
    norm_affine_avx2(y, x, gamma, beta, mu, inv_s, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i)
    y[i] = gamma[i] * (x[i] - mu) * inv_s + beta[i];
}

}  // namespace gns::simd
