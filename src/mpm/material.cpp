#include "mpm/material.hpp"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define GNS_MPM_AVX2_KERNEL 1
#endif

#include "util/check.hpp"
#include "util/simd.hpp"

namespace gns::mpm {

void Material::update_stress_batch(const StressState* states, int n,
                                   SymTensor2* out) const {
  for (int i = 0; i < n; ++i) out[i] = update_stress(states[i]);
}

LinearElastic::LinearElastic(double youngs, double poisson, double density)
    : youngs_(youngs), poisson_(poisson), density_(density) {
  GNS_CHECK_MSG(youngs > 0.0, "Young's modulus must be positive");
  GNS_CHECK_MSG(poisson > -1.0 && poisson < 0.5,
                "Poisson's ratio must be in (-1, 0.5)");
  GNS_CHECK_MSG(density > 0.0, "density must be positive");
  lambda_ = youngs * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson));
  mu_ = youngs / (2.0 * (1.0 + poisson));
}

SymTensor2 LinearElastic::elastic_increment(const SymTensor2& de) const {
  const double tr = de.trace();
  SymTensor2 ds;
  ds.xx = lambda_ * tr + 2.0 * mu_ * de.xx;
  ds.yy = lambda_ * tr + 2.0 * mu_ * de.yy;
  ds.zz = lambda_ * tr + 2.0 * mu_ * de.zz;  // de.zz = 0 => σzz from λ tr
  ds.xy = 2.0 * mu_ * de.xy;
  return ds;
}

SymTensor2 LinearElastic::update_stress(const StressState& state) const {
  return state.stress + elastic_increment(state.dstrain);
}

double LinearElastic::wave_speed() const {
  return std::sqrt((lambda_ + 2.0 * mu_) / density_);
}

DruckerPrager::DruckerPrager(double youngs, double poisson, double density,
                             double friction_deg, double cohesion)
    : LinearElastic(youngs, poisson, density),
      friction_deg_(friction_deg),
      cohesion_(cohesion) {
  GNS_CHECK_MSG(friction_deg >= 0.0 && friction_deg < 90.0,
                "friction angle must be in [0, 90) degrees");
  GNS_CHECK_MSG(cohesion >= 0.0, "cohesion must be non-negative");
  const double tan_phi = std::tan(friction_deg * M_PI / 180.0);
  const double denom = std::sqrt(9.0 + 12.0 * tan_phi * tan_phi);
  alpha_ = 3.0 * tan_phi / denom;
  k_ = 3.0 * cohesion / denom;
}

SymTensor2 DruckerPrager::update_stress(const StressState& state) const {
  // Elastic predictor.
  SymTensor2 trial = state.stress + elastic_increment(state.dstrain);
  const double p = trial.mean();
  const double sqrt_j2 = std::sqrt(std::max(trial.j2(), 0.0));

  // Apex (tensile) region: the cone admits sqrt(J2) <= k - α p; when even
  // the hydrostatic axis is outside (k - α p < 0), return to the apex —
  // for a cohesionless material that is the zero-stress state.
  const double cone_radius = k_ - alpha_ * p;
  if (cone_radius <= 0.0) {
    const double p_apex = (alpha_ > 0.0) ? k_ / alpha_ : 0.0;
    return {p_apex, p_apex, 0.0, p_apex};
  }

  // Inside the cone: accept the elastic trial.
  if (sqrt_j2 <= cone_radius) return trial;

  // Shear failure: scale the deviator back onto the cone, keep p (zero
  // dilatancy return).
  const double scale = cone_radius / sqrt_j2;
  SymTensor2 s = trial.deviator() * scale;
  return {s.xx + p, s.yy + p, s.xy, s.zz + p};
}

#ifdef GNS_MPM_AVX2_KERNEL

namespace {

/// In-place 4x4 transpose: rows r[i] = (a, b, c, d) of element i become
/// columns r[k] = component k of elements 0..3.
__attribute__((target("avx2"))) inline void transpose4(__m256d r[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// DruckerPrager::update_stress on 4 states per vector. Every lane runs
/// the scalar body's operations in its order and association: the
/// elastic trial, p, √max(J2, 0) (max_pd(0, j2) returns j2 when it is
/// NaN, as std::max(j2, 0.0) does), the cone radius and the scaled
/// return are computed for all lanes, then _CMP_LE_OQ masks (false on
/// NaN, like the scalar `<=`) pick the apex, trial or return outcome.
/// A 0/0 in a lane whose outcome is discarded changes nothing.
__attribute__((target("avx2"))) void dp_batch_avx2(
    const StressState* states, int n, SymTensor2* out, double lambda,
    double mu, double alpha, double k, double p_apex) {
  static_assert(sizeof(SymTensor2) == 4 * sizeof(double));
  const __m256d vlambda = _mm256_set1_pd(lambda);
  const __m256d two_mu = _mm256_set1_pd(2.0 * mu);
  const __m256d valpha = _mm256_set1_pd(alpha);
  const __m256d vk = _mm256_set1_pd(k);
  const __m256d third = _mm256_set1_pd(3.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d apex = _mm256_set1_pd(p_apex);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d s[4], d[4];
    for (int l = 0; l < 4; ++l) {
      s[l] = _mm256_loadu_pd(&states[i + l].stress.xx);
      d[l] = _mm256_loadu_pd(&states[i + l].dstrain.xx);
    }
    transpose4(s);  // xx, yy, xy, zz
    transpose4(d);
    // trial = stress + elastic_increment(dstrain).
    const __m256d lt = _mm256_mul_pd(
        vlambda, _mm256_add_pd(_mm256_add_pd(d[0], d[1]), d[3]));
    const __m256d txx = _mm256_add_pd(
        s[0], _mm256_add_pd(lt, _mm256_mul_pd(two_mu, d[0])));
    const __m256d tyy = _mm256_add_pd(
        s[1], _mm256_add_pd(lt, _mm256_mul_pd(two_mu, d[1])));
    const __m256d txy = _mm256_add_pd(s[2], _mm256_mul_pd(two_mu, d[2]));
    const __m256d tzz = _mm256_add_pd(
        s[3], _mm256_add_pd(lt, _mm256_mul_pd(two_mu, d[3])));
    const __m256d p = _mm256_div_pd(
        _mm256_add_pd(_mm256_add_pd(txx, tyy), tzz), third);
    const __m256d dxx = _mm256_sub_pd(txx, p);
    const __m256d dyy = _mm256_sub_pd(tyy, p);
    const __m256d dzz = _mm256_sub_pd(tzz, p);
    const __m256d j2 = _mm256_add_pd(
        _mm256_mul_pd(
            half, _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(dxx, dxx),
                                              _mm256_mul_pd(dyy, dyy)),
                                _mm256_mul_pd(dzz, dzz))),
        _mm256_mul_pd(txy, txy));
    const __m256d sqrt_j2 = _mm256_sqrt_pd(_mm256_max_pd(zero, j2));
    const __m256d radius = _mm256_sub_pd(vk, _mm256_mul_pd(valpha, p));
    const __m256d at_apex = _mm256_cmp_pd(radius, zero, _CMP_LE_OQ);
    const __m256d inside = _mm256_cmp_pd(sqrt_j2, radius, _CMP_LE_OQ);
    const __m256d scale = _mm256_div_pd(radius, sqrt_j2);
    __m256d r[4] = {
        _mm256_add_pd(_mm256_mul_pd(dxx, scale), p),
        _mm256_add_pd(_mm256_mul_pd(dyy, scale), p),
        _mm256_mul_pd(txy, scale),
        _mm256_add_pd(_mm256_mul_pd(dzz, scale), p)};
    const __m256d trial[4] = {txx, tyy, txy, tzz};
    for (int c = 0; c < 4; ++c) {
      r[c] = _mm256_blendv_pd(r[c], trial[c], inside);
      r[c] = _mm256_blendv_pd(r[c], c == 2 ? zero : apex, at_apex);
    }
    transpose4(r);
    for (int l = 0; l < 4; ++l) _mm256_storeu_pd(&out[i + l].xx, r[l]);
  }
}

}  // namespace

#endif  // GNS_MPM_AVX2_KERNEL

void DruckerPrager::update_stress_batch(const StressState* states, int n,
                                        SymTensor2* out) const {
  int done = 0;
#ifdef GNS_MPM_AVX2_KERNEL
  if (simd::active()) {
    const double p_apex = (alpha_ > 0.0) ? k_ / alpha_ : 0.0;
    dp_batch_avx2(states, n, out, lambda_, mu_, alpha_, k_, p_apex);
    done = n - n % 4;
  }
#endif
  for (int i = done; i < n; ++i)
    out[i] = DruckerPrager::update_stress(states[i]);
}

NewtonianFluid::NewtonianFluid(double rest_density, double sound_speed,
                               double viscosity)
    : rest_density_(rest_density),
      sound_speed_(sound_speed),
      viscosity_(viscosity) {
  GNS_CHECK_MSG(rest_density > 0.0, "rest density must be positive");
  GNS_CHECK_MSG(sound_speed > 0.0, "sound speed must be positive");
  GNS_CHECK_MSG(viscosity >= 0.0, "viscosity must be non-negative");
}

SymTensor2 NewtonianFluid::update_stress(const StressState& state) const {
  // Pressure from the linearized EOS; clamped at zero so free surfaces do
  // not generate spurious tension (standard cavitation cutoff).
  const double rho =
      (state.density > 0.0) ? state.density : rest_density_;
  double p = sound_speed_ * sound_speed_ * (rho - rest_density_);
  p = std::max(p, 0.0);

  // Viscous deviatoric stress from the strain *rate* = dstrain / dt.
  SymTensor2 out{-p, -p, 0.0, -p};
  if (state.dt > 0.0 && viscosity_ > 0.0) {
    const double inv_dt = 1.0 / state.dt;
    SymTensor2 rate = state.dstrain * inv_dt;
    const SymTensor2 dev = rate.deviator();
    out.xx += 2.0 * viscosity_ * dev.xx;
    out.yy += 2.0 * viscosity_ * dev.yy;
    out.zz += 2.0 * viscosity_ * dev.zz;
    out.xy += 2.0 * viscosity_ * dev.xy;
  }
  return out;
}

}  // namespace gns::mpm
