#pragma once

/// \file material.hpp
/// Constitutive models for the MPM substrate.
///
/// The paper's granular experiments hinge on a friction-angle-parameterized
/// material (the inverse problem of §5 recovers φ from runout). We provide:
///  * LinearElastic — isotropic plane-strain elasticity (verification
///    problems, MeshNet-adjacent solids);
///  * DruckerPrager — cohesionless elastoplastic cone fit to Mohr–Coulomb,
///    the standard granular-column-collapse model: larger φ sustains more
///    shear and produces shorter runout.

#include <memory>

#include "mpm/types.hpp"

namespace gns::mpm {

/// Everything a constitutive update may consume. Solids typically use only
/// (stress, dstrain); rate- and density-dependent models (fluids) also
/// need dt and the current density.
struct StressState {
  SymTensor2 stress;      ///< stress at the start of the step
  SymTensor2 dstrain;     ///< small-strain increment (plane strain: dε_zz=0)
  double dt = 0.0;        ///< step size [s] (dstrain/dt = strain rate)
  double density = 0.0;   ///< current particle density mass/volume [kg/m^3]
};

/// Stateless constitutive update: new stress from the step state.
/// Implementations must be thread-safe (const).
class Material {
 public:
  virtual ~Material() = default;

  /// Returns the updated stress for the step described by `state`.
  [[nodiscard]] virtual SymTensor2 update_stress(
      const StressState& state) const = 0;

  /// Updates a batch: out[i] = update_stress(states[i]) for i in [0, n),
  /// bit for bit. This default loops over update_stress; a model may
  /// override it with a vector leaf that performs each element's IEEE
  /// operations in the same order. The MPM step calls it once per
  /// 128-particle G2P chunk.
  virtual void update_stress_batch(const StressState* states, int n,
                                   SymTensor2* out) const;

  /// Convenience overload for solids (dt/density-independent paths and
  /// tests).
  [[nodiscard]] SymTensor2 update_stress(const SymTensor2& stress,
                                         const SymTensor2& dstrain) const {
    return update_stress(StressState{stress, dstrain, 0.0, density()});
  }

  /// Density in the reference configuration [kg/m^3].
  [[nodiscard]] virtual double density() const = 0;

  /// p-wave modulus sqrt((λ+2μ)/ρ) (or the EOS sound speed for fluids) —
  /// the signal speed bounding the stable explicit timestep.
  [[nodiscard]] virtual double wave_speed() const = 0;
};

/// Isotropic linear elasticity (plane strain).
class LinearElastic : public Material {
 public:
  /// \param youngs   Young's modulus E [Pa]
  /// \param poisson  Poisson's ratio ν
  /// \param density  mass density ρ [kg/m^3]
  LinearElastic(double youngs, double poisson, double density);

  using Material::update_stress;
  [[nodiscard]] SymTensor2 update_stress(
      const StressState& state) const override;
  [[nodiscard]] double density() const override { return density_; }
  [[nodiscard]] double wave_speed() const override;

  [[nodiscard]] double lambda() const { return lambda_; }
  [[nodiscard]] double mu() const { return mu_; }

  /// Elastic trial increment shared with derived plastic models.
  [[nodiscard]] SymTensor2 elastic_increment(const SymTensor2& dstrain) const;

 protected:
  double youngs_;
  double poisson_;
  double density_;
  double lambda_;
  double mu_;
};

/// Cohesionless Drucker–Prager plasticity with deviatoric return mapping
/// (non-associative, zero dilatancy) and tension cutoff at the cone apex.
///
/// Yield surface: f(σ) = sqrt(J2) + α·p − k with p = tr(σ)/3 (tension
/// positive); α, k fit to Mohr–Coulomb friction angle φ and cohesion c via
/// the plane-strain (inscribed) cone:
///     α = 3 tanφ / sqrt(9 + 12 tan²φ),   k = 3 c / sqrt(9 + 12 tan²φ).
class DruckerPrager : public LinearElastic {
 public:
  /// \param friction_deg  Mohr–Coulomb friction angle φ in degrees
  /// \param cohesion      cohesion c [Pa] (0 for dry granular media)
  DruckerPrager(double youngs, double poisson, double density,
                double friction_deg, double cohesion = 0.0);

  using Material::update_stress;
  [[nodiscard]] SymTensor2 update_stress(
      const StressState& state) const override;

  /// Two leaves, chosen by simd::active() as shape_weights_batch's are:
  /// update_stress per element, or an AVX2 leaf that takes 4 states per
  /// vector, computes the apex, elastic and return outcomes for every
  /// lane and picks one per lane with compare masks. Its lanes run
  /// update_stress's operations in the same order (a NaN J2 or cone
  /// radius takes the branch the scalar code takes), so both leaves give
  /// the same bits.
  void update_stress_batch(const StressState* states, int n,
                           SymTensor2* out) const override;

  [[nodiscard]] double friction_deg() const { return friction_deg_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double k() const { return k_; }

 private:
  double friction_deg_;
  double cohesion_;
  double alpha_;
  double k_;
};

/// Weakly-compressible Newtonian fluid: σ = −p·I + 2μ·dev(ε̇) with the
/// linearized equation of state p = c²·(ρ − ρ₀) (c = artificial sound
/// speed, ≳10× the expected flow speed for <1% density variation). This
/// is the standard WCSPH/MPM water model; it powers the dam-break fluid
/// experiments (the paper's title covers "particle and fluid").
class NewtonianFluid : public Material {
 public:
  /// \param rest_density  ρ₀ [kg/m^3]
  /// \param sound_speed   c [m/s] (sets bulk stiffness K = ρ₀ c²)
  /// \param viscosity     dynamic viscosity μ [Pa·s]
  NewtonianFluid(double rest_density, double sound_speed,
                 double viscosity);

  using Material::update_stress;
  [[nodiscard]] SymTensor2 update_stress(
      const StressState& state) const override;
  [[nodiscard]] double density() const override { return rest_density_; }
  [[nodiscard]] double wave_speed() const override { return sound_speed_; }

  [[nodiscard]] double viscosity() const { return viscosity_; }

 private:
  double rest_density_;
  double sound_speed_;
  double viscosity_;
};

}  // namespace gns::mpm
