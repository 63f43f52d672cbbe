#pragma once

/// \file solver.hpp
/// Explicit update-stress-last Material Point Method (2-D, plane strain).
///
/// One step runs three parallel regions: particle-to-grid scatter (mass,
/// momentum, internal + gravity forces) into fixed lanes; one pass over
/// 64-node blocks that sums the lanes, forms the old and new grid
/// velocities and applies the box boundary; grid-to-particle transfer
/// with a FLIP/PIC blend, velocity-gradient-driven constitutive update,
/// and position advection. They run on the work-stealing executor
/// (exec::parallel_for and fixed P2G lanes) from kParallelParticles
/// particles up, and the step is bitwise invariant to the worker count.
///
/// Both transfers run in kShapeBatch-particle chunks over SoA scratch:
/// shape weights come from the batched (AVX2-dispatched, bitwise
/// scalar-identical) shape_weights_batch, P2G adds each node's four
/// vector-field contributions as one record (p2g.hpp), and G2P makes one
/// Material::update_stress_batch call per chunk.
///
/// This is the substrate playing the role of CB-Geo MPM in the paper: it
/// generates the GNS training trajectories, is the "physics refinement"
/// phase of the hybrid GNS/MPM loop (§4), and is the speedup baseline
/// (§3.1: GNS vs parallel CPU MPM).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mpm/grid.hpp"
#include "mpm/material.hpp"
#include "mpm/p2g.hpp"
#include "mpm/particles.hpp"
#include "mpm/shape.hpp"

namespace gns::mpm {

struct MpmConfig {
  int cells_x = 40;
  int cells_y = 40;
  double spacing = 0.025;          ///< grid cell size h [m]
  Vec2d gravity{0.0, -9.81};
  double cfl = 0.4;                ///< fraction of h / wave_speed per step
  double fixed_dt = 0.0;           ///< >0 overrides CFL (time-aligned runs)
  double flip_blend = 0.95;        ///< 1 = pure FLIP, 0 = pure PIC
  double floor_friction = 0.4;     ///< Coulomb coefficient on the floor
  ShapeKind shape = ShapeKind::QuadraticBSpline;
};

/// The largest |v| over `velocity`, as the running std::max(vmax, v.norm())
/// from +0.0 gives it, bit for bit (NaN norms are skipped), with one square
/// root: it takes the largest |v|² over four partial maxima. A correctly
/// rounded sqrt is monotone and a maximum does not depend on grouping.
[[nodiscard]] double max_speed(const std::vector<Vec2d>& velocity);

/// Explicit MPM solver owning the grid and the particle set.
class MpmSolver {
 public:
  MpmSolver(MpmConfig config, std::shared_ptr<const Material> material,
            Particles particles);

  /// Advances one explicit step of size dt() and returns it.
  double step();

  /// Advances `n` steps; returns total simulated time.
  double run(int n);

  /// Stable timestep from the CFL condition against the material p-wave
  /// speed (recomputed cheaply; velocity-augmented for fast flows).
  [[nodiscard]] double dt() const;

  [[nodiscard]] const Particles& particles() const { return particles_; }
  [[nodiscard]] Particles& particles_mut() { return particles_; }
  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] const MpmConfig& config() const { return config_; }
  [[nodiscard]] const Material& material() const { return *material_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] std::int64_t steps_taken() const { return steps_; }

  /// Replaces particle kinematics (positions + velocities) in place —
  /// the hybrid controller hands GNS rollout output back to the physics
  /// solver through this. Stress state is preserved; callers that need a
  /// fresh stress state can also zero it.
  void set_kinematics(const std::vector<Vec2d>& positions,
                      const std::vector<Vec2d>& velocities);

 private:
  void particle_to_grid(bool parallel);
  void update_grid(double dt, bool parallel);
  void grid_to_particle(double dt, bool parallel);

  /// Particle count from which the step's three regions run on the
  /// executor; below it they run serially on the caller. On a 4-vCPU
  /// Xeon VM a 20-substep frame of a 190-particle Fig-3 column took
  /// 0.35 ms serially and 0.68–0.84 ms at 2 workers; the crossover lay
  /// between 722 particles (1.33 ms serially, 1.41–1.51 ms at 2 workers)
  /// and 1,682 (3.00 against 2.15–2.54 ms). The decomposition is the same
  /// either way, so no bit depends on it.
  static constexpr int kParallelParticles = 1024;

  /// P2G scatter lanes. Each lane owns a fixed contiguous chunk range and
  /// a private scatter buffer, and the grid pass sums lanes in ascending
  /// order — a constant decomposition, so P2G is bitwise identical at any
  /// executor worker count.
  static constexpr int kP2gLanes = 8;

  MpmConfig config_;
  std::shared_ptr<const Material> material_;
  Particles particles_;
  Grid grid_;
  std::vector<Vec2d> grid_old_velocity_;
  std::vector<P2gLane> p2g_lanes_;
  /// [block] some lane touched it in the last step, so the grid holds
  /// nonzero values there; every other block of the grid is all zeros.
  std::vector<char> grid_block_touched_;
  std::uint64_t p2g_epoch_ = 0;
  double time_ = 0.0;
  std::int64_t steps_ = 0;
};

}  // namespace gns::mpm
