#pragma once

/// \file solver.hpp
/// Explicit update-stress-last Material Point Method (2-D, plane strain).
///
/// One step: particle-to-grid transfer (mass, momentum, internal + gravity
/// forces) -> grid velocity update with box boundary conditions -> grid-to-
/// particle transfer with a FLIP/PIC blend, velocity-gradient-driven
/// constitutive update, and position advection. Both transfer directions
/// run in parallel on the work-stealing executor (exec::parallel_for and
/// fixed P2G lanes), bitwise invariant to the worker count.
///
/// Both transfers run in kShapeBatch-particle chunks over SoA scratch:
/// shape weights are evaluated by the batched (AVX2-dispatched, bitwise
/// scalar-identical) shape_weights_batch, and the per-lane P2G buffers
/// are epoch-stamped per node block so only blocks a lane actually
/// touched are cleared and reduced — the full-grid clear/reduce used to
/// cost O(nodes × lanes) per step regardless of particle support.
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
  void particle_to_grid(double dt);
  void grid_to_particle(double dt);

  /// Node blocks of the lazy-clear bookkeeping: nodes [blk << kBlockShift,
  /// (blk + 1) << kBlockShift) form one clear/reduce unit.
  static constexpr int kBlockShift = 6;  // 64 nodes per block

  /// P2G scatter lanes. Each lane owns a fixed contiguous chunk range and
  /// a private scatter buffer, and the reduction sums lanes in ascending
  /// order — a constant decomposition, so P2G is bitwise identical at any
  /// executor worker count.
  static constexpr int kP2gLanes = 8;

  /// Per-lane P2G scatter buffers, SoA per field so the reduction can
  /// run as flat vector adds. `block_epoch[blk] == current epoch` means
  /// this lane zeroed + touched block blk this step; anything else is
  /// stale data from an earlier step that the reduction must (and does)
  /// skip — which is exactly the legacy behaviour of a fully-zeroed
  /// buffer, without the O(nodes) clear.
  struct P2gBuffer {
    std::vector<double> mass, mom_x, mom_y, force_x, force_y;
    std::vector<std::uint64_t> block_epoch;
    std::vector<int> dirty;  ///< blocks this lane touched this step
  };

  MpmConfig config_;
  std::shared_ptr<const Material> material_;
  Particles particles_;
  Grid grid_;
  std::vector<Vec2d> grid_old_velocity_;
  std::vector<P2gBuffer> p2g_buffers_;
  std::vector<std::uint64_t> touched_epoch_;  ///< [block] union stamp
  std::vector<int> touched_blocks_;           ///< union dirty list
  std::uint64_t p2g_epoch_ = 0;
  double time_ = 0.0;
  std::int64_t steps_ = 0;
};

}  // namespace gns::mpm
