#include "mpm/solver.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "util/simd.hpp"

namespace gns::mpm {

double max_speed(const std::vector<Vec2d>& velocity) {
  // Each partial maximum starts at +0.0 and skips NaN, as std::max(vmax,
  // ·) does; sqrt of the largest |v|² is then the largest sqrt.
  double m[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n = velocity.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (std::size_t k = 0; k < 4; ++k)
      m[k] = std::max(m[k], velocity[i + k].norm2());
  for (; i < n; ++i) m[0] = std::max(m[0], velocity[i].norm2());
  return std::sqrt(std::max(std::max(m[0], m[1]), std::max(m[2], m[3])));
}

MpmSolver::MpmSolver(MpmConfig config, std::shared_ptr<const Material> material,
                     Particles particles)
    : config_(config),
      material_(std::move(material)),
      particles_(std::move(particles)),
      grid_(config.cells_x, config.cells_y, config.spacing) {
  GNS_CHECK_MSG(material_ != nullptr, "MpmSolver needs a material");
  GNS_CHECK_MSG(particles_.size() > 0, "MpmSolver needs particles");
  GNS_CHECK(config_.flip_blend >= 0.0 && config_.flip_blend <= 1.0);
  grid_old_velocity_.assign(grid_.num_nodes(), Vec2d{});
  // One scatter buffer per fixed P2G lane, sized once: the grid never
  // changes size.
  p2g_lanes_.assign(kP2gLanes, P2gLane(grid_.num_nodes()));
  grid_block_touched_.assign(p2g_lanes_[0].block_epoch.size(), 0);
}

double MpmSolver::dt() const {
  if (config_.fixed_dt > 0.0) return config_.fixed_dt;
  const double c = material_->wave_speed() + max_speed(particles_.velocity);
  return config_.cfl * grid_.spacing() / c;
}

double MpmSolver::step() {
  GNS_TRACE_SCOPE("mpm.solver.step");
  static auto& step_ms =
      obs::MetricsRegistry::global().histogram("mpm.solver.step_ms");
  static auto& step_count =
      obs::MetricsRegistry::global().counter("mpm.solver.steps");
  const obs::ScopedHistogramTimer step_timer(step_ms);
  step_count.add();

  const double dt_step = dt();
  const bool parallel = particles_.size() >= kParallelParticles;
  particle_to_grid(parallel);
  update_grid(dt_step, parallel);
  grid_to_particle(dt_step, parallel);
  time_ += dt_step;
  ++steps_;
  return dt_step;
}

double MpmSolver::run(int n) {
  double t = 0.0;
  for (int i = 0; i < n; ++i) t += step();
  return t;
}

void MpmSolver::set_kinematics(const std::vector<Vec2d>& positions,
                               const std::vector<Vec2d>& velocities) {
  GNS_CHECK_MSG(static_cast<int>(positions.size()) == particles_.size() &&
                    static_cast<int>(velocities.size()) == particles_.size(),
                "set_kinematics size mismatch");
  const double eps = 1e-6;
  for (int i = 0; i < particles_.size(); ++i) {
    Vec2d x = positions[i];
    x.x = std::clamp(x.x, eps, grid_.width() - eps);
    x.y = std::clamp(x.y, eps, grid_.height() - eps);
    particles_.position[i] = x;
    particles_.velocity[i] = velocities[i];
  }
}

void MpmSolver::particle_to_grid(bool parallel) {
  GNS_TRACE_SCOPE("mpm.solver.p2g");
  static auto& p2g_ms =
      obs::MetricsRegistry::global().histogram("mpm.solver.p2g_ms");
  const obs::ScopedHistogramTimer phase_timer(p2g_ms);
  const int np = particles_.size();
  const int nchunks = (np + kShapeBatch - 1) / kShapeBatch;
  // One epoch per step: a lane block whose stamp is behind it holds stale
  // data and counts as zero (the scatter zeroes it on first touch).
  P2gGrid g;
  g.nodes_x = grid_.nodes_x();
  g.nodes_y = grid_.nodes_y();
  g.spacing = grid_.spacing();
  g.shape = config_.shape;
  g.gravity = config_.gravity;
  g.epoch = ++p2g_epoch_;

  // kP2gLanes fixed lanes, each owning a contiguous chunk range (a
  // function of nchunks only) and its own buffer. The grid pass sums them
  // in ascending lane order, so it performs the same FP sequence at any
  // worker count — P2G is bitwise worker-count invariant.
  const int lanes = std::min(kP2gLanes, nchunks);
  exec::parallel_jobs(lanes, parallel, [&](int lane) {
    const int cbegin = nchunks * lane / lanes;
    const int cend = nchunks * (lane + 1) / lanes;
    for (int c = cbegin; c < cend; ++c) {
      const int c0 = c * kShapeBatch;
      p2g_scatter(particles_, c0, std::min(kShapeBatch, np - c0), g,
                  p2g_lanes_[lane]);
    }
  });
}

void MpmSolver::update_grid(double dt, bool parallel) {
  GNS_TRACE_SCOPE("mpm.solver.grid_update");
  static auto& grid_update_ms =
      obs::MetricsRegistry::global().histogram("mpm.solver.grid_update_ms");
  const obs::ScopedHistogramTimer phase_timer(grid_update_ms);
  const int n_nodes = grid_.num_nodes();
  const int nxn = grid_.nodes_x();
  const int nyn = grid_.nodes_y();
  const double floor_friction = config_.floor_friction;
  const std::uint64_t epoch = p2g_epoch_;
  constexpr int kBlock = 1 << kP2gBlockShift;
  const int nblocks = (n_nodes + kBlock - 1) / kBlock;

  // One task per 64-node block: the grid's mass, momentum and force are
  // the +0.0-seeded sums of the lanes whose stamp is current, added in
  // ascending lane order (a lane that never touched a block contributed
  // exact zeros, and adding +0.0 to a +0.0-seeded sum changes no bit);
  // then each node's old velocity, new velocity and boundary rule. A
  // block no lane touched in this step or the last still holds the zeros
  // this pass would write, so it is skipped. Lanes P2G did not run never
  // carry the current stamp.
  exec::parallel_for(nblocks, parallel, [&](std::int64_t b) {
    const int blk = static_cast<int>(b);
    const int lo = blk * kBlock;
    const int len = std::min(kBlock, n_nodes - lo);
    bool touched = false;
    for (int t = 0; t < kP2gLanes; ++t)
      touched = touched || p2g_lanes_[t].block_epoch[blk] == epoch;
    if (!touched && !grid_block_touched_[blk]) return;
    grid_block_touched_[blk] = touched;
    double* mass = grid_.mass.data() + lo;
    alignas(64) double rec[4 * kBlock];
    std::fill_n(mass, len, 0.0);
    std::fill_n(rec, 4 * len, 0.0);
    for (int t = 0; t < kP2gLanes; ++t) {
      const P2gLane& lane = p2g_lanes_[t];
      if (lane.block_epoch[blk] != epoch) continue;
      simd::accumulate(mass, lane.mass.data() + lo, len);
      simd::accumulate(rec, lane.rec.data() + 4 * lo, 4 * len);
    }
    int ix = lo % nxn;
    int iy = lo / nxn;
    for (int k = 0; k < len; ++k) {
      const int i = lo + k;
      const double m = mass[k];
      const double* r = rec + 4 * k;
      grid_.momentum[i] = Vec2d{r[0], r[1]};
      grid_.force[i] = Vec2d{r[2], r[3]};
      Vec2d v;
      if (m > 1e-12) {
        grid_old_velocity_[i] = Vec2d{r[0] / m, r[1] / m};
        v = Vec2d{(r[0] + dt * r[2]) / m, (r[1] + dt * r[3]) / m};
      } else {
        grid_old_velocity_[i] = Vec2d{};
      }
      apply_boundary(v, ix, iy, nxn, nyn, floor_friction);
      grid_.velocity[i] = v;
      if (++ix == nxn) {
        ix = 0;
        ++iy;
      }
    }
  });
}

void MpmSolver::grid_to_particle(double dt, bool parallel) {
  GNS_TRACE_SCOPE("mpm.solver.g2p");
  static auto& g2p_ms =
      obs::MetricsRegistry::global().histogram("mpm.solver.g2p_ms");
  const obs::ScopedHistogramTimer phase_timer(g2p_ms);
  const int np = particles_.size();
  const int nxn = grid_.nodes_x();
  const int nyn = grid_.nodes_y();
  const double h = grid_.spacing();
  const ShapeKind kind = config_.shape;
  const int scount = (kind == ShapeKind::Linear) ? 2 : 3;
  const double blend = config_.flip_blend;
  const double eps = 1e-6;
  const double wlim = grid_.width() - eps;
  const double hlim = grid_.height() - eps;
  const int nchunks = (np + kShapeBatch - 1) / kShapeBatch;

  // Same chunked SoA weight evaluation as P2G. The gather itself is a
  // purely per-particle reduction (no cross-particle accumulation), so
  // the results are bitwise independent of chunking and worker count.
  exec::parallel_for(nchunks, parallel, [&](std::int64_t cc) {
    const int c = static_cast<int>(cc);
    const int c0 = c * kShapeBatch;
    const int cnt = std::min(kShapeBatch, np - c0);
    ShapeWeightsBatch wxb, wyb;
    shape_weights_batch(kind, particles_.position.data() + c0, cnt, h, wxb,
                        wyb);

    StressState states[kShapeBatch];
    for (int j = 0; j < cnt; ++j) {
      const int p = c0 + j;
      const Vec2d x = particles_.position[p];
      Vec2d v_pic, dv;
      Mat2 grad;
      for (int a = 0; a < scount; ++a) {
        const int iy = wyb.base[j] + a;
        if (iy < 0 || iy >= nyn) continue;
        const double wya = wyb.w[a][j];
        const double dwya = wyb.dw[a][j];
        for (int b = 0; b < scount; ++b) {
          const int ix = wxb.base[j] + b;
          if (ix < 0 || ix >= nxn) continue;
          const int node = iy * nxn + ix;
          const double w = wxb.w[b][j] * wya;
          const double dwx = wxb.dw[b][j] * wya;
          const double dwy = wxb.w[b][j] * dwya;
          const Vec2d vn = grid_.velocity[node];
          v_pic += w * vn;
          dv += w * (vn - grid_old_velocity_[node]);
          grad.xx += dwx * vn.x;
          grad.xy += dwy * vn.x;
          grad.yx += dwx * vn.y;
          grad.yy += dwy * vn.y;
        }
      }
      const Vec2d v_flip = particles_.velocity[p] + dv;
      particles_.velocity[p] = blend * v_flip + (1.0 - blend) * v_pic;

      Vec2d xn = x + v_pic * dt;
      xn.x = std::clamp(xn.x, eps, wlim);
      xn.y = std::clamp(xn.y, eps, hlim);
      particles_.position[p] = xn;

      const SymTensor2 de = grad.sym_scaled(dt);
      particles_.volume[p] *= (1.0 + grad.trace() * dt);
      particles_.volume[p] = std::max(particles_.volume[p], 1e-12);
      states[j] = StressState{particles_.stress[p], de, dt,
                              particles_.mass[p] / particles_.volume[p]};
    }
    material_->update_stress_batch(states, cnt, particles_.stress.data() + c0);
  });
}

}  // namespace gns::mpm
