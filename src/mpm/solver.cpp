#include "mpm/solver.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "util/simd.hpp"

namespace gns::mpm {

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
  // changes size. Epoch stamps start at 0 < p2g_epoch_ + 1, i.e. "stale
  // everywhere" — the lazy clear initializes each block on first touch.
  const std::size_t n = static_cast<std::size_t>(grid_.num_nodes());
  const std::size_t nblocks = (n + (std::size_t{1} << kBlockShift) - 1) >>
                              kBlockShift;
  p2g_buffers_.resize(kP2gLanes);
  for (auto& buf : p2g_buffers_) {
    buf.mass.assign(n, 0.0);
    buf.mom_x.assign(n, 0.0);
    buf.mom_y.assign(n, 0.0);
    buf.force_x.assign(n, 0.0);
    buf.force_y.assign(n, 0.0);
    buf.block_epoch.assign(nblocks, 0);
  }
  touched_epoch_.assign(nblocks, 0);
}

double MpmSolver::dt() const {
  if (config_.fixed_dt > 0.0) return config_.fixed_dt;
  double vmax = 0.0;
  for (const auto& v : particles_.velocity) vmax = std::max(vmax, v.norm());
  const double c = material_->wave_speed() + vmax;
  return config_.cfl * grid_.spacing() / c;
}

double MpmSolver::step() {
  GNS_TRACE_SCOPE("mpm.solver.step");
  static auto& step_ms =
      obs::MetricsRegistry::global().histogram("mpm.solver.step_ms");
  static auto& grid_update_ms =
      obs::MetricsRegistry::global().histogram("mpm.solver.grid_update_ms");
  static auto& step_count =
      obs::MetricsRegistry::global().counter("mpm.solver.steps");
  const obs::ScopedHistogramTimer step_timer(step_ms);
  step_count.add();

  const double dt_step = dt();
  grid_.clear();
  particle_to_grid(dt_step);

  {
    GNS_TRACE_SCOPE("mpm.solver.grid_update");
    const obs::ScopedHistogramTimer phase_timer(grid_update_ms);
    const int n_nodes = grid_.num_nodes();
    exec::parallel_for(n_nodes, true, [&](std::int64_t i) {
      grid_old_velocity_[i] = (grid_.mass[i] > 1e-12)
                                  ? Vec2d{grid_.momentum[i].x / grid_.mass[i],
                                          grid_.momentum[i].y / grid_.mass[i]}
                                  : Vec2d{};
    });

    grid_.update_velocities(dt_step);
    grid_.apply_boundary(dt_step, config_.floor_friction);
  }

  grid_to_particle(dt_step);
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

void MpmSolver::particle_to_grid(double dt) {
  GNS_TRACE_SCOPE("mpm.solver.p2g");
  static auto& p2g_ms =
      obs::MetricsRegistry::global().histogram("mpm.solver.p2g_ms");
  const obs::ScopedHistogramTimer phase_timer(p2g_ms);
  (void)dt;
  const int np = particles_.size();
  const int n_nodes = grid_.num_nodes();
  const int nxn = grid_.nodes_x();
  const int nyn = grid_.nodes_y();
  const double h = grid_.spacing();
  const ShapeKind kind = config_.shape;
  const int scount = (kind == ShapeKind::Linear) ? 2 : 3;
  const Vec2d g = config_.gravity;
  const int nchunks = (np + kShapeBatch - 1) / kShapeBatch;

  // One epoch per step: a buffer block whose stamp is behind this value
  // holds stale data and counts as zero (it is zeroed on first touch).
  const std::uint64_t epoch = ++p2g_epoch_;
  const std::size_t block_len = std::size_t{1} << kBlockShift;

  // kShapeBatch-particle chunks: positions transposed to SoA, both
  // axes' weights evaluated in one batched (AVX2-dispatched) call,
  // then the usual tensor-product scatter. The accumulation arithmetic
  // is term-for-term the legacy per-particle loop.
  auto process_chunk = [&](int c, P2gBuffer& buf) {
    {
      const int c0 = c * kShapeBatch;
      const int cnt = std::min(kShapeBatch, np - c0);
      alignas(32) double bx[kShapeBatch];
      alignas(32) double by[kShapeBatch];
      for (int j = 0; j < cnt; ++j) {
        bx[j] = particles_.position[c0 + j].x;
        by[j] = particles_.position[c0 + j].y;
      }
      ShapeWeightsBatch wxb, wyb;
      shape_weights_batch(kind, bx, cnt, h, wxb);
      shape_weights_batch(kind, by, cnt, h, wyb);

      for (int j = 0; j < cnt; ++j) {
        const int p = c0 + j;
        const Vec2d v = particles_.velocity[p];
        const double m = particles_.mass[p];
        const double vol = particles_.volume[p];
        const SymTensor2& s = particles_.stress[p];
        for (int a = 0; a < scount; ++a) {
          const int iy = wyb.base[j] + a;
          if (iy < 0 || iy >= nyn) continue;
          const double wya = wyb.w[a][j];
          const double dwya = wyb.dw[a][j];
          for (int b = 0; b < scount; ++b) {
            const int ix = wxb.base[j] + b;
            if (ix < 0 || ix >= nxn) continue;
            const int node = iy * nxn + ix;
            const int blk = node >> kBlockShift;
            if (buf.block_epoch[blk] != epoch) {
              // First touch of this block this step: zero it (cheaper
              // than the legacy whole-grid fill) and record it.
              const std::size_t lo = static_cast<std::size_t>(blk)
                                     << kBlockShift;
              const std::size_t len = std::min(
                  block_len, static_cast<std::size_t>(n_nodes) - lo);
              std::fill_n(buf.mass.begin() + lo, len, 0.0);
              std::fill_n(buf.mom_x.begin() + lo, len, 0.0);
              std::fill_n(buf.mom_y.begin() + lo, len, 0.0);
              std::fill_n(buf.force_x.begin() + lo, len, 0.0);
              std::fill_n(buf.force_y.begin() + lo, len, 0.0);
              buf.block_epoch[blk] = epoch;
              buf.dirty.push_back(blk);
            }
            const double w = wxb.w[b][j] * wya;
            const double dwx = wxb.dw[b][j] * wya;
            const double dwy = wxb.w[b][j] * dwya;
            buf.mass[node] += w * m;
            buf.mom_x[node] += w * m * v.x;
            buf.mom_y[node] += w * m * v.y;
            // Internal force: f -= V σ ∇N. Gravity: f += m g N.
            buf.force_x[node] +=
                -vol * (s.xx * dwx + s.xy * dwy) + w * m * g.x;
            buf.force_y[node] +=
                -vol * (s.xy * dwx + s.yy * dwy) + w * m * g.y;
          }
        }
      }
    }
  };

  // kP2gLanes fixed lanes, each owning a contiguous chunk range (a
  // function of nchunks only) and its own buffer. The ascending-lane
  // reduction below then performs the same FP sequence at any worker
  // count — P2G is bitwise worker-count invariant.
  const int lanes = std::min(kP2gLanes, nchunks);
  exec::parallel_jobs(lanes, true, [&](int lane) {
    P2gBuffer& buf = p2g_buffers_[lane];
    buf.dirty.clear();
    const int cbegin = nchunks * lane / lanes;
    const int cend = nchunks * (lane + 1) / lanes;
    for (int c = cbegin; c < cend; ++c) process_chunk(c, buf);
  });
  // Lanes beyond `lanes` kept stale dirty lists from earlier steps; clear
  // them so the union below only sees this step's blocks.
  for (int t = lanes; t < kP2gLanes; ++t) p2g_buffers_[t].dirty.clear();

  // Union of the per-lane dirty lists. Blocks nobody touched keep the
  // grid_.clear() zeros — exactly the legacy all-zero sum.
  touched_blocks_.clear();
  for (int t = 0; t < kP2gLanes; ++t)
    for (const int blk : p2g_buffers_[t].dirty)
      if (touched_epoch_[blk] != epoch) {
        touched_epoch_[blk] = epoch;
        touched_blocks_.push_back(blk);
      }

  // Fixed-order reduction over lanes: each block has one owning task, and
  // every grid value accumulates its per-lane contributions in ascending
  // lane order — the identical FP sequence as the legacy per-node loop
  // (lanes that never touched a block contributed exact zeros there, and
  // adding +0.0 to a +0.0-seeded running sum can never change its bits).
  const int n_touched = static_cast<int>(touched_blocks_.size());
  exec::parallel_for(n_touched, true, [&](std::int64_t u) {
    const int blk = touched_blocks_[u];
    const std::size_t lo = static_cast<std::size_t>(blk) << kBlockShift;
    const std::size_t len =
        std::min(block_len, static_cast<std::size_t>(n_nodes) - lo);
    for (int t = 0; t < kP2gLanes; ++t) {
      const P2gBuffer& buf = p2g_buffers_[t];
      if (buf.block_epoch[blk] != epoch) continue;
      simd::accumulate(grid_.mass.data() + lo, buf.mass.data() + lo, len);
      for (std::size_t i = lo; i < lo + len; ++i) {
        grid_.momentum[i].x += buf.mom_x[i];
        grid_.momentum[i].y += buf.mom_y[i];
        grid_.force[i].x += buf.force_x[i];
        grid_.force[i].y += buf.force_y[i];
      }
    }
  });
}

void MpmSolver::grid_to_particle(double dt) {
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
  exec::parallel_for(nchunks, true, [&](std::int64_t cc) {
    const int c = static_cast<int>(cc);
    const int c0 = c * kShapeBatch;
    const int cnt = std::min(kShapeBatch, np - c0);
    alignas(32) double bx[kShapeBatch];
    alignas(32) double by[kShapeBatch];
    for (int j = 0; j < cnt; ++j) {
      bx[j] = particles_.position[c0 + j].x;
      by[j] = particles_.position[c0 + j].y;
    }
    ShapeWeightsBatch wxb, wyb;
    shape_weights_batch(kind, bx, cnt, h, wxb);
    shape_weights_batch(kind, by, cnt, h, wyb);

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
      StressState state{particles_.stress[p], de, dt,
                        particles_.mass[p] / particles_.volume[p]};
      particles_.stress[p] = material_->update_stress(state);
    }
  });
}

}  // namespace gns::mpm
