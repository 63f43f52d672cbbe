#include "cfd/cfd.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.hpp"

namespace gns::cfd {

CfdSolver::CfdSolver(CfdConfig config) : config_(config) {
  GNS_CHECK(config_.nx > 4 && config_.ny > 4);
  dx_ = config_.length / config_.nx;
  nu_ = config_.inflow * (2.0 * config_.cylinder_r) / config_.reynolds;
  u_.assign((config_.nx + 1) * config_.ny, config_.inflow);
  v_.assign(config_.nx * (config_.ny + 1), 0.0);
  p_.assign(config_.nx * config_.ny, 0.0);
  u_tmp_ = u_;
  v_tmp_ = v_;

  type_.assign(config_.nx * config_.ny, CellType::Fluid);
  const double cy = config_.cylinder_y * height();
  for (int j = 0; j < config_.ny; ++j) {
    for (int i = 0; i < config_.nx; ++i) {
      const double x = (i + 0.5) * dx_;
      const double y = (j + 0.5) * dx_;
      const double ddx = x - config_.cylinder_x;
      const double ddy = y - cy;
      if (ddx * ddx + ddy * ddy <= config_.cylinder_r * config_.cylinder_r) {
        type_[cidx(i, j)] = CellType::Solid;
      } else if (i == 0) {
        type_[cidx(i, j)] = CellType::Inflow;
      } else if (i == config_.nx - 1) {
        type_[cidx(i, j)] = CellType::Outflow;
      }
    }
  }
  // Seed a slight vertical asymmetry so the wake instability (which is a
  // symmetry breaking) onsets quickly instead of after long transients.
  for (int j = 0; j < config_.ny + 1; ++j)
    for (int i = 0; i < config_.nx; ++i)
      v_[vidx(i, j)] = 0.02 * config_.inflow *
                       std::sin(2.0 * M_PI * i / config_.nx);
  apply_velocity_bc(u_, v_);
}

double CfdSolver::sample_u(double x, double y) const {
  // u lives at (i*dx, (j+0.5)*dx).
  const double gx = std::clamp(x / dx_, 0.0, double(config_.nx));
  const double gy = std::clamp(y / dx_ - 0.5, 0.0, double(config_.ny - 1));
  const int i0 = std::min(static_cast<int>(gx), config_.nx - 1);
  const int j0 = std::min(static_cast<int>(gy), config_.ny - 2);
  const double fx = gx - i0;
  const double fy = gy - j0;
  const double a = u_[uidx(i0, j0)] * (1 - fx) + u_[uidx(i0 + 1, j0)] * fx;
  const double b =
      u_[uidx(i0, j0 + 1)] * (1 - fx) + u_[uidx(i0 + 1, j0 + 1)] * fx;
  return a * (1 - fy) + b * fy;
}

double CfdSolver::sample_v(double x, double y) const {
  // v lives at ((i+0.5)*dx, j*dx).
  const double gx = std::clamp(x / dx_ - 0.5, 0.0, double(config_.nx - 1));
  const double gy = std::clamp(y / dx_, 0.0, double(config_.ny));
  const int i0 = std::min(static_cast<int>(gx), config_.nx - 2);
  const int j0 = std::min(static_cast<int>(gy), config_.ny - 1);
  const double fx = gx - i0;
  const double fy = gy - j0;
  const double a = v_[vidx(i0, j0)] * (1 - fx) + v_[vidx(i0 + 1, j0)] * fx;
  const double b =
      v_[vidx(i0, j0 + 1)] * (1 - fx) + v_[vidx(i0 + 1, j0 + 1)] * fx;
  return a * (1 - fy) + b * fy;
}

void CfdSolver::apply_velocity_bc(std::vector<double>& u,
                                  std::vector<double>& v) const {
  const int nx = config_.nx, ny = config_.ny;
  // Inflow / outflow.
  for (int j = 0; j < ny; ++j) {
    u[uidx(0, j)] = config_.inflow;
    u[uidx(nx, j)] = u[uidx(nx - 1, j)];  // zero-gradient outflow
  }
  // Free-slip top/bottom: v = 0 on the walls.
  for (int i = 0; i < nx; ++i) {
    v[vidx(i, 0)] = 0.0;
    v[vidx(i, ny)] = 0.0;
  }
  // Solid cylinder: zero all face velocities adjacent to solid cells
  // (no-slip on the obstacle).
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!solid(i, j)) continue;
      u[uidx(i, j)] = 0.0;
      u[uidx(i + 1, j)] = 0.0;
      v[vidx(i, j)] = 0.0;
      v[vidx(i, j + 1)] = 0.0;
    }
  }
}

void CfdSolver::advect(double dt) {
  const int nx = config_.nx, ny = config_.ny;
  // Semi-Lagrangian backtrace for each face value.
  exec::parallel_for(ny, true, [&](std::int64_t row) {
    const int j = static_cast<int>(row);
    for (int i = 0; i <= nx; ++i) {
      const double x = i * dx_;
      const double y = (j + 0.5) * dx_;
      const double uu = u_[uidx(i, j)];
      const double vv = sample_v(x, y);
      u_tmp_[uidx(i, j)] = sample_u(x - dt * uu, y - dt * vv);
    }
  });
  exec::parallel_for(ny + 1, true, [&](std::int64_t row) {
    const int j = static_cast<int>(row);
    for (int i = 0; i < nx; ++i) {
      const double x = (i + 0.5) * dx_;
      const double y = j * dx_;
      const double uu = sample_u(x, y);
      const double vv = v_[vidx(i, j)];
      v_tmp_[vidx(i, j)] = sample_v(x - dt * uu, y - dt * vv);
    }
  });
  u_.swap(u_tmp_);
  v_.swap(v_tmp_);
}

void CfdSolver::diffuse(double dt) {
  const int nx = config_.nx, ny = config_.ny;
  const double a = nu_ * dt / (dx_ * dx_);
  exec::parallel_for(ny, true, [&](std::int64_t row) {
    const int j = static_cast<int>(row);
    for (int i = 1; i < nx; ++i) {
      const double c = u_[uidx(i, j)];
      const double l = u_[uidx(i - 1, j)];
      const double r = u_[uidx(i + 1, j)];
      const double d = (j > 0) ? u_[uidx(i, j - 1)] : c;
      const double t = (j < ny - 1) ? u_[uidx(i, j + 1)] : c;
      u_tmp_[uidx(i, j)] = c + a * (l + r + d + t - 4.0 * c);
    }
    u_tmp_[uidx(0, j)] = u_[uidx(0, j)];
    u_tmp_[uidx(nx, j)] = u_[uidx(nx, j)];
  });
  exec::parallel_for(ny - 1, true, [&](std::int64_t row) {
    const int j = static_cast<int>(row) + 1;
    for (int i = 0; i < nx; ++i) {
      const double c = v_[vidx(i, j)];
      const double l = (i > 0) ? v_[vidx(i - 1, j)] : c;
      const double r = (i < nx - 1) ? v_[vidx(i + 1, j)] : c;
      const double d = v_[vidx(i, j - 1)];
      const double t = v_[vidx(i, j + 1)];
      v_tmp_[vidx(i, j)] = c + a * (l + r + d + t - 4.0 * c);
    }
  });
  for (int i = 0; i < nx; ++i) {
    v_tmp_[vidx(i, 0)] = v_[vidx(i, 0)];
    v_tmp_[vidx(i, ny)] = v_[vidx(i, ny)];
  }
  u_.swap(u_tmp_);
  v_.swap(v_tmp_);
}

void CfdSolver::project(double dt) {
  const int nx = config_.nx, ny = config_.ny;
  const double scale = dx_ / dt;  // rhs scaling folded into p units
  std::vector<double> rhs(nx * ny, 0.0);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (solid(i, j)) continue;
      rhs[cidx(i, j)] = -scale * (u_[uidx(i + 1, j)] - u_[uidx(i, j)] +
                                  v_[vidx(i, j + 1)] - v_[vidx(i, j)]);
    }
  }
  // Red-black SOR so sweeps parallelize without races.
  for (int iter = 0; iter < config_.pressure_iters; ++iter) {
    for (int color = 0; color < 2; ++color) {
      exec::parallel_for(ny, true, [&](std::int64_t row) {
        const int j = static_cast<int>(row);
        for (int i = (j + color) & 1; i < nx; i += 2) {
          if (solid(i, j)) continue;
          // Outflow column holds p = 0 (Dirichlet) so pressure is anchored.
          if (type_[cidx(i, j)] == CellType::Outflow) {
            p_[cidx(i, j)] = 0.0;
            continue;
          }
          double diag = 0.0, off = 0.0;
          // Neumann at walls/solids (skip), Dirichlet handled via neighbor.
          auto acc = [&](int ii, int jj) {
            if (ii < 0 || jj < 0 || jj >= ny) return;  // wall: dp/dn = 0
            if (ii >= nx) return;
            if (solid(ii, jj)) return;
            diag += 1.0;
            off += p_[cidx(ii, jj)];
          };
          acc(i - 1, j);
          acc(i + 1, j);
          acc(i, j - 1);
          acc(i, j + 1);
          if (i == 0) diag += 0.0;  // inflow: velocity prescribed, dp/dn = 0
          if (diag == 0.0) continue;
          const double p_new = (off + rhs[cidx(i, j)]) / diag;
          p_[cidx(i, j)] =
              p_[cidx(i, j)] +
              config_.sor_omega * (p_new - p_[cidx(i, j)]);
        }
      });
    }
  }
  // Velocity correction u -= dt/dx ∇p (with the scale folding, u -= Δp/scale).
  exec::parallel_for(ny, true, [&](std::int64_t row) {
    const int j = static_cast<int>(row);
    for (int i = 1; i < nx; ++i) {
      if (solid(i - 1, j) || solid(i, j)) continue;
      u_[uidx(i, j)] -= (p_[cidx(i, j)] - p_[cidx(i - 1, j)]) / scale;
    }
  });
  exec::parallel_for(ny - 1, true, [&](std::int64_t row) {
    const int j = static_cast<int>(row) + 1;
    for (int i = 0; i < nx; ++i) {
      if (solid(i, j - 1) || solid(i, j)) continue;
      v_[vidx(i, j)] -= (p_[cidx(i, j)] - p_[cidx(i, j - 1)]) / scale;
    }
  });
}

double CfdSolver::step() {
  double dt = config_.dt;
  if (dt <= 0.0) {
    double vmax = config_.inflow;
    for (double uu : u_) vmax = std::max(vmax, std::abs(uu));
    for (double vv : v_) vmax = std::max(vmax, std::abs(vv));
    dt = config_.cfl * dx_ / vmax;
  }
  advect(dt);
  diffuse(dt);
  apply_velocity_bc(u_, v_);
  project(dt);
  apply_velocity_bc(u_, v_);
  time_ += dt;
  return dt;
}

std::vector<double> CfdSolver::sample_cell_velocities() const {
  const int nx = config_.nx, ny = config_.ny;
  std::vector<double> out(2 * nx * ny, 0.0);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const int c = cidx(i, j);
      out[2 * c] = 0.5 * (u_[uidx(i, j)] + u_[uidx(i + 1, j)]);
      out[2 * c + 1] = 0.5 * (v_[vidx(i, j)] + v_[vidx(i, j + 1)]);
    }
  }
  return out;
}

double CfdSolver::max_divergence() const {
  const int nx = config_.nx, ny = config_.ny;
  double worst = 0.0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (type_[cidx(i, j)] != CellType::Fluid) continue;
      const double div = (u_[uidx(i + 1, j)] - u_[uidx(i, j)] +
                          v_[vidx(i, j + 1)] - v_[vidx(i, j)]) /
                         dx_;
      worst = std::max(worst, std::abs(div));
    }
  }
  return worst;
}

double CfdSolver::wake_probe() const {
  // One diameter downstream of the cylinder, on the centerline.
  const double x = config_.cylinder_x + 3.0 * config_.cylinder_r;
  const double y = config_.cylinder_y * height();
  return sample_v(x, y);
}

CfdRollout run_rollout(CfdSolver& solver, int frames, int substeps) {
  GNS_CHECK(frames > 0 && substeps > 0);
  CfdRollout out;
  out.velocity_frames.reserve(frames);
  double frame_time = 0.0;
  for (int f = 0; f < frames; ++f) {
    out.velocity_frames.push_back(solver.sample_cell_velocities());
    out.probe_series.push_back(solver.wake_probe());
    for (int s = 0; s < substeps; ++s) frame_time += solver.step();
  }
  out.frame_dt = frame_time / frames;
  return out;
}

double dominant_frequency(const std::vector<double>& series,
                          double sample_dt) {
  if (series.size() < 4 || sample_dt <= 0.0) return 0.0;
  double mean = 0.0;
  for (double s : series) mean += s;
  mean /= static_cast<double>(series.size());
  int crossings = 0;
  for (std::size_t i = 1; i < series.size(); ++i) {
    const double a = series[i - 1] - mean;
    const double b = series[i] - mean;
    if ((a < 0.0 && b >= 0.0) || (a > 0.0 && b <= 0.0)) ++crossings;
  }
  const double duration = sample_dt * static_cast<double>(series.size() - 1);
  // Two crossings per period.
  return crossings / (2.0 * duration);
}

}  // namespace gns::cfd
