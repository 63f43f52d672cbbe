#pragma once

/// \file shape.hpp
/// MPM shape functions: linear hat (support 2 nodes per axis) and quadratic
/// B-spline (support 3 nodes per axis, C1-continuous — eliminates the
/// cell-crossing noise of linear elements; CB-Geo MPM exposes the same
/// choice). Weights come in 1-D and combine by tensor product.

#include <array>
#include <cmath>

#include "mpm/types.hpp"
#include "util/check.hpp"

namespace gns::mpm {

enum class ShapeKind { Linear, QuadraticBSpline };

/// Per-axis weights/derivatives of one particle against its supporting
/// nodes. `base` is the lowest supporting node index; entries beyond
/// `count` are zero.
struct ShapeWeights1D {
  int base = 0;
  int count = 0;
  std::array<double, 3> w{};
  std::array<double, 3> dw{};  ///< d w / d x (physical units, 1/h)
};

/// Linear hat functions: particle in cell [i, i+1].
inline ShapeWeights1D linear_weights(double x_over_h) {
  ShapeWeights1D s;
  const int i = static_cast<int>(std::floor(x_over_h));
  const double fx = x_over_h - i;
  s.base = i;
  s.count = 2;
  s.w = {1.0 - fx, fx, 0.0};
  s.dw = {-1.0, 1.0, 0.0};
  return s;
}

/// Quadratic B-spline centered stencil: nodes i-1, i, i+1 where i is the
/// nearest node.
inline ShapeWeights1D bspline_weights(double x_over_h) {
  ShapeWeights1D s;
  const int i = static_cast<int>(std::floor(x_over_h + 0.5));
  const double fx = x_over_h - i;  // in [-0.5, 0.5)
  s.base = i - 1;
  s.count = 3;
  s.w = {0.5 * (0.5 - fx) * (0.5 - fx), 0.75 - fx * fx,
         0.5 * (0.5 + fx) * (0.5 + fx)};
  s.dw = {fx - 0.5, -2.0 * fx, fx + 0.5};
  return s;
}

/// Dispatcher. `x` is the physical coordinate, `h` the grid spacing;
/// derivative entries are returned in physical units (divided by h).
inline ShapeWeights1D shape_weights(ShapeKind kind, double x, double h) {
  GNS_DCHECK(h > 0.0);
  ShapeWeights1D s = (kind == ShapeKind::Linear)
                         ? linear_weights(x / h)
                         : bspline_weights(x / h);
  for (auto& d : s.dw) d /= h;
  return s;
}

/// Batch size of the SoA weight evaluation below (and of the solver's
/// chunked transfer loops). 128 coordinates keep the whole batch + both
/// axis results comfortably in L1.
inline constexpr int kShapeBatch = 128;

/// SoA per-axis weights for a contiguous batch of coordinates. Entry i
/// carries exactly the numbers shape_weights(kind, x[i], h) would return:
/// w[k][i] / dw[k][i] (physical units) for stencil offset k, and base[i].
struct ShapeWeightsBatch {
  alignas(32) double w[3][kShapeBatch];
  alignas(32) double dw[3][kShapeBatch];
  alignas(32) int base[kShapeBatch];
};

/// Evaluates shape_weights for x[0..count) (count <= kShapeBatch) into
/// `out`. The quadratic B-spline path has an AVX2 twin (runtime-dispatched
/// via gns::simd) that is bitwise identical to the scalar reference: div /
/// floor / mul / add are all single correctly-rounded IEEE ops, applied in
/// the same order per lane.
void shape_weights_batch(ShapeKind kind, const double* x, int count, double h,
                         ShapeWeightsBatch& out);

/// Both axes' weights of points[0..count) (count <= kShapeBatch): the
/// coordinates go to SoA scratch, then one shape_weights_batch call per
/// axis. The MPM transfers call this once per particle chunk.
void shape_weights_batch(ShapeKind kind, const Vec2d* points, int count,
                         double h, ShapeWeightsBatch& wx,
                         ShapeWeightsBatch& wy);

}  // namespace gns::mpm
