#include "mpm/p2g.hpp"

#include <algorithm>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define GNS_MPM_AVX2_KERNEL 1
#endif

#include "util/simd.hpp"

namespace gns::mpm {

P2gLane::P2gLane(int num_nodes) {
  const std::size_t n = static_cast<std::size_t>(num_nodes);
  const std::size_t nblocks =
      (n + (std::size_t{1} << kP2gBlockShift) - 1) >> kP2gBlockShift;
  mass.assign(n, 0.0);
  rec.assign(4 * n, 0.0);
  // Stamps start at 0, behind every step's epoch: all blocks are stale.
  block_epoch.assign(nblocks, 0);
}

namespace {

/// The chunk's weights and stencil width, shared by both leaves.
struct Chunk {
  ShapeWeightsBatch wx, wy;
  int scount = 0;
};

/// Zeroes and stamps block `blk` of `lane` if this step has not touched it.
inline void touch_block(P2gLane& lane, int blk, std::uint64_t epoch) {
  if (lane.block_epoch[blk] == epoch) return;
  const std::size_t lo = static_cast<std::size_t>(blk) << kP2gBlockShift;
  const std::size_t len = std::min(std::size_t{1} << kP2gBlockShift,
                                   lane.mass.size() - lo);
  std::fill_n(lane.mass.begin() + lo, len, 0.0);
  std::fill_n(lane.rec.begin() + 4 * lo, 4 * len, 0.0);
  lane.block_epoch[blk] = epoch;
}

/// Stencil row iy of particle j: its nodes are base + b for b in
/// [lo, hi), the part of the stencil inside the grid.
struct Row {
  int base, lo, hi;
};

/// Returns row iy of particle j after stamping its blocks. A row spans
/// at most 3 consecutive nodes, so it can straddle two blocks: stamp the
/// blocks of its first and last node.
inline Row stamp_row(const Chunk& ch, const P2gGrid& g, int j, int iy,
                     P2gLane& lane) {
  const int ix0 = ch.wx.base[j];
  const Row row{iy * g.nodes_x + ix0, std::max(0, -ix0),
                std::min(ch.scount, g.nodes_x - ix0)};
  if (row.lo < row.hi) {
    touch_block(lane, (row.base + row.lo) >> kP2gBlockShift, g.epoch);
    touch_block(lane, (row.base + row.hi - 1) >> kP2gBlockShift, g.epoch);
  }
  return row;
}

void scatter_scalar(const Particles& particles, int begin, int count,
                    const P2gGrid& g, const Chunk& ch, P2gLane& lane) {
  double* mass = lane.mass.data();
  double* rec = lane.rec.data();
  for (int j = 0; j < count; ++j) {
    const int p = begin + j;
    const Vec2d v = particles.velocity[p];
    const double m = particles.mass[p];
    const double vol = particles.volume[p];
    const SymTensor2& s = particles.stress[p];
    for (int a = 0; a < ch.scount; ++a) {
      const int iy = ch.wy.base[j] + a;
      if (iy < 0 || iy >= g.nodes_y) continue;
      const double wya = ch.wy.w[a][j];
      const double dwya = ch.wy.dw[a][j];
      const Row row = stamp_row(ch, g, j, iy, lane);
      for (int b = row.lo; b < row.hi; ++b) {
        const int node = row.base + b;
        const double w = ch.wx.w[b][j] * wya;
        const double dwx = ch.wx.dw[b][j] * wya;
        const double dwy = ch.wx.w[b][j] * dwya;
        double* r = rec + 4 * static_cast<std::size_t>(node);
        mass[node] += w * m;
        r[0] += w * m * v.x;
        r[1] += w * m * v.y;
        // Internal force: f -= V σ ∇N. Gravity: f += m g N.
        r[2] += -vol * (s.xx * dwx + s.xy * dwy) + w * m * g.gravity.x;
        r[3] += -vol * (s.xy * dwx + s.yy * dwy) + w * m * g.gravity.y;
      }
    }
  }
}

#ifdef GNS_MPM_AVX2_KERNEL

/// scatter_scalar with one 4-wide record add per node. Lanes 0–1 carry
/// (w·m)·v, lanes 2–3 (−V)·(σ·∇N) + (w·m)·g: the scalar expressions'
/// operations in their association (the unused lanes 0–1 of the force
/// term are discarded by the blend).
__attribute__((target("avx2"))) void scatter_avx2(
    const Particles& particles, int begin, int count, const P2gGrid& g,
    const Chunk& ch, P2gLane& lane) {
  double* mass = lane.mass.data();
  double* rec = lane.rec.data();
  for (int j = 0; j < count; ++j) {
    const int p = begin + j;
    const Vec2d v = particles.velocity[p];
    const double m = particles.mass[p];
    const SymTensor2& s = particles.stress[p];
    const __m256d vg = _mm256_setr_pd(v.x, v.y, g.gravity.x, g.gravity.y);
    const __m256d s1 = _mm256_setr_pd(s.xx, s.xy, s.xx, s.xy);
    const __m256d s2 = _mm256_setr_pd(s.xy, s.yy, s.xy, s.yy);
    const __m256d nvol = _mm256_set1_pd(-particles.volume[p]);
    for (int a = 0; a < ch.scount; ++a) {
      const int iy = ch.wy.base[j] + a;
      if (iy < 0 || iy >= g.nodes_y) continue;
      const double wya = ch.wy.w[a][j];
      const double dwya = ch.wy.dw[a][j];
      const Row row = stamp_row(ch, g, j, iy, lane);
      for (int b = row.lo; b < row.hi; ++b) {
        const int node = row.base + b;
        const double w = ch.wx.w[b][j] * wya;
        const double wm = w * m;
        const __m256d dwx = _mm256_set1_pd(ch.wx.dw[b][j] * wya);
        const __m256d dwy = _mm256_set1_pd(ch.wx.w[b][j] * dwya);
        const __m256d mv = _mm256_mul_pd(_mm256_set1_pd(wm), vg);
        const __m256d f = _mm256_add_pd(
            _mm256_mul_pd(nvol, _mm256_add_pd(_mm256_mul_pd(s1, dwx),
                                              _mm256_mul_pd(s2, dwy))),
            mv);
        double* r = rec + 4 * static_cast<std::size_t>(node);
        _mm256_storeu_pd(r, _mm256_add_pd(_mm256_loadu_pd(r),
                                          _mm256_blend_pd(mv, f, 0b1100)));
        mass[node] += wm;
      }
    }
  }
}

#endif  // GNS_MPM_AVX2_KERNEL

}  // namespace

void p2g_scatter(const Particles& particles, int begin, int count,
                 const P2gGrid& grid, P2gLane& lane) {
  Chunk ch;
  ch.scount = (grid.shape == ShapeKind::Linear) ? 2 : 3;
  shape_weights_batch(grid.shape, particles.position.data() + begin, count,
                      grid.spacing, ch.wx, ch.wy);
#ifdef GNS_MPM_AVX2_KERNEL
  if (simd::active()) {
    scatter_avx2(particles, begin, count, grid, ch, lane);
    return;
  }
#endif
  scatter_scalar(particles, begin, count, grid, ch, lane);
}

}  // namespace gns::mpm
