#include <algorithm>
#include <cmath>
#include <limits>

#include "ad/ops.hpp"
#include "exec/parallel_for.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

// Graph ops with runtime-dispatched SIMD row kernels + CSR-parallel
// reductions.
//
// Contract (same as the fused kernels in ops_matmul.cpp): every
// cross-row reduction is parallelized per *destination* with the CSR
// transpose in ad::IndexMap, and each destination adds its entries in
// ascending original index — the order of a serial pass over the
// entries — so the result bytes do not depend on the thread count.
// GNS_SIMD picks only the simd:: leaf kernels (scalar or AVX2, bitwise
// alike); the loop structure is the same either way. tests/
// test_ops_graph.cpp keeps the serial loops as the bitwise reference.
// See DESIGN.md §12.

namespace gns::ad {

namespace {

/// Shared OMP guard: parallelize only when the touched data outgrows the
/// fork/join cost (same 1<<15 element threshold as the legacy loops).
inline bool parallel_worthwhile(std::int64_t rows, std::int64_t cols) {
  return rows * cols > (std::int64_t{1} << 15);
}

}  // namespace

Tensor concat_cols(const std::vector<Tensor>& parts) {
  GNS_CHECK_MSG(!parts.empty(), "concat_cols of zero tensors");
  const int n = parts.front().rows();
  int total_cols = 0;
  std::vector<TensorImplPtr> parents;
  parents.reserve(parts.size());
  std::vector<int> offsets;
  offsets.reserve(parts.size());
  for (const auto& p : parts) {
    GNS_CHECK_MSG(p.rows() == n, "concat_cols row mismatch: " << p.rows()
                                                              << " vs " << n);
    offsets.push_back(total_cols);
    total_cols += p.cols();
    parents.push_back(p.ptr());
  }
  auto parents_copy = parents;
  auto offsets_copy = offsets;
  const int m = total_cols;
  Tensor out = make_op_result(
      n, m, std::move(parents),
      [parents_copy, offsets_copy, n, m](TensorImpl& self) {
        // Each (part, row) grad slice is an independent target, so the
        // row-parallel order is bitwise-irrelevant; ensure_grad happens
        // up front, outside the parallel region.
        bool any = false;
        for (auto& p : parents_copy)
          if (p->requires_grad) {
            p->ensure_grad();
            any = true;
          }
        if (!any) return;
        const int parts_n = static_cast<int>(parents_copy.size());
        exec::parallel_for(n, parallel_worthwhile(n, m), [&](std::int64_t i) {
          const Real* grow = self.grad.data() + static_cast<std::size_t>(i) * m;
          for (int k = 0; k < parts_n; ++k) {
            auto& p = parents_copy[k];
            if (!p->requires_grad) continue;
            const int pc = p->cols;
            simd::accumulate(p->grad.data() + static_cast<std::size_t>(i) * pc,
                             grow + offsets_copy[k],
                             static_cast<std::size_t>(pc));
          }
        });
      });
  Real* ov = out.data();
  std::vector<const Real*> srcs(parts.size());
  std::vector<int> cols(parts.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    srcs[k] = parts[k].data();
    cols[k] = parts[k].cols();
  }
  const int parts_n = static_cast<int>(parts.size());
  exec::parallel_for(n, parallel_worthwhile(n, m), [&](std::int64_t i) {
    Real* orow = ov + static_cast<std::size_t>(i) * m;
    for (int k = 0; k < parts_n; ++k)
      simd::copy(orow + offsets[k],
                 srcs[k] + static_cast<std::size_t>(i) * cols[k],
                 static_cast<std::size_t>(cols[k]));
  });
  return out;
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  GNS_CHECK_MSG(!parts.empty(), "concat_rows of zero tensors");
  const int m = parts.front().cols();
  int total_rows = 0;
  std::vector<TensorImplPtr> parents;
  std::vector<int> offsets;
  for (const auto& p : parts) {
    GNS_CHECK_MSG(p.cols() == m, "concat_rows column mismatch: " << p.cols()
                                                                 << " vs "
                                                                 << m);
    offsets.push_back(total_rows);
    total_rows += p.rows();
    parents.push_back(p.ptr());
  }
  auto parents_copy = parents;
  auto offsets_copy = offsets;
  Tensor out = make_op_result(
      total_rows, m, std::move(parents),
      [parents_copy, offsets_copy, m](TensorImpl& self) {
        for (std::size_t k = 0; k < parents_copy.size(); ++k) {
          auto& p = parents_copy[k];
          if (!p->requires_grad) continue;
          p->ensure_grad();
          const std::size_t count =
              static_cast<std::size_t>(p->rows) * m;
          const Real* src = self.grad.data() +
                            static_cast<std::size_t>(offsets_copy[k]) * m;
          simd::accumulate(p->grad.data(), src, count);
        }
      });
  Real* ov = out.data();
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const auto& v = parts[k].vec();
    std::copy(v.begin(), v.end(),
              ov + static_cast<std::size_t>(offsets[k]) * m);
  }
  return out;
}

Tensor slice_cols(const Tensor& a, int start, int len) {
  GNS_CHECK_MSG(start >= 0 && len > 0 && start + len <= a.cols(),
                "slice_cols out of range: [" << start << ", " << start + len
                                             << ") of " << a.cols());
  const int n = a.rows(), m = a.cols();
  auto pa = a.ptr();
  Tensor out = make_op_result(
      n, len, {pa}, [pa, start, len, n, m](TensorImpl& self) {
        if (!pa->requires_grad) return;
        pa->ensure_grad();
        for (int i = 0; i < n; ++i)
          simd::accumulate(
              pa->grad.data() + static_cast<std::size_t>(i) * m + start,
              self.grad.data() + static_cast<std::size_t>(i) * len,
              static_cast<std::size_t>(len));
      });
  const Real* av = a.data();
  Real* ov = out.data();
  for (int i = 0; i < n; ++i)
    simd::copy(ov + static_cast<std::size_t>(i) * len,
               av + static_cast<std::size_t>(i) * m + start,
               static_cast<std::size_t>(len));
  return out;
}

Tensor slice_rows(const Tensor& a, int start, int len) {
  GNS_CHECK_MSG(start >= 0 && len > 0 && start + len <= a.rows(),
                "slice_rows out of range: [" << start << ", " << start + len
                                             << ") of " << a.rows());
  const int m = a.cols();
  auto pa = a.ptr();
  Tensor out = make_op_result(
      len, m, {pa}, [pa, start, len, m](TensorImpl& self) {
        if (!pa->requires_grad) return;
        pa->ensure_grad();
        Real* dst = pa->grad.data() + static_cast<std::size_t>(start) * m;
        const std::size_t count = static_cast<std::size_t>(len) * m;
        simd::accumulate(dst, self.grad.data(), count);
      });
  const Real* src = a.data() + static_cast<std::size_t>(start) * m;
  std::copy(src, src + static_cast<std::size_t>(len) * m, out.data());
  return out;
}

Tensor gather_rows(const Tensor& a, const IndexMap& index) {
  GNS_TRACE_SCOPE("ad.ops.gather_rows");
  GNS_CHECK_MSG(index.defined(), "gather_rows with undefined IndexMap");
  GNS_CHECK_MSG(index.size() > 0, "gather_rows with empty index");
  GNS_CHECK_MSG(index.num_buckets() == a.rows(),
                "gather_rows IndexMap built for " << index.num_buckets()
                                                  << " rows, tensor has "
                                                  << a.rows());
  index.dcheck_valid();
  const int m = a.cols();
  const int e = index.size();
  auto pa = a.ptr();
  IndexMap im = index;
  Tensor out = make_op_result(
      e, m, {pa}, [pa, im, e, m](TensorImpl& self) {
        if (!pa->requires_grad) return;
        pa->ensure_grad();
        // CSR-parallel per-destination reduction: destination row b
        // accumulates its incident edge rows in ascending original index,
        // with each destination owned by exactly one thread (bitwise
        // thread-invariant; repeated indices make a per-edge parallel
        // accumulation racy).
        const int nb = im.num_buckets();
        const int* off = im.offsets();
        const int* pos = im.positions();
        exec::parallel_for(nb, parallel_worthwhile(e, m), [&](std::int64_t b) {
          Real* dst = pa->grad.data() + static_cast<std::size_t>(b) * m;
          for (int p = off[b]; p < off[b + 1]; ++p)
            simd::accumulate(
                dst, self.grad.data() + static_cast<std::size_t>(pos[p]) * m,
                static_cast<std::size_t>(m));
        });
      });
  const Real* av = a.data();
  Real* ov = out.data();
  const std::vector<int>& idx = index.index();
  exec::parallel_for(e, parallel_worthwhile(e, m), [&](std::int64_t i) {
    simd::copy(ov + static_cast<std::size_t>(i) * m,
               av + static_cast<std::size_t>(idx[i]) * m,
               static_cast<std::size_t>(m));
  });
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<int>& index) {
  GNS_CHECK_MSG(!index.empty(), "gather_rows with empty index");
  // The ephemeral IndexMap performs the bounds validation (CheckError on
  // the first out-of-range entry). Hot callers build the map once per
  // graph instead (core::GraphIndex) and use the overload above.
  return gather_rows(a, IndexMap(index, a.rows()));
}

Tensor scatter_add_rows(const Tensor& a, const IndexMap& index) {
  GNS_TRACE_SCOPE("ad.ops.scatter_add_rows");
  GNS_CHECK_MSG(index.defined(), "scatter_add_rows with undefined IndexMap");
  GNS_CHECK_MSG(index.size() == a.rows(),
                "scatter_add_rows needs one index per input row");
  index.dcheck_valid();
  const int e = a.rows(), m = a.cols();
  const int num_rows = index.num_buckets();
  auto pa = a.ptr();
  IndexMap im = index;
  Tensor out = make_op_result(
      num_rows, m, {pa}, [pa, im, e, m](TensorImpl& self) {
        if (!pa->requires_grad) return;
        pa->ensure_grad();
        // Backward of scatter-add is a gather: embarrassingly parallel.
        const std::vector<int>& idx = im.index();
        exec::parallel_for(e, parallel_worthwhile(e, m), [&](std::int64_t i) {
          simd::accumulate(
              pa->grad.data() + static_cast<std::size_t>(i) * m,
              self.grad.data() + static_cast<std::size_t>(idx[i]) * m,
              static_cast<std::size_t>(m));
        });
      });
  std::fill(out.vec().begin(), out.vec().end(), Real(0));
  const Real* av = a.data();
  Real* ov = out.data();
  // CSR-parallel forward: output row b sums its inputs in ascending
  // original index (independently of the thread count — each b has one
  // owner).
  const int* off = im.offsets();
  const int* pos = im.positions();
  exec::parallel_for(num_rows, parallel_worthwhile(e, m), [&](std::int64_t b) {
    Real* dst = ov + static_cast<std::size_t>(b) * m;
    for (int p = off[b]; p < off[b + 1]; ++p)
      simd::accumulate(dst, av + static_cast<std::size_t>(pos[p]) * m,
                       static_cast<std::size_t>(m));
  });
  return out;
}

Tensor scatter_add_rows(const Tensor& a, const std::vector<int>& index,
                        int num_rows) {
  GNS_CHECK_MSG(static_cast<int>(index.size()) == a.rows(),
                "scatter_add_rows needs one index per input row");
  GNS_CHECK(num_rows > 0);
  return scatter_add_rows(a, IndexMap(index, num_rows));
}

Tensor segment_softmax(const Tensor& scores, const IndexMap& segment) {
  GNS_CHECK_MSG(scores.cols() == 1, "segment_softmax expects [E,1] scores");
  GNS_CHECK_MSG(segment.defined(), "segment_softmax with undefined IndexMap");
  GNS_CHECK_MSG(segment.size() == scores.rows(),
                "segment_softmax needs one segment id per score");
  segment.dcheck_valid();
  const int e = scores.rows();
  const int num_segments = segment.num_buckets();
  auto pa = scores.ptr();
  IndexMap im = segment;
  Tensor out = make_op_result(
      e, 1, {pa}, [pa, im, e, num_segments](TensorImpl& self) {
        if (!pa->requires_grad) return;
        pa->ensure_grad();
        // d softmax_i / d score_j (same segment) = y_i (δ_ij − y_j).
        // Per-segment, CSR-parallel: the dot reduction visits the
        // segment's entries in ascending original index.
        const int* off = im.offsets();
        const int* pos = im.positions();
        exec::parallel_for(num_segments, parallel_worthwhile(e, 8),
                           [&](std::int64_t s) {
          Real dot = Real(0);
          for (int p = off[s]; p < off[s + 1]; ++p) {
            const int i = pos[p];
            dot += self.grad[i] * self.data[i];
          }
          for (int p = off[s]; p < off[s + 1]; ++p) {
            const int i = pos[p];
            pa->grad[i] += self.data[i] * (self.grad[i] - dot);
          }
        });
      });
  const Real* sv = scores.data();
  Real* ov = out.data();
  // Numerically-stable per-segment forward (subtract the segment max):
  // max / exp-sum / normalize walk each segment's entries in ascending
  // original index, and each segment has one owner.
  const int* off = segment.offsets();
  const int* pos = segment.positions();
  exec::parallel_for(num_segments, parallel_worthwhile(e, 8),
                     [&](std::int64_t s) {
    Real seg_max = -std::numeric_limits<Real>::infinity();
    for (int p = off[s]; p < off[s + 1]; ++p)
      seg_max = std::max(seg_max, sv[pos[p]]);
    Real seg_sum = Real(0);
    for (int p = off[s]; p < off[s + 1]; ++p) {
      const int i = pos[p];
      ov[i] = std::exp(sv[i] - seg_max);
      seg_sum += ov[i];
    }
    for (int p = off[s]; p < off[s + 1]; ++p) ov[pos[p]] /= seg_sum;
  });
  return out;
}

Tensor segment_softmax(const Tensor& scores, const std::vector<int>& segment,
                       int num_segments) {
  GNS_CHECK_MSG(static_cast<int>(segment.size()) == scores.rows(),
                "segment_softmax needs one segment id per score");
  GNS_CHECK(num_segments > 0);
  return segment_softmax(scores, IndexMap(segment, num_segments));
}

Tensor radius_edge_features(const Tensor& positions, const IndexMap& senders,
                            const IndexMap& receivers, Real inv_radius,
                            Real eps) {
  GNS_TRACE_SCOPE("ad.ops.radius_edge_features");
  GNS_CHECK_MSG(senders.defined() && receivers.defined(),
                "radius_edge_features with undefined IndexMap");
  GNS_CHECK_MSG(senders.size() == receivers.size(),
                "senders/receivers length mismatch");
  GNS_CHECK_MSG(senders.size() > 0, "radius_edge_features with no edges");
  GNS_CHECK_MSG(senders.num_buckets() == positions.rows() &&
                    receivers.num_buckets() == positions.rows(),
                "radius_edge_features IndexMaps must cover positions rows");
  senders.dcheck_valid();
  receivers.dcheck_valid();
  const int e = senders.size();
  const int d = positions.cols();
  const int m = d + 1;
  auto pp = positions.ptr();
  IndexMap smap = senders;
  IndexMap rmap = receivers;
  Tensor out = make_op_result(
      e, m, {pp}, [pp, smap, rmap, e, d, m, inv_radius](TensorImpl& self) {
        if (!pp->requires_grad) return;
        pp->ensure_grad();
        // d out / d positions, per edge, into scratch (disp columns read
        // back from the forward output: out[:, j] = disp_j, out[:, d] =
        // dist), then scattered ± per endpoint through the CSR maps so
        // every node grad row has exactly one writer.
        std::vector<Real> dd(static_cast<std::size_t>(e) * d);
        exec::parallel_for(e, parallel_worthwhile(e, m), [&](std::int64_t i) {
          const Real* orow = self.data.data() + static_cast<std::size_t>(i) * m;
          const Real* grow = self.grad.data() + static_cast<std::size_t>(i) * m;
          const Real y = orow[d];
          const Real dnorm2 = grow[d] * (y > 0 ? Real(0.5) / y : Real(0));
          for (int j = 0; j < d; ++j)
            dd[static_cast<std::size_t>(i) * d + j] =
                (grow[j] + dnorm2 * (2 * orow[j])) * inv_radius;
        });
        const int nb = rmap.num_buckets();
        const int* roff = rmap.offsets();
        const int* rpos = rmap.positions();
        const int* soff = smap.offsets();
        const int* spos = smap.positions();
        exec::parallel_for(nb, parallel_worthwhile(e, m), [&](std::int64_t b) {
          Real* g = pp->grad.data() + static_cast<std::size_t>(b) * d;
          for (int p = roff[b]; p < roff[b + 1]; ++p) {
            const Real* src = dd.data() + static_cast<std::size_t>(rpos[p]) * d;
            for (int j = 0; j < d; ++j) g[j] += src[j];
          }
          for (int p = soff[b]; p < soff[b + 1]; ++p) {
            const Real* src = dd.data() + static_cast<std::size_t>(spos[p]) * d;
            for (int j = 0; j < d; ++j) g[j] -= src[j];
          }
        });
      });
  // Fused forward, element-for-element the chain
  //   disp = (gather(x, recv) - gather(x, send)) * inv_radius
  //   dist = sqrt(sum_cols(square(disp)) + eps)
  //   out  = concat_cols({disp, dist})
  // in the same order (ascending-j sum from a zero accumulator), so the
  // fusion is bitwise invisible. Row-local → trivially thread-invariant.
  const Real* xv = positions.data();
  Real* ov = out.data();
  const std::vector<int>& sidx = senders.index();
  const std::vector<int>& ridx = receivers.index();
  exec::parallel_for(e, parallel_worthwhile(e, m), [&](std::int64_t i) {
    const Real* xs = xv + static_cast<std::size_t>(sidx[i]) * d;
    const Real* xr = xv + static_cast<std::size_t>(ridx[i]) * d;
    Real* orow = ov + static_cast<std::size_t>(i) * m;
    Real acc = Real(0);
    for (int j = 0; j < d; ++j) {
      const Real t = (xr[j] - xs[j]) * inv_radius;
      orow[j] = t;
      acc += t * t;
    }
    orow[d] = std::sqrt(acc + eps);
  });
  return out;
}

Tensor layer_norm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                  Real eps) {
  const int n = a.rows(), m = a.cols();
  GNS_CHECK_MSG(gamma.rows() == 1 && gamma.cols() == m &&
                    beta.rows() == 1 && beta.cols() == m,
                "layer_norm affine params must be [1,C]");
  auto pa = a.ptr();
  auto pg = gamma.ptr();
  auto pb = beta.ptr();
  Tensor out = make_op_result(
      n, m, {pa, pg, pb}, [pa, pg, pb, n, m, eps](TensorImpl& self) {
        const bool need_a = pa->requires_grad;
        const bool need_g = pg->requires_grad;
        const bool need_b = pb->requires_grad;
        if (!(need_a || need_g || need_b)) return;
        if (need_a) pa->ensure_grad();
        if (need_g) pg->ensure_grad();
        if (need_b) pb->ensure_grad();
        const Real* av = pa->data.data();
        const Real* gv = pg->data.data();
        std::vector<Real> xhat(m);
        // Rows are independent but gamma/beta grads are shared; keep the
        // loop serial (n·m is small on the GNS's per-layer tensors).
        for (int i = 0; i < n; ++i) {
          const Real* x = av + static_cast<std::size_t>(i) * m;
          const Real* go = self.grad.data() + static_cast<std::size_t>(i) * m;
          Real mu = Real(0);
          for (int j = 0; j < m; ++j) mu += x[j];
          mu /= m;
          Real var = Real(0);
          for (int j = 0; j < m; ++j) var += (x[j] - mu) * (x[j] - mu);
          var /= m;
          const Real inv_s = Real(1) / std::sqrt(var + eps);
          for (int j = 0; j < m; ++j) xhat[j] = (x[j] - mu) * inv_s;
          if (need_g || need_b) {
            for (int j = 0; j < m; ++j) {
              if (need_g) pg->grad[j] += go[j] * xhat[j];
              if (need_b) pb->grad[j] += go[j];
            }
          }
          if (need_a) {
            Real mean_gp = Real(0), mean_gpx = Real(0);
            for (int j = 0; j < m; ++j) {
              const Real gp = go[j] * gv[j];
              mean_gp += gp;
              mean_gpx += gp * xhat[j];
            }
            mean_gp /= m;
            mean_gpx /= m;
            Real* ga = pa->grad.data() + static_cast<std::size_t>(i) * m;
            for (int j = 0; j < m; ++j) {
              const Real gp = go[j] * gv[j];
              ga[j] += inv_s * (gp - mean_gp - xhat[j] * mean_gpx);
            }
          }
        }
      });
  const Real* av = a.data();
  const Real* gv = gamma.data();
  const Real* bv = beta.data();
  Real* ov = out.data();
  exec::parallel_for(n, parallel_worthwhile(n, m), [&](std::int64_t i) {
    layer_norm_row(av + static_cast<std::size_t>(i) * m, gv, bv, eps,
                   ov + static_cast<std::size_t>(i) * m, m);
  });
  return out;
}

void layer_norm_row(const Real* x, const Real* gamma, const Real* beta,
                    Real eps, Real* y, int m) {
  // The mu/var reductions stay scalar — vectorizing a sum reassociates
  // it; only the per-element affine pass below is SIMD.
  Real mu = Real(0);
  for (int j = 0; j < m; ++j) mu += x[j];
  mu /= m;
  Real var = Real(0);
  for (int j = 0; j < m; ++j) var += (x[j] - mu) * (x[j] - mu);
  var /= m;
  const Real inv_s = Real(1) / std::sqrt(var + eps);
  simd::norm_affine(y, x, gamma, beta, mu, inv_s, static_cast<std::size_t>(m));
}

}  // namespace gns::ad
