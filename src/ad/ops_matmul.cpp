#include <cmath>
#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "ad/ops.hpp"
#include "exec/parallel_for.hpp"
#include "obs/trace.hpp"

namespace gns::ad {

namespace {

/// Straightforward cache-friendly (i,k,j) GEMM: C += A[NxK] * B[KxM].
/// Parallel over output rows when the problem is large enough to amortize
/// the fork/join.
void gemm_acc(const Real* a, const Real* b, Real* c, int n, int k, int m) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  exec::parallel_for(n, work > 1 << 16, [&](std::int64_t row) {
    const int i = static_cast<int>(row);
    Real* crow = c + static_cast<std::size_t>(i) * m;
    const Real* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const Real av = arow[p];
      if (av == Real(0)) continue;
      const Real* brow = b + static_cast<std::size_t>(p) * m;
      for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  });
}

/// C += A^T[KxN]^T... specifically: grad_a[NxK] += grad_out[NxM] * B^T[MxK].
void gemm_nt_acc(const Real* go, const Real* b, Real* ga, int n, int m,
                 int k) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  exec::parallel_for(n, work > 1 << 16, [&](std::int64_t row) {
    const int i = static_cast<int>(row);
    const Real* grow = go + static_cast<std::size_t>(i) * m;
    Real* garow = ga + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const Real* brow = b + static_cast<std::size_t>(p) * m;
      Real acc = Real(0);
      for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
      garow[p] += acc;
    }
  });
}

/// grad_b[KxM] += A^T[KxN] * grad_out[NxM]. Serial over k-rows inside, but
/// parallelized over K with per-row ownership (no write conflicts).
void gemm_tn_acc(const Real* a, const Real* go, Real* gb, int n, int k,
                 int m) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  exec::parallel_for(k, work > 1 << 16, [&](std::int64_t krow) {
    const int p = static_cast<int>(krow);
    Real* gbrow = gb + static_cast<std::size_t>(p) * m;
    for (int i = 0; i < n; ++i) {
      const Real av = a[static_cast<std::size_t>(i) * k + p];
      if (av == Real(0)) continue;
      const Real* grow = go + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; ++j) gbrow[j] += av * grow[j];
    }
  });
}

/// One fused output row, portable path: the exact gemm_acc accumulation
/// (same ascending-p order, same zero-skip) followed by bias add and
/// activation while the row is still cache-hot. Element-for-element this
/// performs the identical FP operation sequence as matmul -> add -> act,
/// so results are bitwise equal to the unfused chain.
void fused_row_scalar(const Real* arow, const Real* w, const Real* bias,
                      Real* crow, int k, int m, FusedAct act) {
  for (int p = 0; p < k; ++p) {
    const Real av = arow[p];
    if (av == Real(0)) continue;
    const Real* wrow = w + static_cast<std::size_t>(p) * m;
    for (int j = 0; j < m; ++j) crow[j] += av * wrow[j];
  }
  switch (act) {
    case FusedAct::Identity:
      if (bias != nullptr)
        for (int j = 0; j < m; ++j) crow[j] = crow[j] + bias[j];
      break;
    case FusedAct::ReLU:
      for (int j = 0; j < m; ++j) {
        const Real v = bias != nullptr ? crow[j] + bias[j] : crow[j];
        crow[j] = v > 0 ? v : Real(0);
      }
      break;
    case FusedAct::Tanh:
      for (int j = 0; j < m; ++j) {
        const Real v = bias != nullptr ? crow[j] + bias[j] : crow[j];
        crow[j] = std::tanh(v);
      }
      break;
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define GNS_LINEAR_ACT_AVX2_KERNEL 1

/// One NV*4-column block of one fused output row, AVX2. Bitwise-identical
/// to fused_row_scalar: separate _mm256_mul_pd / _mm256_add_pd (never FMA
/// — a fused multiply-add would skip the intermediate rounding), each lane
/// runs the same correctly-rounded IEEE ops in the same ascending-p order
/// with the same zero-skip, and _mm256_max_pd(v, 0) matches `v > 0 ? v : 0`
/// exactly (both return +0.0 for v == -0.0 and the second operand, 0, for
/// NaN). What the vector version buys is the block held in NV ymm
/// accumulators across the whole p loop — independent dependency chains
/// (8 at the hot 32-column width, enough to hide addpd latency) — instead
/// of a memory round-trip per p. Tanh stays scalar libm so transcendentals
/// match the unfused op.
template <int NV>
__attribute__((target("avx2"))) void fused_avx2_block(const Real* arow,
                                                      const Real* wblk,
                                                      const Real* bias,
                                                      Real* cblk, int k,
                                                      int m, FusedAct act) {
  __m256d acc[NV];
  for (int u = 0; u < NV; ++u) acc[u] = _mm256_loadu_pd(cblk + 4 * u);
  for (int p = 0; p < k; ++p) {
    const Real av = arow[p];
    if (av == Real(0)) continue;
    const __m256d vav = _mm256_set1_pd(av);
    const Real* wrow = wblk + static_cast<std::size_t>(p) * m;
    for (int u = 0; u < NV; ++u)
      acc[u] = _mm256_add_pd(
          acc[u], _mm256_mul_pd(vav, _mm256_loadu_pd(wrow + 4 * u)));
  }
  if (bias != nullptr)
    for (int u = 0; u < NV; ++u)
      acc[u] = _mm256_add_pd(acc[u], _mm256_loadu_pd(bias + 4 * u));
  if (act == FusedAct::ReLU) {
    const __m256d zero = _mm256_setzero_pd();
    for (int u = 0; u < NV; ++u) acc[u] = _mm256_max_pd(acc[u], zero);
  }
  for (int u = 0; u < NV; ++u) _mm256_storeu_pd(cblk + 4 * u, acc[u]);
  if (act == FusedAct::Tanh)
    for (int u = 0; u < 4 * NV; ++u) cblk[u] = std::tanh(cblk[u]);
}

/// One fused output row, AVX2 path: widest block first (wider = more
/// latency-hiding chains and fewer re-scans of arow), then narrower
/// blocks, then a scalar column tail (e.g. the dim-2 decoder head).
__attribute__((target("avx2"))) void fused_row_avx2(const Real* arow,
                                                    const Real* w,
                                                    const Real* bias,
                                                    Real* crow, int k, int m,
                                                    FusedAct act) {
  int j = 0;
  for (; j + 32 <= m; j += 32)
    fused_avx2_block<8>(arow, w + j, bias != nullptr ? bias + j : nullptr,
                        crow + j, k, m, act);
  for (; j + 16 <= m; j += 16)
    fused_avx2_block<4>(arow, w + j, bias != nullptr ? bias + j : nullptr,
                        crow + j, k, m, act);
  for (; j + 8 <= m; j += 8)
    fused_avx2_block<2>(arow, w + j, bias != nullptr ? bias + j : nullptr,
                        crow + j, k, m, act);
  for (; j + 4 <= m; j += 4)
    fused_avx2_block<1>(arow, w + j, bias != nullptr ? bias + j : nullptr,
                        crow + j, k, m, act);
  // Columns past the last multiple of 4: scalar, one accumulator per
  // column, same op order as above.
  for (; j < m; ++j) {
    Real acc = crow[j];
    for (int p = 0; p < k; ++p) {
      const Real av = arow[p];
      if (av == Real(0)) continue;
      acc += av * w[static_cast<std::size_t>(p) * m + j];
    }
    Real v = bias != nullptr ? acc + bias[j] : acc;
    if (act == FusedAct::ReLU)
      v = v > 0 ? v : Real(0);
    else if (act == FusedAct::Tanh)
      v = std::tanh(v);
    crow[j] = v;
  }
}

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#endif  // GNS_LINEAR_ACT_AVX2_KERNEL

/// Fused forward: per output row, gemm accumulation + bias + activation in
/// one pass (see the row kernels above for the bitwise-identity argument).
void fused_linear_fwd(const Real* a, const Real* w, const Real* bias, Real* c,
                      int n, int k, int m, FusedAct act) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
#ifdef GNS_LINEAR_ACT_AVX2_KERNEL
  if (cpu_has_avx2()) {
    exec::parallel_for(n, work > 1 << 16, [&](std::int64_t row) {
      const int i = static_cast<int>(row);
      fused_row_avx2(a + static_cast<std::size_t>(i) * k, w, bias,
                     c + static_cast<std::size_t>(i) * m, k, m, act);
    });
    return;
  }
#endif
  exec::parallel_for(n, work > 1 << 16, [&](std::int64_t row) {
    const int i = static_cast<int>(row);
    fused_row_scalar(a + static_cast<std::size_t>(i) * k, w, bias,
                     c + static_cast<std::size_t>(i) * m, k, m, act);
  });
}

/// d(act)/d(pre-activation) recovered from the *output* value (valid for
/// ReLU: out > 0 <=> pre > 0; for Tanh: 1 - out^2 — both match the unfused
/// elementwise backward exactly).
Real act_grad_from_output(FusedAct act, Real out) {
  switch (act) {
    case FusedAct::ReLU:
      return out > 0 ? Real(1) : Real(0);
    case FusedAct::Tanh:
      return Real(1) - out * out;
    case FusedAct::Identity:
      break;
  }
  return Real(1);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  GNS_TRACE_SCOPE("ad.ops.matmul");
  GNS_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: "
                                          << a.rows() << "x" << a.cols()
                                          << " * " << b.rows() << "x"
                                          << b.cols());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  auto pa = a.ptr();
  auto pb = b.ptr();
  Tensor out = make_op_result(
      n, m, {pa, pb}, [pa, pb, n, k, m](TensorImpl& self) {
        if (pa->requires_grad) {
          pa->ensure_grad();
          gemm_nt_acc(self.grad.data(), pb->data.data(), pa->grad.data(), n,
                      m, k);
        }
        if (pb->requires_grad) {
          pb->ensure_grad();
          gemm_tn_acc(pa->data.data(), self.grad.data(), pb->grad.data(), n,
                      k, m);
        }
      });
  std::fill(out.vec().begin(), out.vec().end(), Real(0));
  gemm_acc(a.data(), b.data(), out.data(), n, k, m);
  return out;
}

Tensor transpose(const Tensor& a) {
  GNS_TRACE_SCOPE("ad.ops.transpose");
  const int n = a.rows(), m = a.cols();
  const std::int64_t work = static_cast<std::int64_t>(n) * m;
  auto pa = a.ptr();
  Tensor out = make_op_result(m, n, {pa}, [pa, n, m, work](TensorImpl& self) {
    if (!pa->requires_grad) return;
    pa->ensure_grad();
    // Parallel over input rows: each i owns grad row i (no write races).
    exec::parallel_for(n, work > 1 << 16, [&](std::int64_t i)  {
      for (int j = 0; j < m; ++j)
        pa->grad[static_cast<std::size_t>(i) * m + j] +=
            self.grad[static_cast<std::size_t>(j) * n + static_cast<std::size_t>(i)];
    });
  });
  const Real* av = a.data();
  Real* ov = out.data();
  // Parallel over output rows j; pure copies, so any order is bitwise
  // identical to the serial loop.
  exec::parallel_for(m, work > 1 << 16, [&](std::int64_t j) {
    for (int i = 0; i < n; ++i)
      ov[static_cast<std::size_t>(j) * n + static_cast<std::size_t>(i)] =
          av[static_cast<std::size_t>(i) * m + static_cast<std::size_t>(j)];
  });
  return out;
}

Tensor linear_act(const Tensor& x, const Tensor& w, const Tensor& b,
                  FusedAct act) {
  GNS_TRACE_SCOPE("ad.ops.linear_act");
  GNS_CHECK_MSG(x.cols() == w.rows(), "linear_act shape mismatch: "
                                          << x.rows() << "x" << x.cols()
                                          << " * " << w.rows() << "x"
                                          << w.cols());
  const bool has_bias = b.defined();
  if (has_bias) {
    GNS_CHECK_MSG(b.rows() == 1 && b.cols() == w.cols(),
                  "linear_act bias must be [1," << w.cols() << "], got "
                                                << b.rows() << "x"
                                                << b.cols());
  }
  const int n = x.rows(), k = x.cols(), m = w.cols();
  auto px = x.ptr();
  auto pw = w.ptr();
  auto pb = has_bias ? b.ptr() : TensorImplPtr{};
  std::vector<TensorImplPtr> parents{px, pw};
  if (has_bias) parents.push_back(pb);
  Tensor out = make_op_result(
      n, m, std::move(parents), [px, pw, pb, n, k, m, act](TensorImpl& self) {
        // dpre = upstream grad * act'(output); for Identity it aliases the
        // upstream grad directly (no copy).
        const Real* go = self.grad.data();
        std::vector<Real> dpre_store;
        const Real* dpre = go;
        if (act != FusedAct::Identity) {
          arena::acquire(dpre_store, static_cast<std::size_t>(n) * m);
          const Real* ov = self.data.data();
          const std::int64_t total = static_cast<std::int64_t>(n) * m;
          for (std::int64_t i = 0; i < total; ++i)
            dpre_store[i] = go[i] * act_grad_from_output(act, ov[i]);
          dpre = dpre_store.data();
        }
        if (px->requires_grad) {
          px->ensure_grad();
          gemm_nt_acc(dpre, pw->data.data(), px->grad.data(), n, m, k);
        }
        if (pw->requires_grad) {
          pw->ensure_grad();
          gemm_tn_acc(px->data.data(), dpre, pw->grad.data(), n, k, m);
        }
        if (pb && pb->requires_grad) {
          pb->ensure_grad();
          // Same accumulation order as add()'s broadcast backward
          // (rows outer, cols inner) for bitwise-equal bias grads.
          for (int r = 0; r < n; ++r)
            for (int c = 0; c < m; ++c)
              pb->grad[c] += dpre[static_cast<std::size_t>(r) * m + c];
        }
        arena::recycle(dpre_store);
      });
  fused_linear_fwd(x.data(), w.data(), has_bias ? b.data() : nullptr,
                   out.data(), n, k, m, act);
  return out;
}

}  // namespace gns::ad
