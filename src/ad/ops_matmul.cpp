#include <algorithm>
#include <cmath>
#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "ad/ops.hpp"
#include "exec/parallel_for.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace gns::ad {

namespace {

/// Straightforward cache-friendly (i,k,j) GEMM: C += A[NxK] * B[KxM].
/// Parallel over output rows when the problem is large enough to amortize
/// the fork/join. Every term is added, zero inputs included, as in the
/// linear_act_rows leaves.
void gemm_acc(const Real* a, const Real* b, Real* c, int n, int k, int m) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  exec::parallel_for(n, work > 1 << 16, [&](std::int64_t row) {
    const int i = static_cast<int>(row);
    Real* crow = c + static_cast<std::size_t>(i) * m;
    const Real* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const Real av = arow[p];
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

// ---- linear_act_rows leaves ------------------------------------------------
//
// Every leaf computes each output element with the same float operations
// in the same order: start from +0.0; for p ascending add x[p]·W[p][j] (a
// rounded multiply, then a rounded add); add the bias; apply act. That is
// also matmul -> add -> act's element sequence, so every leaf is bitwise
// equal to the unfused chain. No leaf skips a zero input: a per-row
// branch would keep one W load from serving several rows of a tile, and
// with a finite weight the term changes no bit. Its product is ±0, and an
// accumulator that starts at +0.0 is never −0 (a round-to-nearest sum is
// −0 only when both addends are), so adding ±0 returns it unchanged, NaN
// and ±Inf included. A non-finite weight times a zero input gives NaN, in
// every leaf and in matmul alike. The vector leaves use separate mul/add
// intrinsics and the build passes -ffp-contract=off, so no compiler fuses
// them into an FMA (which would skip the product's rounding). The AVX2 ReLU,
// max(v, 0), matches `v > 0 ? v : 0` exactly: both give +0.0 for v = −0.0
// and the second operand, 0, for NaN; the AVX-512F one is that compare,
// lane for lane. Tanh stays scalar libm in every leaf.

/// One output row, the reference leaf.
void fused_row_scalar(const Real* arow, const Real* w, const Real* bias,
                      Real* crow, int k, int m, FusedAct act) {
  std::fill(crow, crow + m, Real(0));
  for (int p = 0; p < k; ++p) {
    const Real av = arow[p];
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

void fused_rows_scalar(const Real* x, int ldx, const Real* w, const Real* b,
                       Real* y, int ldy, int rows, int k, int m,
                       FusedAct act) {
  for (int r = 0; r < rows; ++r)
    fused_row_scalar(x + static_cast<std::size_t>(r) * ldx, w, b,
                     y + static_cast<std::size_t>(r) * ldy, k, m, act);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define GNS_LINEAR_ACT_SIMD_KERNELS 1

/// One NV*4-column block of one output row, AVX2. The block stays in NV
/// ymm accumulators across the whole p loop: independent dependency
/// chains (8 at the 32-column width, enough to hide addpd latency)
/// instead of a memory round trip per p.
template <int NV>
__attribute__((target("avx2"))) void fused_avx2_block(const Real* arow,
                                                      const Real* wblk,
                                                      const Real* bias,
                                                      Real* cblk, int k,
                                                      int m, FusedAct act) {
  __m256d acc[NV];
  for (int u = 0; u < NV; ++u) acc[u] = _mm256_setzero_pd();
  for (int p = 0; p < k; ++p) {
    const __m256d vav = _mm256_set1_pd(arow[p]);
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

/// One output row, AVX2: widest block first (wider = more latency-hiding
/// chains and fewer re-scans of arow), then narrower blocks, then a
/// scalar column tail (e.g. the dim-2 decoder head).
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
  for (; j < m; ++j) {
    Real acc = Real(0);
    for (int p = 0; p < k; ++p)
      acc += arow[p] * w[static_cast<std::size_t>(p) * m + j];
    Real v = bias != nullptr ? acc + bias[j] : acc;
    if (act == FusedAct::ReLU)
      v = v > 0 ? v : Real(0);
    else if (act == FusedAct::Tanh)
      v = std::tanh(v);
    crow[j] = v;
  }
}

void fused_rows_avx2(const Real* x, int ldx, const Real* w, const Real* b,
                     Real* y, int ldy, int rows, int k, int m, FusedAct act) {
  for (int r = 0; r < rows; ++r)
    fused_row_avx2(x + static_cast<std::size_t>(r) * ldx, w, b,
                   y + static_cast<std::size_t>(r) * ldy, k, m, act);
}

/// acc += x · wv for one row of an AVX-512F block.
template <int NV>
__attribute__((target("avx512f"), always_inline)) inline void
avx512_row_step(__m512d (&acc)[NV], const __m512d (&wv)[NV], Real x) {
  const __m512d xv = _mm512_set1_pd(x);
  for (int u = 0; u < NV; ++u)
    acc[u] = _mm512_add_pd(acc[u], _mm512_mul_pd(xv, wv[u]));
}

/// Vector u of a block row; a masked block's last vector loads zeros in
/// the lanes off `last`.
template <int NV, bool kMasked>
__attribute__((target("avx512f"), always_inline)) inline __m512d
avx512_load(const Real* src, int u, __mmask8 last) {
  return kMasked && u + 1 == NV ? _mm512_maskz_loadu_pd(last, src + 8 * u)
                                : _mm512_loadu_pd(src + 8 * u);
}

/// Bias (bv, or null), ReLU and store of one row of an AVX-512F block;
/// a masked block stores only the lanes in `last` of its last vector.
template <int NV, bool kMasked>
__attribute__((target("avx512f"), always_inline)) inline void
avx512_row_finish(const __m512d (&acc)[NV], const __m512d* bv,
                  __mmask8 last, Real* yrow, FusedAct act) {
  for (int u = 0; u < NV; ++u) {
    __m512d v = bv != nullptr ? _mm512_add_pd(acc[u], bv[u]) : acc[u];
    if (act == FusedAct::ReLU)
      v = _mm512_maskz_mov_pd(
          _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_GT_OQ), v);
    if (kMasked && u + 1 == NV)
      _mm512_mask_storeu_pd(yrow + 8 * u, last, v);
    else
      _mm512_storeu_pd(yrow + 8 * u, v);
  }
}

/// `cols` columns of R ≤ 4 output rows, AVX-512F: 8·NV of them, or, in a
/// masked block, more than 8·(NV−1). Each W row's NV vectors are loaded
/// once and serve all R rows, whose R·NV zmm accumulators (16 at R = 4,
/// NV = 4) stay in registers across the p loop. A masked block's last
/// vector masks off the columns past `cols`: masked lanes load zeros,
/// touch no memory and are never stored. Each row has its own accumulator
/// array, only the tail block masks, and tanh runs once every row is
/// stored: GCC keeps the arrays in registers then, but leaves one [R][NV]
/// array, or one beside a masked load in a wide block, or one live across
/// a libm call, in memory with a store per p.
template <int R, int NV, bool kMasked = false>
__attribute__((target("avx512f"))) void fused_avx512_block(
    const Real* x, int ldx, const Real* wblk, const Real* bias, Real* yblk,
    int ldy, int k, int m, int cols, FusedAct act) {
  static_assert(R >= 1 && R <= kRowTile && NV >= 1 && NV <= 4);
  const auto last = static_cast<__mmask8>(0xFFu >> (8 * NV - cols));
  const std::size_t ld = static_cast<std::size_t>(ldx);
  __m512d acc0[NV], acc1[NV], acc2[NV], acc3[NV];
  for (int u = 0; u < NV; ++u)
    acc0[u] = acc1[u] = acc2[u] = acc3[u] = _mm512_setzero_pd();
  for (int p = 0; p < k; ++p) {
    const Real* wrow = wblk + static_cast<std::size_t>(p) * m;
    __m512d wv[NV];
    for (int u = 0; u < NV; ++u)
      wv[u] = avx512_load<NV, kMasked>(wrow, u, last);
    avx512_row_step<NV>(acc0, wv, x[p]);
    if constexpr (R > 1) avx512_row_step<NV>(acc1, wv, x[ld + p]);
    if constexpr (R > 2) avx512_row_step<NV>(acc2, wv, x[2 * ld + p]);
    if constexpr (R > 3) avx512_row_step<NV>(acc3, wv, x[3 * ld + p]);
  }
  __m512d bv[NV] = {};
  if (bias != nullptr)
    for (int u = 0; u < NV; ++u)
      bv[u] = avx512_load<NV, kMasked>(bias, u, last);
  const __m512d* b = bias != nullptr ? bv : nullptr;
  const std::size_t ly = static_cast<std::size_t>(ldy);
  avx512_row_finish<NV, kMasked>(acc0, b, last, yblk, act);
  if constexpr (R > 1)
    avx512_row_finish<NV, kMasked>(acc1, b, last, yblk + ly, act);
  if constexpr (R > 2)
    avx512_row_finish<NV, kMasked>(acc2, b, last, yblk + 2 * ly, act);
  if constexpr (R > 3)
    avx512_row_finish<NV, kMasked>(acc3, b, last, yblk + 3 * ly, act);
  if (act == FusedAct::Tanh)
    for (int r = 0; r < R; ++r)
      for (int c = 0; c < cols; ++c)
        yblk[r * ly + c] = std::tanh(yblk[r * ly + c]);
}

/// R output rows, AVX-512F: 32-, 16- and 8-column blocks, then one masked
/// block for the last m mod 8 columns.
template <int R>
__attribute__((target("avx512f"))) void fused_tile_avx512(
    const Real* x, int ldx, const Real* w, const Real* b, Real* y, int ldy,
    int k, int m, FusedAct act) {
  int j = 0;
  for (; j + 32 <= m; j += 32)
    fused_avx512_block<R, 4>(x, ldx, w + j, b != nullptr ? b + j : nullptr,
                             y + j, ldy, k, m, 32, act);
  for (; j + 16 <= m; j += 16)
    fused_avx512_block<R, 2>(x, ldx, w + j, b != nullptr ? b + j : nullptr,
                             y + j, ldy, k, m, 16, act);
  for (; j + 8 <= m; j += 8)
    fused_avx512_block<R, 1>(x, ldx, w + j, b != nullptr ? b + j : nullptr,
                             y + j, ldy, k, m, 8, act);
  if (j < m)
    fused_avx512_block<R, 1, true>(x, ldx, w + j,
                                   b != nullptr ? b + j : nullptr, y + j, ldy,
                                   k, m, m - j, act);
}

void fused_rows_avx512(const Real* x, int ldx, const Real* w, const Real* b,
                       Real* y, int ldy, int rows, int k, int m,
                       FusedAct act) {
  int r = 0;
  for (; r + kRowTile <= rows; r += kRowTile)
    fused_tile_avx512<kRowTile>(x + static_cast<std::size_t>(r) * ldx, ldx,
                                w, b, y + static_cast<std::size_t>(r) * ldy,
                                ldy, k, m, act);
  x += static_cast<std::size_t>(r) * ldx;
  y += static_cast<std::size_t>(r) * ldy;
  switch (rows - r) {
    case 3:
      fused_tile_avx512<3>(x, ldx, w, b, y, ldy, k, m, act);
      break;
    case 2:
      fused_tile_avx512<2>(x, ldx, w, b, y, ldy, k, m, act);
      break;
    case 1:
      fused_tile_avx512<1>(x, ldx, w, b, y, ldy, k, m, act);
      break;
    default:
      break;
  }
}

#endif  // GNS_LINEAR_ACT_SIMD_KERNELS

void run_rows_leaf(RowsLeaf leaf, const Real* x, int ldx, const Real* w,
                   const Real* b, Real* y, int ldy, int rows, int k, int m,
                   FusedAct act) {
  switch (leaf) {
#ifdef GNS_LINEAR_ACT_SIMD_KERNELS
    case RowsLeaf::Avx512:
      fused_rows_avx512(x, ldx, w, b, y, ldy, rows, k, m, act);
      return;
    case RowsLeaf::Avx2:
      fused_rows_avx2(x, ldx, w, b, y, ldy, rows, k, m, act);
      return;
#endif
    default:
      fused_rows_scalar(x, ldx, w, b, y, ldy, rows, k, m, act);
      return;
  }
}

/// Fused forward: linear_act_rows over tiles of kRowTile rows, in
/// parallel.
void fused_linear_fwd(const Real* a, const Real* w, const Real* bias, Real* c,
                      int n, int k, int m, FusedAct act) {
  const std::int64_t work = static_cast<std::int64_t>(n) * k * m;
  const std::int64_t tiles = (n + kRowTile - 1) / kRowTile;
  exec::parallel_for(tiles, work > 1 << 16, [&](std::int64_t tile) {
    const int r0 = static_cast<int>(tile) * kRowTile;
    linear_act_rows(a + static_cast<std::size_t>(r0) * k, k, w, bias,
                    c + static_cast<std::size_t>(r0) * m, m,
                    std::min(kRowTile, n - r0), k, m, act);
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

bool rows_leaf_available(RowsLeaf leaf) {
  switch (leaf) {
    case RowsLeaf::Scalar:
      return true;
#ifdef GNS_LINEAR_ACT_SIMD_KERNELS
    case RowsLeaf::Avx2:
      return simd::cpu_has_avx2();
    case RowsLeaf::Avx512:
      return simd::cpu_has_avx512f();
#endif
    default:
      return false;
  }
}

RowsLeaf rows_leaf() {
  static const RowsLeaf widest =
      rows_leaf_available(RowsLeaf::Avx512) ? RowsLeaf::Avx512
      : rows_leaf_available(RowsLeaf::Avx2) ? RowsLeaf::Avx2
                                            : RowsLeaf::Scalar;
  return simd::enabled() ? widest : RowsLeaf::Scalar;
}

void linear_act_rows_with(RowsLeaf leaf, const Real* x, int ldx,
                          const Real* w, const Real* b, Real* y, int ldy,
                          int rows, int k, int m, FusedAct act) {
  GNS_CHECK_MSG(rows_leaf_available(leaf),
                "linear_act_rows: this CPU cannot run leaf "
                    << static_cast<int>(leaf));
  run_rows_leaf(leaf, x, ldx, w, b, y, ldy, rows, k, m, act);
}

void linear_act_rows(const Real* x, int ldx, const Real* w, const Real* b,
                     Real* y, int ldy, int rows, int k, int m, FusedAct act) {
  run_rows_leaf(rows_leaf(), x, ldx, w, b, y, ldy, rows, k, m, act);
}

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
