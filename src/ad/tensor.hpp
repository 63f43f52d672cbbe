#pragma once

/// \file tensor.hpp
/// Reverse-mode automatic differentiation on 2-D tensors.
///
/// This is the substrate that replaces PyTorch in the paper's pipeline: a
/// dynamically-taped computation graph over row-major matrices. Every tensor
/// in the GNS is naturally 2-D — node features [N,F], edge features [E,F],
/// scalars [1,1] — so restricting to matrices keeps the engine small without
/// losing any expressiveness the models need.
///
/// Semantics mirror PyTorch:
///  * ops executed while grad mode is on (the default) and touching at least
///    one `requires_grad` tensor record a backward closure on the result;
///  * `Tensor::backward()` runs reverse topological order from a scalar root
///    and accumulates into `.grad()` of every reachable leaf;
///  * `NoGradGuard` disables taping (used for inference rollouts);
///  * `detach()` cuts the tape.
///
/// The engine is deliberately eager and single-graph: no views, no in-place
/// autograd (except the explicit optimizer updates which operate on raw
/// data), no higher-order gradients. The paper's experiments need exactly
/// first-order reverse mode.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ad/arena.hpp"
#include "util/check.hpp"

namespace gns::ad {

/// Scalar type of the engine. Double keeps finite-difference gradient checks
/// crisp and the 30-step chained inverse rollout numerically stable; at the
/// reproduction's problem sizes (≤ a few thousand nodes, latent ≤ 128) the
/// 2× memory cost over float is irrelevant.
using Real = double;

class Tensor;
struct TensorImpl;
using TensorImplPtr = std::shared_ptr<TensorImpl>;

/// Node of the autograd tape. On destruction the data/grad storage is
/// donated to the thread-local tensor arena when one is active (see
/// arena.hpp), so steady-state rollouts recycle buffers instead of hitting
/// the allocator every op. Freeing a tape releases its nodes iteratively,
/// so tape length is not bounded by the thread's stack.
struct TensorImpl {
  int rows = 0;
  int cols = 0;
  std::vector<Real> data;
  std::vector<Real> grad;  ///< lazily allocated on first accumulation
  bool requires_grad = false;

  TensorImpl() = default;
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  /// Parents in the computation graph (inputs of the op that produced this).
  std::vector<TensorImplPtr> parents;
  /// Propagates this node's grad into its parents' grads. Empty for leaves.
  std::function<void(TensorImpl&)> backward_fn;

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(rows) * cols;
  }
  void ensure_grad() {
    if (grad.empty()) arena::acquire(grad, data.size());
  }
};

/// RAII guard that disables gradient taping in its scope (like
/// `torch::NoGradGuard`). Nestable; thread-local.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Whether ops currently record backward closures (thread-local).
[[nodiscard]] bool grad_enabled();

/// Value-semantic handle to a tape node. Copying a Tensor aliases the same
/// storage and tape node (like PyTorch); use `clone()` for a deep copy.
class Tensor {
 public:
  /// Empty (null) tensor; most APIs reject it. Use factories below.
  Tensor() = default;

  explicit Tensor(TensorImplPtr impl) : impl_(std::move(impl)) {}

  // ---- Factories ----------------------------------------------------------

  static Tensor zeros(int rows, int cols, bool requires_grad = false);
  static Tensor ones(int rows, int cols, bool requires_grad = false);
  static Tensor full(int rows, int cols, Real value,
                     bool requires_grad = false);
  /// Takes ownership of `values` (size must equal rows*cols, row-major).
  static Tensor from_vector(int rows, int cols, std::vector<Real> values,
                            bool requires_grad = false);
  /// 1x1 scalar tensor.
  static Tensor scalar(Real value, bool requires_grad = false);

  // ---- Introspection ------------------------------------------------------

  [[nodiscard]] bool defined() const { return impl_ != nullptr; }
  [[nodiscard]] int rows() const { return impl().rows; }
  [[nodiscard]] int cols() const { return impl().cols; }
  [[nodiscard]] std::int64_t size() const { return impl().size(); }
  [[nodiscard]] bool requires_grad() const { return impl().requires_grad; }

  /// Marks this (leaf) tensor as a trainable parameter.
  Tensor& set_requires_grad(bool value = true) {
    impl().requires_grad = value;
    return *this;
  }

  [[nodiscard]] Real* data() { return impl().data.data(); }
  [[nodiscard]] const Real* data() const { return impl().data.data(); }
  [[nodiscard]] std::vector<Real>& vec() { return impl().data; }
  [[nodiscard]] const std::vector<Real>& vec() const { return impl().data; }

  /// Element access (row-major). Bounds-checked in debug builds.
  [[nodiscard]] Real at(int r, int c) const {
    GNS_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    return impl().data[static_cast<std::size_t>(r) * cols() + c];
  }
  void set(int r, int c, Real v) {
    GNS_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    impl().data[static_cast<std::size_t>(r) * cols() + c] = v;
  }

  /// Value of a 1x1 tensor.
  [[nodiscard]] Real item() const {
    GNS_CHECK_MSG(size() == 1, "item() requires a scalar tensor, got "
                                   << rows() << "x" << cols());
    return impl().data[0];
  }

  /// Gradient buffer (empty until backward() has reached this tensor).
  [[nodiscard]] const std::vector<Real>& grad() const { return impl().grad; }
  [[nodiscard]] std::vector<Real>& grad_mut() { return impl().grad; }
  void zero_grad() {
    auto& g = impl().grad;
    std::fill(g.begin(), g.end(), Real(0));
  }

  // ---- Autograd -----------------------------------------------------------

  /// Runs reverse-mode accumulation from this scalar. Grad of the root is
  /// seeded with 1. Each call re-walks the tape; gradients accumulate, so
  /// call zero_grad() on parameters between steps.
  void backward() const;

  /// Same storage, detached from the tape (new node, requires_grad=false).
  [[nodiscard]] Tensor detach() const;

  /// Deep copy of the data as a fresh leaf.
  [[nodiscard]] Tensor clone() const;

  [[nodiscard]] TensorImpl& impl() const {
    GNS_CHECK_MSG(impl_ != nullptr, "operation on an undefined Tensor");
    return *impl_;
  }
  [[nodiscard]] const TensorImplPtr& ptr() const { return impl_; }

  [[nodiscard]] std::string to_string(int max_rows = 8) const;

 private:
  TensorImplPtr impl_;
};

/// Creates the result node of an op: allocates storage and, when grad mode
/// is on and any parent requires grad, wires parents + backward closure.
/// `backward` receives the result node; it must add into parents' grads.
Tensor make_op_result(int rows, int cols, std::vector<TensorImplPtr> parents,
                      std::function<void(TensorImpl&)> backward);

}  // namespace gns::ad
