#include "ad/tensor.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace gns::ad {

namespace {
thread_local bool t_grad_enabled = true;
// Parents parked by tape nodes freed on this thread, drained by the
// outermost ~TensorImpl; null while no tape is being freed.
thread_local std::vector<TensorImplPtr>* t_release = nullptr;
}  // namespace

TensorImpl::~TensorImpl() {
  arena::recycle(data);
  arena::recycle(grad);
  if (parents.empty()) return;
  // Plain member destruction would free the tape recursively, one stack
  // frame chain per node (parents and the closure's captures both release
  // the next node). Instead nested destructors park their parents and the
  // outermost one drains them in a loop. Parking before the closure dies
  // leaves its captures holding no last reference.
  if (t_release != nullptr) {
    for (auto& p : parents) t_release->push_back(std::move(p));
    backward_fn = nullptr;
    return;
  }
  std::vector<TensorImplPtr> pending = std::move(parents);
  t_release = &pending;
  backward_fn = nullptr;
  while (!pending.empty()) {
    TensorImplPtr next = std::move(pending.back());
    pending.pop_back();
    next.reset();  // may run a nested ~TensorImpl, which parks its parents
  }
  t_release = nullptr;
}

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}
NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

bool grad_enabled() { return t_grad_enabled; }

Tensor Tensor::zeros(int rows, int cols, bool requires_grad) {
  return full(rows, cols, Real(0), requires_grad);
}

Tensor Tensor::ones(int rows, int cols, bool requires_grad) {
  return full(rows, cols, Real(1), requires_grad);
}

Tensor Tensor::full(int rows, int cols, Real value, bool requires_grad) {
  GNS_CHECK_MSG(rows > 0 && cols > 0,
                "tensor shape must be positive, got " << rows << "x" << cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  arena::acquire_fill(impl->data, static_cast<std::size_t>(rows) * cols,
                      value);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::from_vector(int rows, int cols, std::vector<Real> values,
                           bool requires_grad) {
  GNS_CHECK_MSG(rows > 0 && cols > 0,
                "tensor shape must be positive, got " << rows << "x" << cols);
  GNS_CHECK_MSG(values.size() == static_cast<std::size_t>(rows) * cols,
                "from_vector size mismatch: " << values.size() << " vs "
                                              << rows << "x" << cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data = std::move(values);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(Real value, bool requires_grad) {
  return full(1, 1, value, requires_grad);
}

void Tensor::backward() const {
  GNS_CHECK_MSG(size() == 1,
                "backward() must be called on a scalar loss, got "
                    << rows() << "x" << cols());
  TensorImpl* root = impl_.get();

  // Iterative post-order DFS produces a topological order of the tape.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_child < frame.node->parents.size()) {
      TensorImpl* child = frame.node->parents[frame.next_child++].get();
      if (visited.insert(child).second && !child->parents.empty()) {
        stack.push_back({child, 0});
      } else if (visited.count(child) && child->parents.empty()) {
        // Leaf: nothing to recurse into.
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  // Intermediate (non-leaf) grads are scratch space for this pass; leaves
  // accumulate across passes (PyTorch semantics). Only non-leaves appear
  // in `order`, so clearing it here resets exactly the scratch.
  for (TensorImpl* node : order) {
    std::fill(node->grad.begin(), node->grad.end(), Real(0));
  }
  root->ensure_grad();
  root->grad[0] += Real(1);

  // `order` is post-order (leaves-ish first); walk it backwards so each
  // node's grad is complete before it propagates to parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(*node);
    }
  }
}

Tensor Tensor::detach() const {
  auto out = std::make_shared<TensorImpl>();
  out->rows = rows();
  out->cols = cols();
  out->data = impl().data;  // share-by-copy; cheap at our sizes and safe
  out->requires_grad = false;
  return Tensor(std::move(out));
}

Tensor Tensor::clone() const {
  auto out = std::make_shared<TensorImpl>();
  out->rows = rows();
  out->cols = cols();
  out->data = impl().data;
  out->requires_grad = false;
  return Tensor(std::move(out));
}

std::string Tensor::to_string(int max_rows) const {
  std::ostringstream os;
  os << "Tensor(" << rows() << "x" << cols();
  if (requires_grad()) os << ", grad";
  os << ")[";
  const int r_show = std::min(rows(), max_rows);
  for (int r = 0; r < r_show; ++r) {
    os << (r ? "; " : "");
    for (int c = 0; c < cols(); ++c) os << (c ? " " : "") << at(r, c);
  }
  if (r_show < rows()) os << "; ...";
  os << "]";
  return os.str();
}

Tensor make_op_result(int rows, int cols, std::vector<TensorImplPtr> parents,
                      std::function<void(TensorImpl&)> backward) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  arena::acquire(impl->data, static_cast<std::size_t>(rows) * cols);
  if (t_grad_enabled) {
    bool any = false;
    for (const auto& p : parents) {
      if (p->requires_grad || p->backward_fn) {
        any = true;
        break;
      }
    }
    if (any) {
      impl->requires_grad = true;
      impl->parents = std::move(parents);
      impl->backward_fn = std::move(backward);
    }
  }
  return Tensor(std::move(impl));
}

}  // namespace gns::ad
