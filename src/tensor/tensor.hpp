/// \file tensor.hpp
/// Minimal reverse-mode autograd tensor library.
///
/// The paper trains its models with PyTorch; this repo has no external ML
/// dependency, so this module supplies the needed subset: 2-D float tensors,
/// a dynamic tape built by the ops in ops.hpp, and backward() for reverse-mode
/// differentiation. Graphs here are small (RC nets of tens to a few hundred
/// nodes), so a dense row-major representation is appropriate.
///
/// Threading: the autograd mode flag is thread-local; tensors themselves are
/// not synchronized and must not be shared across threads while training.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace gnntrans::tensor {

class Tensor;

/// Shared state behind a Tensor handle.
struct TensorImpl {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> value;
  std::vector<float> grad;  ///< allocated lazily by backward()
  bool requires_grad = false;

  /// Parents in the autograd tape (empty for leaves).
  std::vector<std::shared_ptr<TensorImpl>> parents;
  /// Accumulates parent gradients given this node's grad; null for leaves.
  std::function<void(const TensorImpl&)> backward_fn;

  [[nodiscard]] std::size_t size() const noexcept { return rows * cols; }
  void ensure_grad() {
    if (grad.size() != value.size()) grad.assign(value.size(), 0.0f);
  }
};

/// RAII guard disabling tape recording (inference mode) on this thread.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when ops should record the tape on this thread.
[[nodiscard]] bool grad_enabled() noexcept;

/// Value-semantics handle to a shared tensor node.
class Tensor {
 public:
  Tensor() = default;

  /// Creates a rows x cols tensor of zeros.
  Tensor(std::size_t rows, std::size_t cols, bool requires_grad = false);

  /// Creates a tensor adopting \p data (size must equal rows*cols).
  static Tensor from_data(std::vector<float> data, std::size_t rows,
                          std::size_t cols, bool requires_grad = false);

  [[nodiscard]] bool defined() const noexcept { return impl_ != nullptr; }
  [[nodiscard]] std::size_t rows() const noexcept { return impl_->rows; }
  [[nodiscard]] std::size_t cols() const noexcept { return impl_->cols; }
  [[nodiscard]] std::size_t size() const noexcept { return impl_->size(); }
  [[nodiscard]] bool requires_grad() const noexcept { return impl_->requires_grad; }

  [[nodiscard]] std::span<float> values() noexcept { return impl_->value; }
  [[nodiscard]] std::span<const float> values() const noexcept { return impl_->value; }
  /// Gradient buffer; empty until backward() has touched this tensor.
  [[nodiscard]] std::span<float> grad() noexcept { return impl_->grad; }
  [[nodiscard]] std::span<const float> grad() const noexcept { return impl_->grad; }

  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows() && c < cols());
    return impl_->value[r * cols() + c];
  }
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows() && c < cols());
    return impl_->value[r * cols() + c];
  }

  /// Scalar convenience for 1x1 tensors (losses).
  [[nodiscard]] float item() const noexcept {
    assert(size() == 1);
    return impl_->value[0];
  }

  /// Runs reverse-mode autodiff from this (scalar) tensor. Seeds d(self)=1,
  /// accumulates into every reachable requires_grad leaf. Gradients add up
  /// across calls; use zero_grad() between steps.
  void backward();

  /// Clears this tensor's gradient buffer.
  void zero_grad() noexcept {
    if (!impl_->grad.empty()) std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }

  /// Drops tape edges (parents/backward) making this a leaf; used by
  /// optimizers and serialization.
  void detach_() noexcept {
    impl_->parents.clear();
    impl_->backward_fn = nullptr;
  }

  [[nodiscard]] const std::shared_ptr<TensorImpl>& impl() const noexcept { return impl_; }

 private:
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}
  friend Tensor make_op_result(std::size_t rows, std::size_t cols,
                               std::vector<std::shared_ptr<TensorImpl>> parents,
                               std::function<void(const TensorImpl&)> backward_fn);

  std::shared_ptr<TensorImpl> impl_;
};

/// True when an op result over \p parents records a backward: autograd is on
/// for this thread and some parent requires grad. make_op_result keeps its
/// closure exactly then, so ops test this before copying anything into one.
[[nodiscard]] bool records_backward(
    const std::vector<std::shared_ptr<TensorImpl>>& parents) noexcept;

/// Creates a tape node for an op result. When autograd is disabled or no
/// parent requires grad, the node is a plain leaf.
[[nodiscard]] Tensor make_op_result(
    std::size_t rows, std::size_t cols,
    std::vector<std::shared_ptr<TensorImpl>> parents,
    std::function<void(const TensorImpl&)> backward_fn);

}  // namespace gnntrans::tensor
