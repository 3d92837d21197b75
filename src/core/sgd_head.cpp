#include "core/sgd_head.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/pruning.hpp"
#include "core/schedule.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"

namespace streambrain::core {

SgdHead::SgdHead(std::size_t inputs, std::size_t classes, SgdHeadConfig config)
    : classes_(classes),
      config_(config),
      current_lr_(config.learning_rate),
      weights_(inputs, classes, 0.0f),
      bias_(classes, 0.0f),
      velocity_(inputs, classes, 0.0f),
      bias_velocity_(classes, 0.0f),
      rng_(config.seed) {
  if (classes < 2) {
    throw std::invalid_argument("SgdHead: need at least 2 classes");
  }
  // Small symmetric init so momentum has gradients to work with.
  for (float& w : weights_) {
    w = static_cast<float>(rng_.normal(0.0, 0.01));
  }
}

void SgdHead::forward(const tensor::MatrixF& features,
                      tensor::MatrixF& probs) const {
  if (quant_wt_) {
    tensor::quant_support(*quant_wt_, features, bias_.data(), probs);
  } else if (quant_sparse_wt_) {
    tensor::quant_sparse_support(*quant_sparse_wt_, features, bias_.data(),
                                 probs);
  } else if (sparse_wt_) {
    tensor::sparse_support(*sparse_wt_, features, bias_.data(), probs);
  } else {
    probs.resize(features.rows(), classes_);
    tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                 features, weights_, 0.0f, probs);
    tensor::add_row_bias(probs, bias_.data());
  }
  tensor::softmax_blocks(probs, classes_);
}

double SgdHead::train_epoch(const tensor::MatrixF& features,
                            const tensor::MatrixF& targets) {
  require_mutable("train_epoch");
  if (features.rows() != targets.rows() || targets.cols() != classes_) {
    throw std::invalid_argument("SgdHead::train_epoch: shape mismatch");
  }
  const std::size_t n = features.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(order);

  tensor::MatrixF probs;
  tensor::MatrixF grad(weights_.rows(), classes_);
  std::vector<float> bias_grad(classes_);
  double total_loss = 0.0;

  for_each_batch(features, &targets, order, config_.batch_size,
                 [&](const tensor::MatrixF& batch_x,
                     const tensor::MatrixF& batch_t) {
    const std::size_t b = batch_x.rows();
    forward(batch_x, probs);

    // Cross-entropy loss + softmax gradient (probs - targets).
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t c = 0; c < classes_; ++c) {
        if (batch_t(r, c) > 0.5f) {
          total_loss -= std::log(std::max(probs(r, c), 1e-12f));
        }
        probs(r, c) -= batch_t(r, c);
      }
    }

    // grad = X^T (probs - targets) / b  (+ L2)
    tensor::gemm(tensor::Transpose::kYes, tensor::Transpose::kNo,
                 1.0f / static_cast<float>(b), batch_x, probs, 0.0f, grad);

    const float lr = current_lr_;
    const float l2 = config_.l2;
    const float mu = config_.momentum;
    tensor::momentum_update(mu, lr, l2, grad.data(), weights_.data(),
                            velocity_.data(), weights_.size());
    // Bias gradient: column means of (probs - targets), then the same
    // fused momentum kernel as the weights (l2 = 0 for biases).
    tensor::col_sums(probs, bias_grad.data());
    tensor::scale(1.0f / static_cast<float>(b), bias_grad.data(), classes_);
    tensor::momentum_update(mu, lr, 0.0f, bias_grad.data(), bias_.data(),
                            bias_velocity_.data(), classes_);
    apply_prune_mask();
  });
  current_lr_ *= config_.learning_rate_decay;
  return n > 0 ? total_loss / static_cast<double>(n) : 0.0;
}

void SgdHead::apply_gradient(const tensor::MatrixF& grad,
                             const std::vector<float>& bias_grad) {
  require_mutable("apply_gradient");
  if (grad.rows() != weights_.rows() || grad.cols() != weights_.cols() ||
      bias_grad.size() != bias_.size()) {
    throw std::invalid_argument("SgdHead::apply_gradient: shape mismatch");
  }
  tensor::momentum_update(config_.momentum, current_lr_, config_.l2,
                          grad.data(), weights_.data(), velocity_.data(),
                          weights_.size());
  tensor::momentum_update(config_.momentum, current_lr_, 0.0f,
                          bias_grad.data(), bias_.data(),
                          bias_velocity_.data(), classes_);
  apply_prune_mask();
}

void SgdHead::set_state(const tensor::MatrixF& weights,
                        const std::vector<float>& bias) {
  require_mutable("set_state");
  if (weights.rows() != weights_.rows() || weights.cols() != weights_.cols() ||
      bias.size() != bias_.size()) {
    throw std::invalid_argument("SgdHead::set_state: shape mismatch");
  }
  weights_ = weights;
  bias_ = bias;
  velocity_.fill(0.0f);
  std::fill(bias_velocity_.begin(), bias_velocity_.end(), 0.0f);
  apply_prune_mask();
}

std::size_t SgdHead::prune_to_density(double density) {
  require_mutable("prune_to_density");
  prune_keep_ = magnitude_keep_mask(weights_.data(), weights_.size(), density);
  std::size_t dropped = 0;
  for (const std::uint8_t keep : prune_keep_) dropped += keep == 0;
  apply_prune_mask();
  return dropped;
}

void SgdHead::set_prune_mask(std::vector<std::uint8_t> mask) {
  require_mutable("set_prune_mask");
  if (!mask.empty() && mask.size() != weights_.size()) {
    throw std::invalid_argument("SgdHead::set_prune_mask: size mismatch");
  }
  prune_keep_ = std::move(mask);
  apply_prune_mask();
}

double SgdHead::weight_density() const noexcept {
  if (quant_sparse_wt_) return quant_sparse_wt_->density();
  if (quant_wt_) {
    std::size_t nnz = 0;
    for (const std::int8_t code : quant_wt_->codes()) nnz += code != 0;
    return quant_wt_->codes().empty()
               ? 1.0
               : static_cast<double>(nnz) /
                     static_cast<double>(quant_wt_->codes().size());
  }
  if (sparse_wt_) return sparse_wt_->density();
  if (weights_.empty()) return 1.0;
  std::size_t nnz = 0;
  for (const float w : weights_) nnz += w != 0.0f;
  return static_cast<double>(nnz) / static_cast<double>(weights_.size());
}

void SgdHead::sparsify() {
  if (quantized()) {
    throw std::logic_error(
        "SgdHead::sparsify: head is already quantized (sparsify before "
        "quantize, not after)");
  }
  if (sparse_wt_) return;  // idempotent
  sparse_wt_ = std::make_unique<tensor::CsrMatrix>(
      tensor::CsrMatrix::from_dense_transposed(weights_));
  weights_ = tensor::MatrixF();
  velocity_ = tensor::MatrixF();
  bias_velocity_.clear();
  bias_velocity_.shrink_to_fit();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

const tensor::CsrMatrix& SgdHead::sparse_weights() const {
  if (!sparse_wt_) {
    throw std::logic_error("SgdHead::sparse_weights: head is dense");
  }
  return *sparse_wt_;
}

void SgdHead::adopt_sparse(tensor::CsrMatrix wt, std::vector<float> bias) {
  if (wt.rows() != classes_ || bias.size() != classes_ ||
      (weights_.size() != 0 && wt.cols() != weights_.rows())) {
    throw std::invalid_argument("SgdHead::adopt_sparse: shape mismatch");
  }
  sparse_wt_ = std::make_unique<tensor::CsrMatrix>(std::move(wt));
  bias_ = std::move(bias);
  weights_ = tensor::MatrixF();
  velocity_ = tensor::MatrixF();
  bias_velocity_.clear();
  bias_velocity_.shrink_to_fit();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void SgdHead::apply_prune_mask() {
  if (prune_keep_.empty()) return;
  float* w = weights_.data();
  float* v = velocity_.data();
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (prune_keep_[i] == 0) {
      w[i] = 0.0f;
      v[i] = 0.0f;
    }
  }
}

void SgdHead::quantize(std::size_t block_size) {
  if (quantized()) return;  // idempotent
  if (sparse_wt_) {
    quant_sparse_wt_ = std::make_unique<tensor::QuantCsr>(
        tensor::QuantCsr::from_csr(*sparse_wt_));
    sparse_wt_.reset();
    return;
  }
  quant_wt_ = std::make_unique<tensor::QuantBlockMatrix>(
      tensor::QuantBlockMatrix::from_dense_transposed(weights_, block_size));
  weights_ = tensor::MatrixF();
  velocity_ = tensor::MatrixF();
  bias_velocity_.clear();
  bias_velocity_.shrink_to_fit();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

const tensor::QuantBlockMatrix& SgdHead::quant_weights() const {
  if (!quant_wt_) {
    throw std::logic_error(
        "SgdHead::quant_weights: head is not dense-quantized");
  }
  return *quant_wt_;
}

const tensor::QuantCsr& SgdHead::quant_sparse_weights() const {
  if (!quant_sparse_wt_) {
    throw std::logic_error(
        "SgdHead::quant_sparse_weights: head is not sparse-quantized");
  }
  return *quant_sparse_wt_;
}

void SgdHead::adopt_quant(tensor::QuantBlockMatrix wt,
                          std::vector<float> bias) {
  if (wt.rows() != classes_ || bias.size() != classes_ ||
      (weights_.size() != 0 && wt.cols() != weights_.rows())) {
    throw std::invalid_argument("SgdHead::adopt_quant: shape mismatch");
  }
  quant_wt_ = std::make_unique<tensor::QuantBlockMatrix>(std::move(wt));
  quant_sparse_wt_.reset();
  bias_ = std::move(bias);
  sparse_wt_.reset();
  weights_ = tensor::MatrixF();
  velocity_ = tensor::MatrixF();
  bias_velocity_.clear();
  bias_velocity_.shrink_to_fit();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void SgdHead::adopt_quant_sparse(tensor::QuantCsr wt,
                                 std::vector<float> bias) {
  if (wt.rows() != classes_ || bias.size() != classes_ ||
      (weights_.size() != 0 && wt.cols() != weights_.rows())) {
    throw std::invalid_argument("SgdHead::adopt_quant_sparse: shape mismatch");
  }
  quant_sparse_wt_ = std::make_unique<tensor::QuantCsr>(std::move(wt));
  quant_wt_.reset();
  bias_ = std::move(bias);
  sparse_wt_.reset();
  weights_ = tensor::MatrixF();
  velocity_ = tensor::MatrixF();
  bias_velocity_.clear();
  bias_velocity_.shrink_to_fit();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void SgdHead::require_mutable(const char* what) const {
  if (sparse_wt_) {
    throw std::logic_error(std::string("SgdHead::") + what +
                           ": head is in the read-only sparse form");
  }
  if (quantized()) {
    throw std::logic_error(std::string("SgdHead::") + what +
                           ": head is in the read-only quantized form");
  }
}

void SgdHead::predict(const tensor::MatrixF& features,
                      tensor::MatrixF& probs) const {
  forward(features, probs);
}

std::vector<int> SgdHead::predict_labels(const tensor::MatrixF& features) const {
  tensor::MatrixF probs;
  forward(features, probs);
  std::vector<std::size_t> best(probs.rows());
  tensor::argmax_rows(probs, best.data());
  std::vector<int> labels(probs.rows());
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    labels[r] = static_cast<int>(best[r]);
  }
  return labels;
}

std::vector<double> SgdHead::predict_scores(
    const tensor::MatrixF& features) const {
  tensor::MatrixF probs;
  forward(features, probs);
  std::vector<double> scores(probs.rows());
  for (std::size_t r = 0; r < probs.rows(); ++r) scores[r] = probs(r, 1);
  return scores;
}

}  // namespace streambrain::core
