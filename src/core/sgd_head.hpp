#pragma once
// SGD-trained softmax-regression read-out head. Combined with the
// unsupervised BCPNN hidden layer this is the paper's hybrid
// "BCPNN+SGD" configuration, its best result (69.15% accuracy /
// 76.4% AUC on the Higgs task).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/quant.hpp"
#include "util/rng.hpp"

namespace streambrain::core {

struct SgdHeadConfig {
  float learning_rate = 0.1f;
  float learning_rate_decay = 0.97f;  ///< multiplicative, per epoch
  float momentum = 0.9f;
  float l2 = 1e-4f;
  std::size_t batch_size = 64;
  std::uint64_t seed = 3;
};

class SgdHead {
 public:
  SgdHead(std::size_t inputs, std::size_t classes, SgdHeadConfig config = {});

  /// One epoch of minibatch SGD over (features, one-hot targets), in a
  /// deterministic shuffled order. Returns mean cross-entropy loss.
  double train_epoch(const tensor::MatrixF& features,
                     const tensor::MatrixF& targets);

  /// Class probabilities, [batch x classes].
  void predict(const tensor::MatrixF& features, tensor::MatrixF& probs) const;

  [[nodiscard]] std::vector<int> predict_labels(
      const tensor::MatrixF& features) const;
  [[nodiscard]] std::vector<double> predict_scores(
      const tensor::MatrixF& features) const;

  [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
  [[nodiscard]] const SgdHeadConfig& config() const noexcept { return config_; }

  // --- Distributed-training hooks ---------------------------------------
  /// Apply one momentum step from an externally reduced mean gradient —
  /// the same update train_epoch performs per batch, exposed so the
  /// data-parallel trainer can reduce gradients across ranks first.
  void apply_gradient(const tensor::MatrixF& grad,
                      const std::vector<float>& bias_grad);

  /// Per-epoch learning-rate decay (train_epoch applies this internally).
  void end_epoch() noexcept { current_lr_ *= config_.learning_rate_decay; }

  // --- Structural pruning -------------------------------------------------
  /// Magnitude-based element pruning: keep the `density` fraction of
  /// weights with the largest |w| (deterministic tie-break), zero the
  /// rest together with their momentum, and pin the mask — subsequent
  /// train_epoch()/apply_gradient() updates cannot regrow a pruned
  /// weight until the next prune re-selects the mask ("rewire").
  /// Returns the number of zeroed entries.
  std::size_t prune_to_density(double density);

  [[nodiscard]] bool pruned() const noexcept { return !prune_keep_.empty(); }

  /// Checkpointing access: the element keep-mask (empty when unpruned).
  [[nodiscard]] const std::vector<std::uint8_t>& prune_mask() const noexcept {
    return prune_keep_;
  }

  /// Adopt a checkpointed keep-mask (empty clears) and re-apply it, so
  /// training resumed from a pruned checkpoint keeps the pruned weights
  /// pinned at zero. Throws on size mismatch.
  void set_prune_mask(std::vector<std::uint8_t> mask);

  /// Fraction of weight entries currently non-zero.
  [[nodiscard]] double weight_density() const noexcept;

  // --- Sparse inference form ------------------------------------------------
  /// Convert to the compact read-only inference form: weights compressed
  /// to CSR (transposed: one sparse row per class), dense weights and
  /// momentum freed. predict paths keep working bit-identically at
  /// scalar dispatch; training entry points throw std::logic_error.
  void sparsify();

  [[nodiscard]] bool sparse() const noexcept {
    return sparse_wt_ != nullptr || quant_sparse_wt_ != nullptr;
  }

  /// CSR of W^T (throws std::logic_error when dense).
  [[nodiscard]] const tensor::CsrMatrix& sparse_weights() const;

  /// Adopt a deserialized sparse form (checkpoint read path).
  void adopt_sparse(tensor::CsrMatrix wt, std::vector<float> bias);

  // --- Quantized inference form ---------------------------------------------
  /// Int8 read-only form (per-block over dense weights, per-row over an
  /// existing CSR form); same contract as BcpnnLayer::quantize.
  void quantize(std::size_t block_size);

  [[nodiscard]] bool quantized() const noexcept {
    return quant_wt_ != nullptr || quant_sparse_wt_ != nullptr;
  }

  [[nodiscard]] const tensor::QuantBlockMatrix& quant_weights() const;
  [[nodiscard]] const tensor::QuantCsr& quant_sparse_weights() const;

  /// Adopt a deserialized quantized form (checkpoint read path).
  void adopt_quant(tensor::QuantBlockMatrix wt, std::vector<float> bias);
  void adopt_quant_sparse(tensor::QuantCsr wt, std::vector<float> bias);

  // --- Checkpointing access ---------------------------------------------
  [[nodiscard]] const tensor::MatrixF& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const std::vector<float>& bias() const noexcept {
    return bias_;
  }
  /// Restore trained parameters (momentum buffers reset to zero).
  void set_state(const tensor::MatrixF& weights,
                 const std::vector<float>& bias);

 private:
  void forward(const tensor::MatrixF& features, tensor::MatrixF& probs) const;
  void apply_prune_mask();
  void require_mutable(const char* what) const;

  std::size_t classes_;
  SgdHeadConfig config_;
  float current_lr_;
  tensor::MatrixF weights_;    // [inputs x classes]
  std::vector<float> bias_;
  tensor::MatrixF velocity_;   // momentum buffer, same shape as weights
  std::vector<float> bias_velocity_;
  util::Rng rng_;
  /// Keep-mask from prune_to_density (empty = dense training); 1 = keep.
  std::vector<std::uint8_t> prune_keep_;
  std::unique_ptr<tensor::CsrMatrix> sparse_wt_;
  std::unique_ptr<tensor::QuantBlockMatrix> quant_wt_;
  std::unique_ptr<tensor::QuantCsr> quant_sparse_wt_;
};

}  // namespace streambrain::core
