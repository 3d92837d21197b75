#pragma once
// Three-layer BCPNN network (input -> hidden -> classification), the
// paper's standard topology, with either a supervised BCPNN read-out
// ("pure BCPNN") or an SGD softmax-regression read-out ("BCPNN+SGD",
// Section V-A's best configuration).
//
// Training follows StreamBrain's layer-wise schedule: the hidden layer
// first learns unsupervised (annealed support noise, one structural-
// plasticity step per epoch), then the head is trained supervised on the
// frozen hidden representation.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/classifier.hpp"
#include "core/head.hpp"
#include "core/hyperparams.hpp"
#include "core/layer.hpp"
#include "core/schedule.hpp"
#include "core/sgd_head.hpp"
#include "parallel/engine.hpp"
#include "tensor/matrix.hpp"

namespace streambrain::core {

struct NetworkConfig {
  BcpnnConfig bcpnn;
  HeadType head = HeadType::kBcpnn;
  std::size_t classes = 2;
  SgdHeadConfig sgd;
};

struct FitReport {
  double unsupervised_seconds = 0.0;
  double head_seconds = 0.0;
  std::size_t total_plasticity_swaps = 0;
  [[nodiscard]] double total_seconds() const noexcept {
    return unsupervised_seconds + head_seconds;
  }
};

class Network {
 public:
  explicit Network(NetworkConfig config);

  void set_epoch_callback(EpochCallback callback) {
    epoch_callback_ = std::move(callback);
  }

  /// Full training schedule on encoded inputs + integer labels.
  FitReport fit(const tensor::MatrixF& x, const std::vector<int>& labels);

  /// One incremental step on a labeled mini-batch (streaming learning):
  /// a hidden train_batch at the annealed-schedule's final noise level,
  /// then one supervised pass of the head on the batch's hidden
  /// representation. No shuffling, no plasticity swap, no pruning —
  /// those remain epoch-cadence concerns of fit(). Safe to call on a
  /// fit()-trained network to keep refining it.
  void partial_fit(const tensor::MatrixF& x, const std::vector<int>& labels);

  /// Phase 1 only: unsupervised hidden-layer training on unlabeled rows
  /// (annealed noise + per-epoch structural plasticity). Used directly by
  /// the semi-supervised mode.
  FitReport fit_unsupervised(const tensor::MatrixF& x);

  /// Hidden representation of a batch (deterministic forward).
  [[nodiscard]] tensor::MatrixF transform(const tensor::MatrixF& x);

  [[nodiscard]] std::vector<int> predict(const tensor::MatrixF& x);
  /// P(class == 1) per row, for AUC.
  [[nodiscard]] std::vector<double> predict_scores(const tensor::MatrixF& x);

  [[nodiscard]] const BcpnnLayer& hidden() const noexcept { return *hidden_; }
  [[nodiscard]] BcpnnLayer& mutable_hidden() noexcept { return *hidden_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] parallel::Engine& engine() noexcept { return *engine_; }

  /// Phase 2 only: train the head on the frozen hidden representation
  /// (the semi-supervised mode's labeled pass). Returns the last SGD
  /// epoch's mean loss (0 for the BCPNN head).
  double fit_head(const tensor::MatrixF& x, const std::vector<int>& labels);

  /// Convert hidden layer + head to the compact read-only sparse
  /// inference form (see BcpnnLayer::sparsify). Irreversible; training
  /// entry points throw std::logic_error afterwards.
  void sparsify();

  [[nodiscard]] bool sparse() const noexcept;

  /// Convert hidden layer + head to the int8 read-only quantized form
  /// (see BcpnnLayer::quantize) — composable after sparsify().
  void quantize(std::size_t block_size);

  [[nodiscard]] bool quantized() const noexcept;

  /// Head access for checkpointing; exactly one is non-null depending on
  /// the configured head type.
  [[nodiscard]] BcpnnClassifier* bcpnn_head() noexcept {
    return bcpnn_head_.get();
  }
  [[nodiscard]] const BcpnnClassifier* bcpnn_head() const noexcept {
    return bcpnn_head_.get();
  }
  [[nodiscard]] SgdHead* sgd_head() noexcept { return sgd_head_.get(); }
  [[nodiscard]] const SgdHead* sgd_head() const noexcept {
    return sgd_head_.get();
  }

 private:
  NetworkConfig config_;
  std::unique_ptr<parallel::Engine> engine_;
  util::Rng rng_;
  std::unique_ptr<BcpnnLayer> hidden_;
  std::unique_ptr<BcpnnClassifier> bcpnn_head_;
  std::unique_ptr<SgdHead> sgd_head_;
  EpochCallback epoch_callback_;
};

}  // namespace streambrain::core
