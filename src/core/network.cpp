#include "core/network.hpp"

#include <stdexcept>

#include "data/dataset.hpp"
#include "parallel/engine_registry.hpp"
#include "util/timer.hpp"

namespace streambrain::core {

Network::Network(NetworkConfig config)
    : config_(std::move(config)),
      engine_(parallel::EngineRegistry::instance().create(config_.bcpnn.engine)),
      rng_(config_.bcpnn.seed) {
  config_.bcpnn.validate();
  hidden_ = std::make_unique<BcpnnLayer>(config_.bcpnn, *engine_, rng_);
  if (config_.head == HeadType::kBcpnn) {
    bcpnn_head_ = std::make_unique<BcpnnClassifier>(
        config_.bcpnn.hidden_units(), config_.bcpnn.hcus, config_.classes,
        *engine_, config_.bcpnn.alpha_supervised, config_.bcpnn.eps,
        config_.bcpnn.k_beta);
  } else {
    SgdHeadConfig sgd = config_.sgd;
    sgd.batch_size = config_.bcpnn.batch_size;
    sgd_head_ = std::make_unique<SgdHead>(config_.bcpnn.hidden_units(),
                                          config_.classes, sgd);
  }
}

FitReport Network::fit_unsupervised(const tensor::MatrixF& x) {
  FitReport report;
  util::Stopwatch unsup_watch;
  report.total_plasticity_swaps =
      fit_hidden_layer(*hidden_, x, rng_, epoch_callback_);
  report.unsupervised_seconds = unsup_watch.seconds();
  return report;
}

FitReport Network::fit(const tensor::MatrixF& x,
                       const std::vector<int>& labels) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("Network::fit: rows != labels");
  }
  // Phase 1: unsupervised hidden layer; phase 2: supervised head on the
  // frozen representation.
  FitReport report = fit_unsupervised(x);
  util::Stopwatch head_watch;
  fit_head(x, labels);
  report.head_seconds = head_watch.seconds();
  return report;
}

double Network::fit_head(const tensor::MatrixF& x,
                         const std::vector<int>& labels) {
  const auto& cfg = config_.bcpnn;
  const tensor::MatrixF hidden_repr = transform(x);
  const tensor::MatrixF targets =
      data::one_hot_labels(labels, config_.classes);
  // Same prune/rewire cadence as the hidden layer, applied to either head
  // type: the mask pins pruned weights at zero between re-selections.
  if (config_.head == HeadType::kSgd) {
    double last_loss = 0.0;
    for (std::size_t epoch = 0; epoch < cfg.head_epochs; ++epoch) {
      last_loss = sgd_head_->train_epoch(hidden_repr, targets);
      prune_on_cadence(*sgd_head_, cfg, epoch);
    }
    return last_loss;
  }
  fit_bcpnn_head(*bcpnn_head_, hidden_repr, targets, cfg.head_epochs,
                 cfg.batch_size, rng_, [this, &cfg](std::size_t epoch) {
                   prune_on_cadence(*bcpnn_head_, cfg, epoch);
                 });
  return 0.0;
}

void Network::partial_fit(const tensor::MatrixF& x,
                          const std::vector<int>& labels) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("Network::partial_fit: rows != labels");
  }
  if (x.rows() == 0) return;
  // Hidden step at the schedule's terminal noise: a streaming batch
  // arrives "after" the annealing window, so it trains the way the last
  // fit() epoch did.
  hidden_->train_batch(x, config_.bcpnn.noise_end);
  const tensor::MatrixF hidden_repr = transform(x);
  const tensor::MatrixF targets =
      data::one_hot_labels(labels, config_.classes);
  if (config_.head == HeadType::kSgd) {
    sgd_head_->train_epoch(hidden_repr, targets);
  } else {
    bcpnn_head_->train_batch(hidden_repr, targets);
  }
}

tensor::MatrixF Network::transform(const tensor::MatrixF& x) {
  tensor::MatrixF activations;
  hidden_->forward(x, activations);
  return activations;
}

std::vector<int> Network::predict(const tensor::MatrixF& x) {
  const tensor::MatrixF hidden_repr = transform(x);
  return config_.head == HeadType::kBcpnn
             ? bcpnn_head_->predict_labels(hidden_repr)
             : sgd_head_->predict_labels(hidden_repr);
}

std::vector<double> Network::predict_scores(const tensor::MatrixF& x) {
  const tensor::MatrixF hidden_repr = transform(x);
  return config_.head == HeadType::kBcpnn
             ? bcpnn_head_->predict_scores(hidden_repr)
             : sgd_head_->predict_scores(hidden_repr);
}

void Network::sparsify() {
  hidden_->sparsify();
  if (bcpnn_head_) {
    bcpnn_head_->sparsify();
  } else {
    sgd_head_->sparsify();
  }
}

bool Network::sparse() const noexcept { return hidden_->sparse(); }

void Network::quantize(std::size_t block_size) {
  hidden_->quantize(block_size);
  if (bcpnn_head_) {
    bcpnn_head_->quantize(block_size);
  } else {
    sgd_head_->quantize(block_size);
  }
}

bool Network::quantized() const noexcept { return hidden_->quantized(); }

}  // namespace streambrain::core
