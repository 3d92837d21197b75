#include "core/deep.hpp"

#include <stdexcept>

#include "core/schedule.hpp"
#include "data/dataset.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/kernels.hpp"

namespace streambrain::core {

DeepBcpnn::DeepBcpnn(DeepBcpnnConfig config)
    : config_(std::move(config)),
      engine_(parallel::EngineRegistry::instance().create(config_.engine)),
      rng_(config_.seed) {
  if (config_.layers.empty()) {
    throw std::invalid_argument("DeepBcpnn: need at least one hidden layer");
  }
  // Layer l consumes the hypercolumn geometry of layer l-1's output.
  std::size_t below_hcs = config_.input_hypercolumns;
  std::size_t below_units = config_.input_bins;
  for (const auto& spec : config_.layers) {
    BcpnnConfig layer_config;
    layer_config.input_hypercolumns = below_hcs;
    layer_config.input_bins = below_units;
    layer_config.hcus = spec.hcus;
    layer_config.mcus = spec.mcus;
    layer_config.receptive_field = spec.receptive_field;
    layer_config.alpha = config_.alpha;
    layer_config.epochs = config_.epochs_per_layer;
    layer_config.batch_size = config_.batch_size;
    layer_config.noise_start = config_.noise_start;
    layer_config.engine = config_.engine;
    layer_config.seed = config_.seed;
    layers_.push_back(
        std::make_unique<BcpnnLayer>(layer_config, *engine_, rng_));
    below_hcs = spec.hcus;
    below_units = spec.mcus;
  }
  head_ = std::make_unique<BcpnnClassifier>(
      config_.layers.back().hcus * config_.layers.back().mcus,
      config_.layers.back().hcus, config_.classes, *engine_, 0.1f);
}

void DeepBcpnn::propagate(std::size_t index, const tensor::MatrixF& in,
                          tensor::MatrixF& out) {
  layers_[index]->forward(in, out);
  if (config_.propagate_wta) {
    tensor::wta_blocks(out, config_.layers[index].mcus);
  }
}

void DeepBcpnn::fit(const tensor::MatrixF& x, const std::vector<int>& labels) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("DeepBcpnn::fit: rows != labels");
  }
  // Greedy stack: train layer 0 on the input, freeze, propagate, repeat.
  tensor::MatrixF current = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    fit_hidden_layer(*layers_[l], current, rng_);
    tensor::MatrixF next;
    propagate(l, current, next);
    current = std::move(next);
  }
  // Supervised head on the top code — recomputed via transform() so the
  // head trains on exactly the representation it will see at inference
  // (soft top layer, WTA below).
  fit_bcpnn_head(*head_, transform(x),
                 data::one_hot_labels(labels, config_.classes),
                 config_.head_epochs, config_.batch_size, rng_);
}

tensor::MatrixF DeepBcpnn::transform(const tensor::MatrixF& x) {
  tensor::MatrixF current = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    tensor::MatrixF next;
    if (l + 1 == layers_.size()) {
      // Keep the top code soft: the head benefits from graded evidence.
      layers_[l]->forward(current, next);
    } else {
      propagate(l, current, next);
    }
    current = std::move(next);
  }
  return current;
}

std::vector<int> DeepBcpnn::predict(const tensor::MatrixF& x) {
  return head_->predict_labels(transform(x));
}

std::vector<double> DeepBcpnn::predict_scores(const tensor::MatrixF& x) {
  return head_->predict_scores(transform(x));
}

void DeepBcpnn::sparsify() {
  for (auto& layer : layers_) layer->sparsify();
  head_->sparsify();
}

bool DeepBcpnn::sparse() const noexcept {
  return !layers_.empty() && layers_.front()->sparse();
}

void DeepBcpnn::quantize(std::size_t block_size) {
  for (auto& layer : layers_) layer->quantize(block_size);
  head_->quantize(block_size);
}

bool DeepBcpnn::quantized() const noexcept {
  return !layers_.empty() && layers_.front()->quantized();
}

}  // namespace streambrain::core
