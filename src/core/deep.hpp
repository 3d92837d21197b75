#pragma once
// Stacked BCPNN: several hidden layers trained greedily layer-by-layer,
// each unsupervised on the (frozen) activations of the layer below —
// StreamBrain's layer-wise training generalized past the paper's
// three-layer topology ("Among the future direction is to use more HCUs
// and hybrid training", §VII). Because each hidden layer's output is a
// stack of per-HCU simplexes, it is exactly the modular one-active-ish
// code the next layer's probability model expects; only the geometry
// metadata (hypercolumn count/size) changes between layers.

#include <cstddef>
#include <memory>
#include <vector>

#include "core/classifier.hpp"
#include "core/hyperparams.hpp"
#include "core/layer.hpp"
#include "core/sgd_head.hpp"

namespace streambrain::core {

struct DeepBcpnnConfig {
  /// Geometry of the encoded input.
  std::size_t input_hypercolumns = 28;
  std::size_t input_bins = 10;
  /// One entry per hidden layer: (hcus, mcus, receptive_field).
  struct LayerSpec {
    std::size_t hcus = 1;
    std::size_t mcus = 100;
    double receptive_field = 0.4;
  };
  std::vector<LayerSpec> layers = {{2, 64, 0.4}, {1, 64, 0.6}};
  std::size_t classes = 2;
  /// Propagate hard winner-take-all codes between layers (default). The
  /// lower layer's soft simplex is low-contrast (mass 1 spread over M
  /// MCUs), which starves the next layer's support; WTA restores the
  /// exactly-one-active-unit-per-hypercolumn code the BCPNN probability
  /// model is built on.
  bool propagate_wta = true;
  /// Shared schedule knobs (applied to every layer).
  float alpha = 0.05f;
  std::size_t epochs_per_layer = 8;
  std::size_t head_epochs = 16;
  std::size_t batch_size = 64;
  float noise_start = 3.0f;
  std::string engine = "simd";
  std::uint64_t seed = 1;
};

class DeepBcpnn {
 public:
  explicit DeepBcpnn(DeepBcpnnConfig config);

  /// Greedy layer-wise unsupervised training, then the supervised head.
  void fit(const tensor::MatrixF& x, const std::vector<int>& labels);

  /// Activations of the top hidden layer.
  [[nodiscard]] tensor::MatrixF transform(const tensor::MatrixF& x);

  [[nodiscard]] std::vector<int> predict(const tensor::MatrixF& x);
  [[nodiscard]] std::vector<double> predict_scores(const tensor::MatrixF& x);

  /// Convert every hidden layer and the head to the compact read-only
  /// sparse inference form. Irreversible; fit() throws afterwards.
  void sparsify();

  [[nodiscard]] bool sparse() const noexcept;

  /// Convert every hidden layer and the head to the int8 read-only
  /// quantized form — composable after sparsify(). fit() throws after.
  void quantize(std::size_t block_size);

  [[nodiscard]] bool quantized() const noexcept;

  [[nodiscard]] std::size_t depth() const noexcept { return layers_.size(); }
  [[nodiscard]] const BcpnnLayer& layer(std::size_t i) const {
    return *layers_.at(i);
  }
  [[nodiscard]] BcpnnLayer& mutable_layer(std::size_t i) {
    return *layers_.at(i);
  }
  [[nodiscard]] const DeepBcpnnConfig& config() const noexcept {
    return config_;
  }
  /// Supervised head over the top hidden code (for checkpointing).
  [[nodiscard]] BcpnnClassifier& head() noexcept { return *head_; }
  [[nodiscard]] const BcpnnClassifier& head() const noexcept { return *head_; }
  /// Compute backend shared by all layers (the distributed trainer drives
  /// per-shard forwards through it).
  [[nodiscard]] parallel::Engine& engine() noexcept { return *engine_; }

 private:
  /// Forward through layer `index`, applying WTA when configured.
  void propagate(std::size_t index, const tensor::MatrixF& in,
                 tensor::MatrixF& out);

  DeepBcpnnConfig config_;
  std::unique_ptr<parallel::Engine> engine_;
  util::Rng rng_;
  std::vector<std::unique_ptr<BcpnnLayer>> layers_;
  std::unique_ptr<BcpnnClassifier> head_;
};

}  // namespace streambrain::core
