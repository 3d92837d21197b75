#include "core/layer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/pruning.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/csr.hpp"

namespace streambrain::core {

BcpnnLayer::BcpnnLayer(const BcpnnConfig& config, parallel::Engine& engine,
                       util::Rng& rng)
    : config_(config),
      engine_(&engine),
      rng_(rng.split()),
      traces_(config.input_units(), config.input_bins, config.hidden_units(),
              config.mcus),
      masks_(config.hcus, config.input_hypercolumns,
             config.mask_cardinality(), rng),
      weights_(config.input_units(), config.hidden_units(), 0.0f),
      bias_(config.hidden_units(), 0.0f) {
  config_.validate();
  recompute_weights();
}

void BcpnnLayer::forward(const tensor::MatrixF& x,
                         tensor::MatrixF& activations) {
  if (x.cols() != input_units()) {
    throw std::invalid_argument("BcpnnLayer::forward: input width mismatch");
  }
  if (quant_wt_) {
    tensor::quant_support(*quant_wt_, x, bias_.data(), activations);
  } else if (quant_sparse_wt_) {
    tensor::quant_sparse_support(*quant_sparse_wt_, x, bias_.data(),
                                 activations);
  } else if (sparse_wt_) {
    tensor::sparse_support(*sparse_wt_, x, bias_.data(), activations);
  } else {
    engine_->support(x, weights_, bias_.data(), activations);
  }
  engine_->softmax_hcu(activations, config_.mcus, config_.inverse_temperature);
}

void BcpnnLayer::forward_noisy(const tensor::MatrixF& x,
                               tensor::MatrixF& activations, float noise_std) {
  if (noise_std <= 0.0f) {
    forward(x, activations);
    return;
  }
  require_mutable("forward_noisy");
  engine_->support(x, weights_, bias_.data(), activations);
  add_support_noise(rng_, noise_std, activations);
  engine_->softmax_hcu(activations, config_.mcus, config_.inverse_temperature);
}

void add_support_noise(util::Rng& rng, float noise_std,
                       tensor::MatrixF& values) {
  add_support_noise(rng, noise_std, values.data(), values.rows(),
                    values.cols(), 0, values.cols());
}

void add_support_noise(util::Rng& rng, float noise_std, float* values,
                       std::size_t rows, std::size_t row_width,
                       std::size_t col_begin, std::size_t cols) {
  // Reused per thread: one double per entry (150 KiB at batch 64 x 300).
  thread_local std::vector<double> draws;
  draws.resize(rows * row_width);
  // A pair's transform (log, sqrt, sin, cos) costs about 40 ns.
  constexpr std::size_t kMinPairsPerBlock = 1024;
  if (cols == row_width) {
    rng.fill_normal(0.0, noise_std, draws.data(), draws.size(),
                    [](std::size_t pairs,
                       const std::function<void(std::size_t, std::size_t)>&
                           body) {
                      parallel::for_blocks(pairs, kMinPairsPerBlock, body);
                    });
  } else {
    // Transform per row only the pairs holding draws of the window. The
    // windows of two rows lie at least two draws apart, so no pair is
    // visited twice.
    const std::size_t first = rng.has_cached_normal() ? 1 : 0;
    const std::size_t min_rows = std::max<std::size_t>(
        1, 2 * kMinPairsPerBlock / std::max<std::size_t>(1, cols));
    rng.fill_normal(
        0.0, noise_std, draws.data(), draws.size(),
        [&](std::size_t pairs,
            const std::function<void(std::size_t, std::size_t)>& body) {
          if (cols == 0) return;
          parallel::for_blocks(rows, min_rows, [&](std::size_t r0,
                                                   std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
              const std::size_t lo = r * row_width + col_begin;
              const std::size_t last = lo + cols - 1;
              const std::size_t p_lo = lo <= first ? 0 : (lo - first) / 2;
              const std::size_t p_hi =
                  last < first ? 0 : std::min(pairs, (last - first) / 2 + 1);
              if (p_lo < p_hi) body(p_lo, p_hi);
            }
          });
        });
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row_draws = draws.data() + r * row_width + col_begin;
    float* row_values = values + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      row_values[c] += static_cast<float>(row_draws[c]);
    }
  }
}

void BcpnnLayer::forward_spiking(const tensor::MatrixF& x,
                                 tensor::MatrixF& activations,
                                 std::size_t timesteps) {
  if (timesteps == 0) {
    throw std::invalid_argument("forward_spiking: need at least 1 timestep");
  }
  // Rate distribution first, then Poisson-style categorical sampling.
  forward(x, activations);
  const std::size_t mcus = config_.mcus;
  const float spike_value = 1.0f / static_cast<float>(timesteps);
  std::vector<double> block(mcus);
  for (std::size_t r = 0; r < activations.rows(); ++r) {
    float* row = activations.row(r);
    for (std::size_t h = 0; h < config_.hcus; ++h) {
      float* unit = row + h * mcus;
      for (std::size_t m = 0; m < mcus; ++m) block[m] = unit[m];
      for (std::size_t m = 0; m < mcus; ++m) unit[m] = 0.0f;
      for (std::size_t t = 0; t < timesteps; ++t) {
        unit[rng_.categorical(block)] += spike_value;
      }
    }
  }
}

void BcpnnLayer::train_batch(const tensor::MatrixF& x, float noise_std) {
  require_mutable("train_batch");
  forward_noisy(x, noise_scratch_, noise_std);
  traces_.update(*engine_, x, noise_scratch_, config_.alpha);
  recompute_weights();
}

void BcpnnLayer::recompute_weights() {
  require_mutable("recompute_weights");
  engine_->recompute_weights(traces_.pi().data(), traces_.pj().data(),
                             traces_.pij(), config_.eps, config_.k_beta,
                             weights_, bias_.data());
  apply_masks();
}

void BcpnnLayer::apply_masks() {
  apply_weight_masks(config_, masks_, prune_keep_, 0, weights_);
}

void apply_weight_masks(const BcpnnConfig& config,
                        const ReceptiveFieldMasks& masks,
                        const std::vector<std::uint8_t>& prune_keep,
                        std::size_t col_begin, tensor::MatrixF& w) {
  const std::size_t cols = w.cols();
  if (cols == 0) return;
  const std::size_t col_end = col_begin + cols;
  // A silent connection contributes nothing to the support: zero the
  // weight block (all input units of hypercolumn i) x (the MCUs of HCU h
  // inside the slice).
  const std::size_t bins = config.input_bins;
  const std::size_t mcus = config.mcus;
  const std::size_t inputs = config.input_hypercolumns;
  const std::size_t first_hcu = col_begin / mcus;
  const std::size_t hcus = (col_end - 1) / mcus + 1 - first_hcu;
  // (hcu, input) pairs per fan-out block: at least kMinWeightsPerBlock
  // weights, like the engine's weight recomputation, so a layer the size
  // of the paper's runs inline on every training batch.
  constexpr std::size_t kMinWeightsPerBlock = std::size_t{1} << 17;
  const std::size_t min_pairs = (kMinWeightsPerBlock + bins * mcus - 1) /
                                std::max<std::size_t>(1, bins * mcus);
  parallel::for_blocks(
      hcus * inputs, min_pairs, [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
          const std::size_t h = first_hcu + p / inputs;
          const std::size_t i = p % inputs;
          if (masks.active(h, i)) continue;
          const std::size_t j0 = std::max(h * mcus, col_begin) - col_begin;
          const std::size_t j1 = std::min((h + 1) * mcus, col_end) - col_begin;
          for (std::size_t bi = 0; bi < bins; ++bi) {
            float* w_row = w.row(i * bins + bi);
            for (std::size_t j = j0; j < j1; ++j) w_row[j] = 0.0f;
          }
        }
      });
  // Element-level magnitude pruning rides on top of the block masks: the
  // keep-mask survives every weight recomputation until re-pruned.
  if (!prune_keep.empty()) {
    const std::size_t hidden = config.hidden_units();
    constexpr std::size_t kMinWeightsPerBlock = 16384;
    parallel::for_blocks(
        w.rows(), std::max<std::size_t>(1, kMinWeightsPerBlock / cols),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            const std::uint8_t* keep =
                prune_keep.data() + r * hidden + col_begin;
            float* w_row = w.row(r);
            for (std::size_t j = 0; j < cols; ++j) {
              if (keep[j] == 0) w_row[j] = 0.0f;
            }
          }
        });
  }
}

std::size_t BcpnnLayer::prune_to_density(double density) {
  require_mutable("prune_to_density");
  prune_keep_ = magnitude_keep_mask(weights_.data(), weights_.size(), density);
  std::size_t dropped = 0;
  for (const std::uint8_t keep : prune_keep_) dropped += keep == 0;
  apply_masks();
  return dropped;
}

void BcpnnLayer::clear_pruning() {
  require_mutable("clear_pruning");
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
  recompute_weights();
}

void BcpnnLayer::set_prune_mask(std::vector<std::uint8_t> mask) {
  require_mutable("set_prune_mask");
  if (!mask.empty() && mask.size() != weights_.size()) {
    throw std::invalid_argument("BcpnnLayer::set_prune_mask: size mismatch");
  }
  prune_keep_ = std::move(mask);
  apply_masks();
}

double BcpnnLayer::weight_density() const noexcept {
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

void BcpnnLayer::sparsify() {
  if (quantized()) {
    throw std::logic_error(
        "BcpnnLayer::sparsify: layer is already quantized (sparsify before "
        "quantize, not after)");
  }
  if (sparse_wt_) return;  // idempotent
  sparse_wt_ = std::make_unique<tensor::CsrMatrix>(
      tensor::CsrMatrix::from_dense_transposed(weights_));
  weights_ = tensor::MatrixF();
  noise_scratch_ = tensor::MatrixF();
  traces_.release();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

const tensor::CsrMatrix& BcpnnLayer::sparse_weights() const {
  if (!sparse_wt_) {
    throw std::logic_error("BcpnnLayer::sparse_weights: layer is dense");
  }
  return *sparse_wt_;
}

void BcpnnLayer::adopt_sparse(tensor::CsrMatrix wt, std::vector<float> bias) {
  if (wt.rows() != hidden_units() || wt.cols() != input_units() ||
      bias.size() != hidden_units()) {
    throw std::invalid_argument("BcpnnLayer::adopt_sparse: shape mismatch");
  }
  sparse_wt_ = std::make_unique<tensor::CsrMatrix>(std::move(wt));
  bias_ = std::move(bias);
  weights_ = tensor::MatrixF();
  noise_scratch_ = tensor::MatrixF();
  traces_.release();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void BcpnnLayer::quantize(std::size_t block_size) {
  if (quantized()) return;  // idempotent
  if (sparse_wt_) {
    quant_sparse_wt_ =
        std::make_unique<tensor::QuantCsr>(tensor::QuantCsr::from_csr(*sparse_wt_));
    sparse_wt_.reset();
    return;
  }
  quant_wt_ = std::make_unique<tensor::QuantBlockMatrix>(
      tensor::QuantBlockMatrix::from_dense_transposed(weights_, block_size));
  weights_ = tensor::MatrixF();
  noise_scratch_ = tensor::MatrixF();
  traces_.release();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

const tensor::QuantBlockMatrix& BcpnnLayer::quant_weights() const {
  if (!quant_wt_) {
    throw std::logic_error("BcpnnLayer::quant_weights: layer is not in the "
                           "dense-quantized form");
  }
  return *quant_wt_;
}

const tensor::QuantCsr& BcpnnLayer::quant_sparse_weights() const {
  if (!quant_sparse_wt_) {
    throw std::logic_error("BcpnnLayer::quant_sparse_weights: layer is not "
                           "in the sparse-quantized form");
  }
  return *quant_sparse_wt_;
}

void BcpnnLayer::adopt_quant(tensor::QuantBlockMatrix wt,
                             std::vector<float> bias) {
  if (wt.rows() != hidden_units() || wt.cols() != input_units() ||
      bias.size() != hidden_units()) {
    throw std::invalid_argument("BcpnnLayer::adopt_quant: shape mismatch");
  }
  quant_wt_ = std::make_unique<tensor::QuantBlockMatrix>(std::move(wt));
  quant_sparse_wt_.reset();
  bias_ = std::move(bias);
  sparse_wt_.reset();
  weights_ = tensor::MatrixF();
  noise_scratch_ = tensor::MatrixF();
  traces_.release();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void BcpnnLayer::adopt_quant_sparse(tensor::QuantCsr wt,
                                    std::vector<float> bias) {
  if (wt.rows() != hidden_units() || wt.cols() != input_units() ||
      bias.size() != hidden_units()) {
    throw std::invalid_argument(
        "BcpnnLayer::adopt_quant_sparse: shape mismatch");
  }
  quant_sparse_wt_ = std::make_unique<tensor::QuantCsr>(std::move(wt));
  quant_wt_.reset();
  bias_ = std::move(bias);
  sparse_wt_.reset();
  weights_ = tensor::MatrixF();
  noise_scratch_ = tensor::MatrixF();
  traces_.release();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void BcpnnLayer::require_mutable(const char* what) const {
  if (sparse_wt_) {
    throw std::logic_error(std::string("BcpnnLayer::") + what +
                           ": layer is in the read-only sparse form");
  }
  if (quantized()) {
    throw std::logic_error(std::string("BcpnnLayer::") + what +
                           ": layer is in the read-only quantized form");
  }
}

std::size_t BcpnnLayer::plasticity_step() {
  require_mutable("plasticity_step");
  PlasticityConfig plasticity;
  plasticity.swaps_per_hcu = config_.plasticity_swaps;
  plasticity.hysteresis = config_.plasticity_hysteresis;
  const std::size_t swaps = structural_plasticity_step(
      masks_, traces_, config_.input_bins, config_.mcus, config_.eps,
      plasticity);
  if (swaps > 0) recompute_weights();
  return swaps;
}

void BcpnnLayer::set_state(const ProbabilityTraces& traces,
                           const ReceptiveFieldMasks& masks) {
  require_mutable("set_state");
  if (traces.inputs() != traces_.inputs() ||
      traces.outputs() != traces_.outputs()) {
    throw std::invalid_argument("BcpnnLayer::set_state: trace shape mismatch");
  }
  traces_ = traces;
  masks_ = masks;
  recompute_weights();
}

std::vector<std::vector<float>> BcpnnLayer::mi_map() const {
  require_mutable("mi_map");
  return mutual_information_map(traces_, config_.input_bins, config_.hcus,
                                config_.mcus, config_.eps);
}

}  // namespace streambrain::core
