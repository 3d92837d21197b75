#pragma once
// The unsupervised BCPNN hidden layer: HCU/MCU geometry, soft-WTA
// activation, local trace learning, Bayesian weight recomputation, and
// structural plasticity over the receptive-field masks.
//
// Learning is fully local (Section II-A): a batch update touches only the
// layer's own traces; nothing propagates backward. The layer is
// unsupervised — its training target is its own (noise-perturbed)
// activation, with the noise annealed to zero over the training schedule
// so minicolumns first explore and then commit to features.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/hyperparams.hpp"
#include "core/plasticity.hpp"
#include "core/traces.hpp"
#include "parallel/engine.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/quant.hpp"
#include "util/rng.hpp"

namespace streambrain::core {

class BcpnnLayer {
 public:
  /// `engine` must outlive the layer.
  BcpnnLayer(const BcpnnConfig& config, parallel::Engine& engine,
             util::Rng& rng);

  // --- Inference ---------------------------------------------------------
  /// Deterministic forward pass: activations = soft-WTA(support(x)).
  /// `x` is [batch x input_units()], activations resized to
  /// [batch x hidden_units()].
  void forward(const tensor::MatrixF& x, tensor::MatrixF& activations);

  /// Forward with additive Gaussian support noise (training-time only).
  void forward_noisy(const tensor::MatrixF& x, tensor::MatrixF& activations,
                     float noise_std);

  // --- Learning ----------------------------------------------------------
  /// One unsupervised batch: noisy forward, trace EMA update, weight
  /// recomputation. This is the inner loop the engines accelerate.
  void train_batch(const tensor::MatrixF& x, float noise_std);

  /// Recompute weights and biases from the traces and re-apply the masks.
  void recompute_weights();

  /// One structural-plasticity step (call once per epoch). Returns the
  /// number of connection swaps performed.
  std::size_t plasticity_step();

  /// Override the per-epoch swap budget (used by the adaptive-plasticity
  /// controller, the paper's future-work extension).
  void set_plasticity_swaps(std::size_t swaps) noexcept {
    config_.plasticity_swaps = swaps;
  }

  // --- Structural pruning --------------------------------------------------
  /// Magnitude-based element pruning: keep the `density` fraction of
  /// weight entries with the largest |w| (deterministic tie-break by
  /// ascending index), zero the rest, and remember the keep-mask so it
  /// survives every subsequent recompute_weights(). Calling it again
  /// re-selects the mask from the current magnitudes (the "rewire" half
  /// of the in-training prune/rewire cadence). Returns the number of
  /// zeroed entries. density must be in (0, 1].
  std::size_t prune_to_density(double density);

  /// Drop the element keep-mask (the receptive-field masks stay).
  void clear_pruning();

  /// Checkpointing access: the element keep-mask (empty when unpruned).
  [[nodiscard]] const std::vector<std::uint8_t>& prune_mask() const noexcept {
    return prune_keep_;
  }

  /// Adopt a checkpointed keep-mask (empty clears) and re-apply it —
  /// without this, loading a pruned model would silently regrow the
  /// pruned weights from the traces. Throws on size mismatch.
  void set_prune_mask(std::vector<std::uint8_t> mask);

  /// True when an element keep-mask is active.
  [[nodiscard]] bool pruned() const noexcept { return !prune_keep_.empty(); }

  /// Fraction of weight entries currently non-zero.
  [[nodiscard]] double weight_density() const noexcept;

  // --- Sparse inference form -----------------------------------------------
  /// Convert to the compact read-only inference form: compress the
  /// (masked, pruned) weights to CSR (transposed: one sparse row per
  /// hidden unit), then free the dense weights AND the probability
  /// traces. forward()/forward_spiking() keep working bit-identically
  /// (at scalar dispatch) through the sparse kernels; every training
  /// entry point throws std::logic_error afterwards. Irreversible.
  void sparsify();

  /// True for both the fp32-CSR and the quantized-CSR forms (either way
  /// the weights live on the CSR index structure).
  [[nodiscard]] bool sparse() const noexcept {
    return sparse_wt_ != nullptr || quant_sparse_wt_ != nullptr;
  }

  /// CSR of W^T (throws std::logic_error when not sparsified).
  [[nodiscard]] const tensor::CsrMatrix& sparse_weights() const;

  /// Adopt a deserialized sparse form directly (checkpoint read path).
  /// Shape-checked against the layer geometry; replaces any dense state.
  void adopt_sparse(tensor::CsrMatrix wt, std::vector<float> bias);

  // --- Quantized inference form --------------------------------------------
  /// Convert to the int8 read-only inference form: per-block symmetric
  /// quantization of the dense weights (QuantBlockMatrix of W^T), or of
  /// the CSR values (QuantCsr, per-row scales) when the layer already
  /// sparsified — quantization composes AFTER sparsify(). Frees the
  /// replaced weight storage and the traces; every training entry point
  /// throws std::logic_error afterwards. Irreversible and idempotent.
  void quantize(std::size_t block_size);

  [[nodiscard]] bool quantized() const noexcept {
    return quant_wt_ != nullptr || quant_sparse_wt_ != nullptr;
  }

  /// Block-quantized W^T (throws std::logic_error unless dense-quantized).
  [[nodiscard]] const tensor::QuantBlockMatrix& quant_weights() const;

  /// Quantized CSR of W^T (throws std::logic_error unless sparse-quantized).
  [[nodiscard]] const tensor::QuantCsr& quant_sparse_weights() const;

  /// Adopt a deserialized quantized form (checkpoint read path); shape
  /// checked against the layer geometry, replaces any other weight form.
  void adopt_quant(tensor::QuantBlockMatrix wt, std::vector<float> bias);
  void adopt_quant_sparse(tensor::QuantCsr wt, std::vector<float> bias);

  /// Spiking forward pass — BCPNN's spiking model of computation
  /// (Section II: "supports both spiking- and rate-based models").
  /// Each HCU emits one categorical spike per timestep drawn from its
  /// soft-WTA distribution; activations are normalized spike counts and
  /// converge to the rate-based forward() as timesteps grows.
  void forward_spiking(const tensor::MatrixF& x, tensor::MatrixF& activations,
                       std::size_t timesteps);

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] const BcpnnConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t input_units() const noexcept {
    return config_.input_units();
  }
  [[nodiscard]] std::size_t hidden_units() const noexcept {
    return config_.hidden_units();
  }
  [[nodiscard]] const ReceptiveFieldMasks& masks() const noexcept {
    return masks_;
  }
  [[nodiscard]] const ProbabilityTraces& traces() const noexcept {
    return traces_;
  }
  [[nodiscard]] ProbabilityTraces& mutable_traces() noexcept {
    return traces_;
  }
  [[nodiscard]] const tensor::MatrixF& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const std::vector<float>& bias() const noexcept {
    return bias_;
  }
  /// MI map used by the last plasticity step (for visualization).
  [[nodiscard]] std::vector<std::vector<float>> mi_map() const;

  /// Overwrite traces and masks (used by the distributed trainer to adopt
  /// the synchronized state); recomputes the weights.
  void set_state(const ProbabilityTraces& traces,
                 const ReceptiveFieldMasks& masks);

 private:
  void apply_masks();
  void require_mutable(const char* what) const;

  BcpnnConfig config_;
  parallel::Engine* engine_;
  util::Rng rng_;
  ProbabilityTraces traces_;
  ReceptiveFieldMasks masks_;
  tensor::MatrixF weights_;   // [input_units x hidden_units]
  std::vector<float> bias_;   // [hidden_units]
  tensor::MatrixF noise_scratch_;
  /// Element keep-mask from prune_to_density (empty = no pruning);
  /// weights_.size() bytes, 1 = keep. Re-applied by apply_masks().
  std::vector<std::uint8_t> prune_keep_;
  /// Non-null once sparsify()/adopt_sparse() ran: CSR of W^T, the only
  /// weight storage of the read-only inference form.
  std::unique_ptr<tensor::CsrMatrix> sparse_wt_;
  /// At most one non-null: the int8 forms of quantize()/adopt_quant*().
  std::unique_ptr<tensor::QuantBlockMatrix> quant_wt_;
  std::unique_ptr<tensor::QuantCsr> quant_sparse_wt_;
};

/// values[i] += N(0, noise_std), exactly the draws of per-entry
/// rng.normal(0, noise_std) calls in row-major order; the Box-Muller
/// transforms fan out through parallel::for_blocks.
void add_support_noise(util::Rng& rng, float noise_std,
                       tensor::MatrixF& values);

/// The same restricted to the columns [col_begin, col_begin + cols) of
/// a rows x row_width matrix: `values` holds just those columns (rows x
/// cols, contiguous) and receives exactly the draws the whole matrix
/// would, and the generator ends in the same state. Only the Box-Muller
/// pairs that reach those columns are transformed.
void add_support_noise(util::Rng& rng, float noise_std, float* values,
                       std::size_t rows, std::size_t row_width,
                       std::size_t col_begin, std::size_t cols);

/// Zero what the receptive-field masks and the element keep-mask (empty:
/// none) remove from `w`, which holds the hidden-unit columns
/// [col_begin, col_begin + w.cols()) of a layer of `config`'s geometry —
/// what recompute_weights() does to the whole weight matrix, applied to
/// a column slice.
void apply_weight_masks(const BcpnnConfig& config,
                        const ReceptiveFieldMasks& masks,
                        const std::vector<std::uint8_t>& prune_keep,
                        std::size_t col_begin, tensor::MatrixF& w);

}  // namespace streambrain::core
