#pragma once
// Hyper-parameters of the BCPNN model. The paper (Section IV) notes that
// "the formulation of BCPNN implies a larger number of hyperparameters
// that are use-case-dependent" — this struct is the single source of
// truth for them, and the HPO module mutates it through Config keys.

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/config.hpp"

namespace streambrain::core {

struct BcpnnConfig {
  // --- Geometry ---------------------------------------------------------
  std::size_t input_hypercolumns = 28;  ///< F: one per raw feature
  std::size_t input_bins = 10;          ///< units per input hypercolumn
  std::size_t hcus = 1;                 ///< hidden hypercolumn units
  std::size_t mcus = 300;               ///< minicolumn units per HCU

  /// Fraction of input hypercolumns each hidden HCU connects to
  /// (the paper's "receptive field", swept 0..100% in Fig. 4).
  double receptive_field = 0.30;

  // --- Learning rule ----------------------------------------------------
  float alpha = 0.05f;             ///< trace EMA rate, unsupervised layer
  float alpha_supervised = 0.10f;  ///< trace EMA rate, class layer
  float eps = 1e-4f;               ///< probability floor in log ratios
  float k_beta = 1.0f;             ///< bias gain
  float inverse_temperature = 1.0f;

  // --- Unsupervised annealing -------------------------------------------
  /// Gaussian support noise for symmetry breaking, linearly annealed from
  /// `noise_start` to `noise_end` across the unsupervised epochs.
  float noise_start = 3.0f;
  float noise_end = 0.0f;

  // --- Structural plasticity --------------------------------------------
  std::size_t plasticity_swaps = 2;   ///< connection swaps per HCU per epoch
  double plasticity_hysteresis = 0.05;  ///< silent must beat active by 5%

  // --- Structural pruning ------------------------------------------------
  /// Fraction of hidden-layer weights the in-training prune/rewire
  /// cadence keeps (magnitude-based, re-selected at every prune so a
  /// connection that grows back in can displace a weaker one). 1 = dense.
  double prune_density = 1.0;
  /// Prune every this many epochs (after the plasticity step for the
  /// hidden layer, after each supervised epoch for the head). 0 disables the
  /// cadence; one-shot post-training pruning goes through
  /// core::prune_model instead.
  std::size_t prune_cadence = 0;

  // --- Training schedule -------------------------------------------------
  std::size_t epochs = 12;        ///< unsupervised epochs (hidden layer)
  std::size_t head_epochs = 24;   ///< supervised epochs (classifier head)
  std::size_t batch_size = 64;

  // --- Execution ----------------------------------------------------------
  std::string engine = "simd";    ///< naive | simd | device_sim
  std::uint64_t seed = 1;

  /// Hidden-layer width.
  [[nodiscard]] std::size_t hidden_units() const noexcept {
    return hcus * mcus;
  }
  /// Encoded input width.
  [[nodiscard]] std::size_t input_units() const noexcept {
    return input_hypercolumns * input_bins;
  }
  /// Active input hypercolumns per hidden HCU (at least 1).
  [[nodiscard]] std::size_t mask_cardinality() const noexcept;
  /// Support-noise std of unsupervised `epoch`: linear from noise_start
  /// at epoch 0 to noise_end at the last epoch (noise_end when there is
  /// only one epoch). The only annealing formula of the schedule.
  [[nodiscard]] float noise_at(std::size_t epoch) const noexcept;

  /// Overlay values from a Config (keys: hcus, mcus, receptive_field,
  /// alpha, alpha_supervised, k_beta, inverse_temperature, noise_start,
  /// epochs, head_epochs, batch_size, plasticity_swaps, prune_density,
  /// prune_cadence, engine, seed).
  void apply(const util::Config& config);

  /// Validate invariants; throws std::invalid_argument on violations.
  void validate() const;
};

}  // namespace streambrain::core
