#pragma once
// The serial layer-wise training schedule (StreamBrain's): annealed
// support noise, one structural-plasticity step per unsupervised epoch,
// the prune/rewire cadence, and the shuffled mini-batch pass every
// phase runs — each written once here. Network and DeepBcpnn compose
// these steps; the data-parallel trainer (core/distributed.cpp) keeps
// its own synchronized batch loop but ends every epoch with the same
// end-of-epoch steps.

#include <cstddef>
#include <functional>
#include <vector>

#include "core/classifier.hpp"
#include "core/hyperparams.hpp"
#include "core/layer.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace streambrain::core {

/// Per-epoch progress snapshot handed to the epoch callback (this is the
/// hook the CatalystAdaptor subscribes through).
struct EpochInfo {
  std::size_t epoch = 0;       ///< unsupervised epoch index
  float noise_std = 0.0f;      ///< annealed support noise this epoch
  std::size_t plasticity_swaps = 0;
};

using EpochCallback = std::function<void(const EpochInfo&, const BcpnnLayer&)>;

/// Calls fn(batch_x, batch_t) on consecutive mini-batches of at most
/// `batch_size` rows, gathered from `x` (and from `targets` when it is
/// non-null; batch_t stays empty otherwise) in the order of the
/// caller-owned permutation `order`.
void for_each_batch(
    const tensor::MatrixF& x, const tensor::MatrixF* targets,
    const std::vector<std::size_t>& order, std::size_t batch_size,
    const std::function<void(const tensor::MatrixF&, const tensor::MatrixF&)>&
        fn);

/// The prune/rewire cadence of `cfg` after `epoch`: re-select the
/// magnitude keep-mask of `target` (a hidden layer or either head) every
/// prune_cadence epochs; a cadence of 0 or a density of 1 disables it.
template <typename Prunable>
void prune_on_cadence(Prunable& target, const BcpnnConfig& cfg,
                      std::size_t epoch) {
  if (cfg.prune_cadence > 0 && cfg.prune_density < 1.0 &&
      (epoch + 1) % cfg.prune_cadence == 0) {
    target.prune_to_density(cfg.prune_density);
  }
}

/// A hidden layer's end-of-epoch step: one structural-plasticity step,
/// then the prune cadence of the layer's config — right after the swap,
/// so a swapped-in connection competes for survival on its fresh
/// weights. Returns the plasticity swaps.
std::size_t end_hidden_epoch(BcpnnLayer& layer, std::size_t epoch);

/// Unsupervised phase of one hidden layer, scheduled by layer.config():
/// per epoch the annealed noise, a reshuffle (by `rng`) of one
/// permutation kept across epochs, train_batch over its mini-batches,
/// then end_hidden_epoch and `on_epoch` (may be empty). Returns the
/// total plasticity swaps.
std::size_t fit_hidden_layer(BcpnnLayer& layer, const tensor::MatrixF& x,
                             util::Rng& rng,
                             const EpochCallback& on_epoch = {});

/// Supervised BCPNN head: `epochs` passes of train_batch over mini-batches
/// of (hidden, targets), with one permutation kept across epochs and
/// reshuffled by `rng`; `end_epoch(epoch)` (may be empty) after each.
void fit_bcpnn_head(BcpnnClassifier& head, const tensor::MatrixF& hidden,
                    const tensor::MatrixF& targets, std::size_t epochs,
                    std::size_t batch_size, util::Rng& rng,
                    const std::function<void(std::size_t)>& end_epoch = {});

}  // namespace streambrain::core
