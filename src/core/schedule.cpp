#include "core/schedule.hpp"

#include <algorithm>
#include <numeric>

namespace streambrain::core {

void for_each_batch(
    const tensor::MatrixF& x, const tensor::MatrixF* targets,
    const std::vector<std::size_t>& order, std::size_t batch_size,
    const std::function<void(const tensor::MatrixF&, const tensor::MatrixF&)>&
        fn) {
  const std::size_t n = order.size();
  tensor::MatrixF batch_x;
  tensor::MatrixF batch_t;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t rows = std::min(batch_size, n - start);
    batch_x.resize(rows, x.cols());
    if (targets != nullptr) batch_t.resize(rows, targets->cols());
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(x.row(order[start + r]), x.cols(), batch_x.row(r));
      if (targets != nullptr) {
        std::copy_n(targets->row(order[start + r]), targets->cols(),
                    batch_t.row(r));
      }
    }
    fn(batch_x, batch_t);
  }
}

std::size_t end_hidden_epoch(BcpnnLayer& layer, std::size_t epoch) {
  const std::size_t swaps = layer.plasticity_step();
  prune_on_cadence(layer, layer.config(), epoch);
  return swaps;
}

std::size_t fit_hidden_layer(BcpnnLayer& layer, const tensor::MatrixF& x,
                             util::Rng& rng, const EpochCallback& on_epoch) {
  const BcpnnConfig& cfg = layer.config();
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);
  std::size_t total_swaps = 0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    EpochInfo info;
    info.epoch = epoch;
    info.noise_std = cfg.noise_at(epoch);
    rng.shuffle(order);
    for_each_batch(x, nullptr, order, cfg.batch_size,
                   [&](const tensor::MatrixF& batch, const tensor::MatrixF&) {
                     layer.train_batch(batch, info.noise_std);
                   });
    info.plasticity_swaps = end_hidden_epoch(layer, epoch);
    total_swaps += info.plasticity_swaps;
    if (on_epoch) on_epoch(info, layer);
  }
  return total_swaps;
}

void fit_bcpnn_head(BcpnnClassifier& head, const tensor::MatrixF& hidden,
                    const tensor::MatrixF& targets, std::size_t epochs,
                    std::size_t batch_size, util::Rng& rng,
                    const std::function<void(std::size_t)>& end_epoch) {
  std::vector<std::size_t> order(hidden.rows());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for_each_batch(hidden, &targets, order, batch_size,
                   [&head](const tensor::MatrixF& batch_h,
                           const tensor::MatrixF& batch_t) {
                     head.train_batch(batch_h, batch_t);
                   });
    if (end_epoch) end_epoch(epoch);
  }
}

}  // namespace streambrain::core
