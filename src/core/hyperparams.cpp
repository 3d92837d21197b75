#include "core/hyperparams.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace streambrain::core {

std::size_t BcpnnConfig::mask_cardinality() const noexcept {
  const auto k = static_cast<std::size_t>(std::ceil(
      receptive_field * static_cast<double>(input_hypercolumns)));
  return std::clamp<std::size_t>(k, 1, input_hypercolumns);
}

float BcpnnConfig::noise_at(std::size_t epoch) const noexcept {
  const float progress =
      epochs > 1
          ? static_cast<float>(epoch) / static_cast<float>(epochs - 1)
          : 1.0f;
  return noise_start + (noise_end - noise_start) * progress;
}

void BcpnnConfig::apply(const util::Config& config) {
  hcus = static_cast<std::size_t>(config.get_int("hcus", static_cast<long long>(hcus)));
  mcus = static_cast<std::size_t>(config.get_int("mcus", static_cast<long long>(mcus)));
  receptive_field = config.get_double("receptive_field", receptive_field);
  alpha = static_cast<float>(config.get_double("alpha", alpha));
  alpha_supervised = static_cast<float>(
      config.get_double("alpha_supervised", alpha_supervised));
  k_beta = static_cast<float>(config.get_double("k_beta", k_beta));
  inverse_temperature = static_cast<float>(
      config.get_double("inverse_temperature", inverse_temperature));
  noise_start = static_cast<float>(config.get_double("noise_start", noise_start));
  noise_end = static_cast<float>(config.get_double("noise_end", noise_end));
  epochs = static_cast<std::size_t>(
      config.get_int("epochs", static_cast<long long>(epochs)));
  head_epochs = static_cast<std::size_t>(
      config.get_int("head_epochs", static_cast<long long>(head_epochs)));
  batch_size = static_cast<std::size_t>(
      config.get_int("batch_size", static_cast<long long>(batch_size)));
  plasticity_swaps = static_cast<std::size_t>(config.get_int(
      "plasticity_swaps", static_cast<long long>(plasticity_swaps)));
  prune_density = config.get_double("prune_density", prune_density);
  prune_cadence = static_cast<std::size_t>(config.get_int(
      "prune_cadence", static_cast<long long>(prune_cadence)));
  engine = config.get_string("engine", engine);
  seed = static_cast<std::uint64_t>(
      config.get_int("seed", static_cast<long long>(seed)));
}

void BcpnnConfig::validate() const {
  if (input_hypercolumns == 0) {
    throw std::invalid_argument("BcpnnConfig: input_hypercolumns must be > 0");
  }
  if (input_bins == 0) {
    throw std::invalid_argument("BcpnnConfig: input_bins must be > 0");
  }
  if (hcus == 0) throw std::invalid_argument("BcpnnConfig: hcus must be > 0");
  if (mcus == 0) throw std::invalid_argument("BcpnnConfig: mcus must be > 0");
  if (receptive_field < 0.0 || receptive_field > 1.0) {
    throw std::invalid_argument("BcpnnConfig: receptive_field not in [0,1]");
  }
  if (alpha <= 0.0f || alpha > 1.0f) {
    throw std::invalid_argument("BcpnnConfig: alpha not in (0,1]");
  }
  if (alpha_supervised <= 0.0f || alpha_supervised > 1.0f) {
    throw std::invalid_argument("BcpnnConfig: alpha_supervised not in (0,1]");
  }
  if (eps <= 0.0f) throw std::invalid_argument("BcpnnConfig: eps must be > 0");
  if (batch_size == 0) {
    throw std::invalid_argument("BcpnnConfig: batch_size must be > 0");
  }
  if (prune_density <= 0.0 || prune_density > 1.0) {
    throw std::invalid_argument("BcpnnConfig: prune_density not in (0,1]");
  }
}

}  // namespace streambrain::core
