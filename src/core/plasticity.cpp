#include "core/plasticity.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace streambrain::core {

ReceptiveFieldMasks::ReceptiveFieldMasks(std::size_t hcus,
                                         std::size_t input_hypercolumns,
                                         std::size_t cardinality,
                                         util::Rng& rng)
    : input_hypercolumns_(input_hypercolumns), cardinality_(cardinality) {
  if (cardinality == 0 || cardinality > input_hypercolumns) {
    throw std::invalid_argument(
        "ReceptiveFieldMasks: cardinality out of range");
  }
  masks_.resize(hcus);
  std::vector<std::size_t> candidates(input_hypercolumns);
  for (auto& mask : masks_) {
    mask.assign(input_hypercolumns, false);
    std::iota(candidates.begin(), candidates.end(), 0);
    rng.shuffle(candidates);
    for (std::size_t k = 0; k < cardinality; ++k) {
      mask[candidates[k]] = true;
    }
  }
}

std::size_t ReceptiveFieldMasks::active_count(std::size_t hcu) const {
  const auto& mask = masks_[hcu];
  return static_cast<std::size_t>(std::count(mask.begin(), mask.end(), true));
}

double mutual_information(const ProbabilityTraces& traces,
                          std::size_t input_hc, std::size_t input_hc_size,
                          std::size_t hcu, std::size_t mcus_per_hcu,
                          float eps) {
  const auto& pij = traces.pij();
  const std::size_t i0 = input_hc * input_hc_size;
  const std::size_t j0 = hcu * mcus_per_hcu;

  // Re-normalize the joint block: with one-hot inputs and soft-WTA outputs
  // the block mass is ~1, but traces drift during annealing.
  double mass = 0.0;
  for (std::size_t bi = 0; bi < input_hc_size; ++bi) {
    for (std::size_t bj = 0; bj < mcus_per_hcu; ++bj) {
      mass += std::max<double>(pij(i0 + bi, j0 + bj), eps);
    }
  }
  if (mass <= 0.0) return 0.0;

  // Marginals of the normalized joint (consistent by construction, which
  // guarantees MI >= 0 up to float rounding).
  std::vector<double> pb(input_hc_size, 0.0);
  std::vector<double> qb(mcus_per_hcu, 0.0);
  for (std::size_t bi = 0; bi < input_hc_size; ++bi) {
    for (std::size_t bj = 0; bj < mcus_per_hcu; ++bj) {
      const double joint = std::max<double>(pij(i0 + bi, j0 + bj), eps) / mass;
      pb[bi] += joint;
      qb[bj] += joint;
    }
  }
  double mi = 0.0;
  for (std::size_t bi = 0; bi < input_hc_size; ++bi) {
    for (std::size_t bj = 0; bj < mcus_per_hcu; ++bj) {
      const double joint = std::max<double>(pij(i0 + bi, j0 + bj), eps) / mass;
      mi += joint * std::log(joint / (pb[bi] * qb[bj]));
    }
  }
  return std::max(0.0, mi);
}

std::vector<std::vector<float>> mutual_information_map(
    const ProbabilityTraces& traces, std::size_t input_hc_size,
    std::size_t hcus, std::size_t mcus_per_hcu, float eps) {
  const std::size_t input_hcs = traces.inputs() / input_hc_size;
  std::vector<std::vector<float>> map(hcus,
                                      std::vector<float>(input_hcs, 0.0f));
  constexpr std::size_t kMinPairsPerBlock = 4;  // (hcu, input) pairs
  parallel::for_blocks(
      hcus * input_hcs, kMinPairsPerBlock, [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
          const std::size_t h = p / input_hcs;
          const std::size_t i = p % input_hcs;
          map[h][i] = static_cast<float>(mutual_information(
              traces, i, input_hc_size, h, mcus_per_hcu, eps));
        }
      });
  return map;
}

std::size_t structural_plasticity_step(ReceptiveFieldMasks& masks,
                                       const ProbabilityTraces& traces,
                                       std::size_t input_hc_size,
                                       std::size_t mcus_per_hcu, float eps,
                                       const PlasticityConfig& config) {
  const std::size_t input_hcs = masks.input_hypercolumns();
  const auto mi =
      mutual_information_map(traces, input_hc_size, masks.hcus(),
                             mcus_per_hcu, eps);
  std::size_t total_swaps = 0;
  for (std::size_t h = 0; h < masks.hcus(); ++h) {
    // Partition connections by mask state, sorted by MI.
    std::vector<std::size_t> active;
    std::vector<std::size_t> silent;
    for (std::size_t i = 0; i < input_hcs; ++i) {
      (masks.active(h, i) ? active : silent).push_back(i);
    }
    std::sort(active.begin(), active.end(), [&](std::size_t a, std::size_t b) {
      return mi[h][a] < mi[h][b];  // worst active first
    });
    std::sort(silent.begin(), silent.end(), [&](std::size_t a, std::size_t b) {
      return mi[h][a] > mi[h][b];  // best silent first
    });
    const std::size_t swaps =
        std::min({config.swaps_per_hcu, active.size(), silent.size()});
    for (std::size_t s = 0; s < swaps; ++s) {
      const std::size_t worst_active = active[s];
      const std::size_t best_silent = silent[s];
      if (mi[h][best_silent] <=
          mi[h][worst_active] * (1.0 + config.hysteresis)) {
        break;  // remaining pairs are even less attractive
      }
      masks.set(h, worst_active, false);
      masks.set(h, best_silent, true);
      ++total_swaps;
    }
  }
  return total_swaps;
}

}  // namespace streambrain::core
