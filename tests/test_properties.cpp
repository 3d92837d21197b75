// Cross-module property tests: parameterized sweeps asserting the
// invariants the library is built on, over wide grids of geometries,
// rates and distributions.

#include <gtest/gtest.h>

#include <cmath>

#include "core/plasticity.hpp"
#include "core/traces.hpp"
#include "encode/one_hot.hpp"
#include "metrics/roc.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace se = streambrain::encode;
namespace sm = streambrain::metrics;
namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

// ---------------------------------------------------------------------
// Engine agreement across a geometry grid: every engine must match the
// naive reference on every (batch, bins, hypercolumns, hcus, mcus) cell.
// ---------------------------------------------------------------------

struct Geometry {
  std::size_t batch;
  std::size_t input_hcs;
  std::size_t bins;
  std::size_t hcus;
  std::size_t mcus;
};

class EngineGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

namespace {

Geometry geometry_case(int index) {
  static const Geometry kCases[] = {
      {1, 1, 2, 1, 2},     // minimal
      {3, 4, 10, 1, 5},    // skinny
      {17, 28, 10, 2, 7},  // Higgs-shaped, odd mcus
      {32, 5, 3, 4, 16},   // many hcus
      {7, 16, 2, 3, 32},   // binary bins (digit-style)
  };
  return kCases[index];
}

}  // namespace

TEST_P(EngineGeometrySweep, FullStepMatchesNaive) {
  const auto [engine_name, case_index] = GetParam();
  const Geometry g = geometry_case(case_index);
  su::Rng rng(1000 + case_index);

  const std::size_t n_in = g.input_hcs * g.bins;
  const std::size_t n_out = g.hcus * g.mcus;
  st::MatrixF x(g.batch, n_in, 0.0f);
  for (std::size_t r = 0; r < g.batch; ++r) {
    for (std::size_t hc = 0; hc < g.input_hcs; ++hc) {
      x(r, hc * g.bins + rng.uniform_index(g.bins)) = 1.0f;
    }
  }

  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create(engine_name);

  // Shared trace state, updated through both engines independently.
  sc::ProbabilityTraces traces_ref(n_in, g.bins, n_out, g.mcus);
  sc::ProbabilityTraces traces_eng(n_in, g.bins, n_out, g.mcus);

  st::MatrixF w_ref(n_in, n_out, 0.0f);
  st::MatrixF w_eng(n_in, n_out, 0.0f);
  std::vector<float> b_ref(n_out, 0.0f);
  std::vector<float> b_eng(n_out, 0.0f);

  for (int step = 0; step < 3; ++step) {
    st::MatrixF s_ref;
    st::MatrixF s_eng;
    reference->support(x, w_ref, b_ref.data(), s_ref);
    engine->support(x, w_eng, b_eng.data(), s_eng);
    reference->softmax_hcu(s_ref, g.mcus, 1.0f);
    engine->softmax_hcu(s_eng, g.mcus, 1.0f);
    traces_ref.update(*reference, x, s_ref, 0.1f);
    traces_eng.update(*engine, x, s_eng, 0.1f);
    reference->recompute_weights(traces_ref.pi().data(),
                                 traces_ref.pj().data(), traces_ref.pij(),
                                 1e-4f, 1.0f, w_ref, b_ref.data());
    engine->recompute_weights(traces_eng.pi().data(), traces_eng.pj().data(),
                              traces_eng.pij(), 1e-4f, 1.0f, w_eng,
                              b_eng.data());
  }
  for (std::size_t i = 0; i < w_ref.size(); ++i) {
    EXPECT_NEAR(w_ref.data()[i], w_eng.data()[i],
                5e-3f * (1.0f + std::abs(w_ref.data()[i])))
        << "weight " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridByEngine, EngineGeometrySweep,
    ::testing::Combine(::testing::Values("simd", "device_sim"),
                       ::testing::Values(0, 1, 2, 3, 4)));

// ---------------------------------------------------------------------
// Trace mass preservation across learning rates.
// ---------------------------------------------------------------------

class TraceAlphaSweep : public ::testing::TestWithParam<float> {};

TEST_P(TraceAlphaSweep, HypercolumnMassStaysNormalized) {
  const float alpha = GetParam();
  sc::ProbabilityTraces traces(30, 10, 12, 4);
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(7);
  st::MatrixF x(8, 30, 0.0f);
  st::MatrixF a(8, 12, 0.0f);
  for (int step = 0; step < 40; ++step) {
    x.fill(0.0f);
    a.fill(0.0f);
    for (std::size_t r = 0; r < 8; ++r) {
      for (std::size_t hc = 0; hc < 3; ++hc) {
        x(r, hc * 10 + rng.uniform_index(10)) = 1.0f;
      }
      for (std::size_t h = 0; h < 3; ++h) {
        a(r, h * 4 + rng.uniform_index(4)) = 1.0f;  // hard WTA targets
      }
    }
    traces.update(*engine, x, a, alpha);
  }
  for (double mass : traces.input_hypercolumn_mass()) {
    EXPECT_NEAR(mass, 1.0, 1e-3) << "alpha=" << alpha;
  }
  for (double mass : traces.output_hypercolumn_mass()) {
    EXPECT_NEAR(mass, 1.0, 1e-3) << "alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, TraceAlphaSweep,
                         ::testing::Values(0.001f, 0.01f, 0.05f, 0.2f, 0.5f,
                                           1.0f));

// ---------------------------------------------------------------------
// Mask cardinality conservation across (cardinality, swap budget).
// ---------------------------------------------------------------------

class PlasticitySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PlasticitySweep, CardinalityInvariantUnderSwaps) {
  const auto [cardinality, swaps] = GetParam();
  su::Rng rng(13 + cardinality * 10 + swaps);
  sc::ReceptiveFieldMasks masks(3, 28, cardinality, rng);
  sc::ProbabilityTraces traces(280, 10, 12, 4);
  // Randomize traces so MI scores differ.
  auto engine = sp::EngineRegistry::instance().create("simd");
  st::MatrixF x(16, 280, 0.0f);
  st::MatrixF a(16, 12, 0.0f);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t f = 0; f < 28; ++f) {
      x(r, f * 10 + rng.uniform_index(10)) = 1.0f;
    }
    for (std::size_t h = 0; h < 3; ++h) {
      a(r, h * 4 + rng.uniform_index(4)) = 1.0f;
    }
  }
  traces.update(*engine, x, a, 0.3f);

  sc::PlasticityConfig config;
  config.swaps_per_hcu = swaps;
  config.hysteresis = 0.0;
  for (int step = 0; step < 5; ++step) {
    sc::structural_plasticity_step(masks, traces, 10, 4, 1e-6f, config);
    for (std::size_t h = 0; h < 3; ++h) {
      ASSERT_EQ(masks.active_count(h), cardinality)
          << "cardinality=" << cardinality << " swaps=" << swaps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlasticitySweep,
    ::testing::Combine(::testing::Values(1u, 5u, 14u, 27u, 28u),
                       ::testing::Values(0u, 1u, 4u, 50u)));

// ---------------------------------------------------------------------
// Quantile binning mass balance across input distributions.
// ---------------------------------------------------------------------

class QuantileDistributionSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantileDistributionSweep, EqualMassForAnyDistribution) {
  const int kind = GetParam();
  su::Rng rng(kind * 31 + 5);
  st::MatrixF data(8000, 1);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    double v = 0.0;
    switch (kind) {
      case 0: v = rng.normal(); break;
      case 1: v = rng.exponential(1.5); break;
      case 2: v = rng.uniform(-3.0, 7.0); break;
      case 3:  // bimodal
        v = rng.bernoulli(0.5) ? rng.normal(-4.0, 0.5) : rng.normal(4.0, 1.0);
        break;
      case 4: v = rng.gamma(2.0, 1.0); break;
      default: v = std::pow(rng.uniform(), 4.0); break;  // heavy left mass
    }
    data(r, 0) = static_cast<float>(v);
  }
  se::QuantileBinner binner(10);
  binner.fit(data);
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    ++counts[binner.bin_of(0, data(r, 0))];
  }
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]), 800.0, 120.0)
        << "distribution " << kind << " bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, QuantileDistributionSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// AUC invariances on random instances.
// ---------------------------------------------------------------------

class AucRandomInstance : public ::testing::TestWithParam<int> {};

TEST_P(AucRandomInstance, PermutationInvariantAndBounded) {
  su::Rng rng(GetParam() * 101 + 3);
  const std::size_t n = 200;
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = std::round(rng.uniform() * 20.0) / 20.0;  // with ties
    labels[i] = rng.bernoulli(0.3) ? 1 : 0;
  }
  const double base = sm::auc(scores, labels);
  EXPECT_GE(base, 0.0);
  EXPECT_LE(base, 1.0);

  // Permute example order: AUC must be identical.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<double> scores_p(n);
  std::vector<int> labels_p(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores_p[i] = scores[order[i]];
    labels_p[i] = labels[order[i]];
  }
  EXPECT_DOUBLE_EQ(base, sm::auc(scores_p, labels_p));

  // Affine score transform (positive slope): invariant.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = 3.0 * scores[i] + 11.0;
  EXPECT_NEAR(base, sm::auc(scaled, labels), 1e-12);

  // Negated scores: complemented.
  std::vector<double> negated(n);
  for (std::size_t i = 0; i < n; ++i) negated[i] = -scores[i];
  EXPECT_NEAR(base + sm::auc(negated, labels), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Instances, AucRandomInstance,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

// ---------------------------------------------------------------------
// Softmax temperature: higher beta concentrates mass on the argmax.
// ---------------------------------------------------------------------

class TemperatureSweep : public ::testing::TestWithParam<float> {};

TEST_P(TemperatureSweep, WinnersShareGrowsWithBeta) {
  const float beta = GetParam();
  st::MatrixF reference(1, 8, {0.1f, 0.9f, 0.3f, 0.5f, 0.2f, 0.7f, 0.4f, 0.6f});
  st::MatrixF sharper = reference;
  st::softmax_blocks_temperature(reference, 8, beta);
  st::softmax_blocks_temperature(sharper, 8, beta * 2.0f);
  // Winner (index 1) gains share when beta doubles.
  EXPECT_GT(sharper(0, 1), reference(0, 1));
  // Both remain simplexes.
  float mass_a = 0.0f;
  float mass_b = 0.0f;
  for (std::size_t c = 0; c < 8; ++c) {
    mass_a += reference(0, c);
    mass_b += sharper(0, c);
  }
  EXPECT_NEAR(mass_a, 1.0f, 1e-5f);
  EXPECT_NEAR(mass_b, 1.0f, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Betas, TemperatureSweep,
                         ::testing::Values(0.25f, 0.5f, 1.0f, 2.0f, 4.0f));
