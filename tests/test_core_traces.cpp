// Tests for core probability traces and structural plasticity:
// simplex/mass invariants, MI estimation, mask-cardinality conservation,
// hysteresis behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "core/plasticity.hpp"
#include "core/traces.hpp"
#include "parallel/engine_registry.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

// ------------------------------------------------------------- traces ----

TEST(Traces, UniformPriorInitialization) {
  sc::ProbabilityTraces traces(20, 10, 12, 4);
  for (float p : traces.pi()) EXPECT_FLOAT_EQ(p, 0.1f);
  for (float p : traces.pj()) EXPECT_FLOAT_EQ(p, 0.25f);
  for (float p : traces.pij()) EXPECT_FLOAT_EQ(p, 0.025f);
}

TEST(Traces, RejectsIndivisibleGeometry) {
  EXPECT_THROW(sc::ProbabilityTraces(21, 10, 12, 4), std::invalid_argument);
  EXPECT_THROW(sc::ProbabilityTraces(20, 10, 13, 4), std::invalid_argument);
  EXPECT_THROW(sc::ProbabilityTraces(20, 0, 12, 4), std::invalid_argument);
}

TEST(Traces, HypercolumnMassStartsAtOne) {
  sc::ProbabilityTraces traces(30, 10, 8, 4);
  for (double mass : traces.input_hypercolumn_mass()) {
    EXPECT_NEAR(mass, 1.0, 1e-5);
  }
  for (double mass : traces.output_hypercolumn_mass()) {
    EXPECT_NEAR(mass, 1.0, 1e-5);
  }
}

TEST(Traces, MassPreservedUnderOneHotUpdates) {
  // Property: with one-hot inputs and soft-WTA activations (both sum to 1
  // per hypercolumn), trace updates preserve the per-hypercolumn mass.
  sc::ProbabilityTraces traces(20, 10, 8, 4);
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(31);
  st::MatrixF x(16, 20, 0.0f);
  st::MatrixF a(16, 8, 0.0f);
  for (int step = 0; step < 25; ++step) {
    x.fill(0.0f);
    for (std::size_t r = 0; r < 16; ++r) {
      x(r, rng.uniform_index(10)) = 1.0f;
      x(r, 10 + rng.uniform_index(10)) = 1.0f;
      // random soft activations normalized per HCU of 4
      for (std::size_t h = 0; h < 2; ++h) {
        float total = 0.0f;
        float vals[4];
        for (auto& v : vals) {
          v = static_cast<float>(rng.uniform(0.01, 1.0));
          total += v;
        }
        for (std::size_t m = 0; m < 4; ++m) a(r, h * 4 + m) = vals[m] / total;
      }
    }
    traces.update(*engine, x, a, 0.1f);
  }
  for (double mass : traces.input_hypercolumn_mass()) {
    EXPECT_NEAR(mass, 1.0, 1e-3);
  }
  for (double mass : traces.output_hypercolumn_mass()) {
    EXPECT_NEAR(mass, 1.0, 1e-3);
  }
}

TEST(Traces, ConvergesToEmpiricalFrequencies) {
  // Feeding the same deterministic pattern forever drives traces to it.
  sc::ProbabilityTraces traces(10, 10, 4, 4);
  auto engine = sp::EngineRegistry::instance().create("naive");
  st::MatrixF x(1, 10, 0.0f);
  x(0, 3) = 1.0f;
  st::MatrixF a(1, 4, 0.0f);
  a(0, 1) = 1.0f;
  for (int i = 0; i < 500; ++i) traces.update(*engine, x, a, 0.05f);
  EXPECT_NEAR(traces.pi()[3], 1.0f, 1e-3);
  EXPECT_NEAR(traces.pi()[0], 0.0f, 1e-3);
  EXPECT_NEAR(traces.pj()[1], 1.0f, 1e-3);
  EXPECT_NEAR(traces.pij()(3, 1), 1.0f, 1e-3);
  EXPECT_NEAR(traces.pij()(3, 0), 0.0f, 1e-3);
}

TEST(Traces, UpdateRejectsShapeMismatch) {
  sc::ProbabilityTraces traces(10, 10, 4, 4);
  auto engine = sp::EngineRegistry::instance().create("naive");
  st::MatrixF x(2, 8);
  st::MatrixF a(2, 4);
  EXPECT_THROW(traces.update(*engine, x, a, 0.1f), std::invalid_argument);
}

// ------------------------------------------------------------- masks ----

TEST(Masks, InitialCardinalityExact) {
  su::Rng rng(37);
  sc::ReceptiveFieldMasks masks(5, 28, 9, rng);
  EXPECT_EQ(masks.hcus(), 5u);
  for (std::size_t h = 0; h < 5; ++h) {
    EXPECT_EQ(masks.active_count(h), 9u);
  }
}

TEST(Masks, RejectsBadCardinality) {
  su::Rng rng(41);
  EXPECT_THROW(sc::ReceptiveFieldMasks(2, 10, 0, rng), std::invalid_argument);
  EXPECT_THROW(sc::ReceptiveFieldMasks(2, 10, 11, rng), std::invalid_argument);
}

TEST(Masks, RandomInitDiffersAcrossHcus) {
  su::Rng rng(43);
  sc::ReceptiveFieldMasks masks(8, 28, 9, rng);
  // At least one pair of HCUs should have different masks.
  bool any_different = false;
  for (std::size_t h = 1; h < 8 && !any_different; ++h) {
    any_different = masks.mask(0) != masks.mask(h);
  }
  EXPECT_TRUE(any_different);
}

// -------------------------------------------------- mutual information ----

namespace {

/// Traces where input hypercolumn 0 is perfectly correlated with the HCU
/// activation and hypercolumn 1 is independent of it.
sc::ProbabilityTraces correlated_traces() {
  sc::ProbabilityTraces traces(8, 4, 4, 4);  // 2 input HCs x 4 bins, 1 HCU x 4
  auto engine = sp::EngineRegistry::instance().create("naive");
  su::Rng rng(47);
  st::MatrixF x(1, 8, 0.0f);
  st::MatrixF a(1, 4, 0.0f);
  for (int i = 0; i < 2000; ++i) {
    x.fill(0.0f);
    a.fill(0.0f);
    const std::size_t bin = rng.uniform_index(4);
    x(0, bin) = 1.0f;                       // HC0 bin == activation
    x(0, 4 + rng.uniform_index(4)) = 1.0f;  // HC1 random
    a(0, bin) = 1.0f;
    traces.update(*engine, x, a, 0.02f);
  }
  return traces;
}

}  // namespace

TEST(MutualInformation, CorrelatedBeatsIndependent) {
  const auto traces = correlated_traces();
  const double mi_correlated =
      sc::mutual_information(traces, 0, 4, 0, 4, 1e-6f);
  const double mi_independent =
      sc::mutual_information(traces, 1, 4, 0, 4, 1e-6f);
  EXPECT_GT(mi_correlated, 5.0 * std::max(mi_independent, 1e-6));
  // Perfect 4-way correlation approaches log(4).
  EXPECT_GT(mi_correlated, 0.8 * std::log(4.0));
}

TEST(MutualInformation, NonNegative) {
  sc::ProbabilityTraces traces(20, 10, 8, 4);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t h = 0; h < 2; ++h) {
      EXPECT_GE(sc::mutual_information(traces, i, 10, h, 4, 1e-6f), 0.0);
    }
  }
}

TEST(MutualInformation, MapShapeMatchesGeometry) {
  sc::ProbabilityTraces traces(30, 10, 12, 4);
  const auto map = sc::mutual_information_map(traces, 10, 3, 4, 1e-6f);
  ASSERT_EQ(map.size(), 3u);
  for (const auto& row : map) EXPECT_EQ(row.size(), 3u);
}

// ------------------------------------------------ structural plasticity ----

TEST(Plasticity, SwapsTowardInformativeInput) {
  // HC0 carries all the information but starts OUTSIDE the mask; the
  // plasticity step must swap it in.
  const auto traces = correlated_traces();
  su::Rng rng(53);
  sc::ReceptiveFieldMasks masks(1, 2, 1, rng);
  masks.set(0, 0, false);
  masks.set(0, 1, true);  // start with only the uninformative HC active
  sc::PlasticityConfig config;
  config.swaps_per_hcu = 1;
  const std::size_t swaps =
      sc::structural_plasticity_step(masks, traces, 4, 4, 1e-6f, config);
  EXPECT_EQ(swaps, 1u);
  EXPECT_TRUE(masks.active(0, 0));
  EXPECT_FALSE(masks.active(0, 1));
}

TEST(Plasticity, CardinalityConservedUnderManySteps) {
  sc::ProbabilityTraces traces(280, 10, 40, 40);
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(59);
  sc::ReceptiveFieldMasks masks(1, 28, 11, rng);
  st::MatrixF x(8, 280, 0.0f);
  st::MatrixF a(8, 40, 0.0f);
  sc::PlasticityConfig config;
  config.swaps_per_hcu = 3;
  for (int step = 0; step < 20; ++step) {
    x.fill(0.0f);
    a.fill(0.0f);
    for (std::size_t r = 0; r < 8; ++r) {
      for (std::size_t f = 0; f < 28; ++f) {
        x(r, f * 10 + rng.uniform_index(10)) = 1.0f;
      }
      a(r, rng.uniform_index(40)) = 1.0f;
    }
    traces.update(*engine, x, a, 0.1f);
    sc::structural_plasticity_step(masks, traces, 10, 40, 1e-6f, config);
    EXPECT_EQ(masks.active_count(0), 11u);  // invariant
  }
}

TEST(Plasticity, HysteresisBlocksMarginalSwaps) {
  // With uniform traces every MI is ~equal; an enormous hysteresis factor
  // must prevent all swaps.
  sc::ProbabilityTraces traces(20, 10, 4, 4);
  su::Rng rng(61);
  sc::ReceptiveFieldMasks masks(1, 2, 1, rng);
  sc::PlasticityConfig config;
  config.swaps_per_hcu = 1;
  config.hysteresis = 100.0;
  const auto before = masks.mask(0);
  const std::size_t swaps =
      sc::structural_plasticity_step(masks, traces, 10, 4, 1e-6f, config);
  EXPECT_EQ(swaps, 0u);
  EXPECT_EQ(masks.mask(0), before);
}

TEST(Plasticity, FullMaskHasNothingToSwap) {
  sc::ProbabilityTraces traces(20, 10, 4, 4);
  su::Rng rng(67);
  sc::ReceptiveFieldMasks masks(1, 2, 2, rng);  // 100% receptive field
  sc::PlasticityConfig config;
  const std::size_t swaps =
      sc::structural_plasticity_step(masks, traces, 10, 4, 1e-6f, config);
  EXPECT_EQ(swaps, 0u);
  EXPECT_EQ(masks.active_count(0), 2u);
}
