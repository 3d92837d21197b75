// Integration tests: the full Higgs pipeline (Section V protocol),
// network heads, engine equivalence at the network level, and the
// in-situ visualization hook. Distributed training lives in
// test_distributed.

#include <gtest/gtest.h>

#include <cmath>

#include "core/network.hpp"
#include "core/pipeline.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "viz/catalyst.hpp"

namespace sc = streambrain::core;
namespace sd = streambrain::data;
namespace st = streambrain::tensor;
namespace sv = streambrain::viz;

namespace {

/// Small-but-real experiment config (a few seconds on one core).
sc::HiggsExperimentConfig small_experiment() {
  sc::HiggsExperimentConfig config;
  config.train_events = 1500;
  config.test_events = 500;
  config.network.bcpnn.hcus = 1;
  config.network.bcpnn.mcus = 50;
  config.network.bcpnn.receptive_field = 0.4;
  config.network.bcpnn.epochs = 6;
  config.network.bcpnn.head_epochs = 12;
  config.seed = 7;
  return config;
}

}  // namespace

TEST(Pipeline, BcpnnBeatsChanceOnHiggs) {
  const auto result = sc::run_higgs_experiment(small_experiment());
  EXPECT_GT(result.test_accuracy, 0.58);  // far above the 50% chance line
  EXPECT_GT(result.test_auc, 0.60);
  EXPECT_GT(result.train_seconds, 0.0);
  ASSERT_EQ(result.final_masks.size(), 1u);
  EXPECT_EQ(result.final_masks[0].size(), sd::kHiggsFeatures);
}

TEST(Pipeline, DeterministicForSeed) {
  const auto a = sc::run_higgs_experiment(small_experiment());
  const auto b = sc::run_higgs_experiment(small_experiment());
  EXPECT_DOUBLE_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_DOUBLE_EQ(a.test_auc, b.test_auc);
  EXPECT_EQ(a.final_masks, b.final_masks);
}

TEST(Pipeline, DifferentSeedsGiveDifferentRuns) {
  auto config = small_experiment();
  const auto a = sc::run_higgs_experiment(config);
  config.seed = 8;
  const auto b = sc::run_higgs_experiment(config);
  EXPECT_NE(a.test_accuracy, b.test_accuracy);
}

TEST(Pipeline, HybridHeadAtLeastComparable) {
  // Paper: BCPNN+SGD (69.15%) edges out pure BCPNN (68.58%). Tolerate
  // noise but demand the hybrid not collapse.
  auto config = small_experiment();
  const auto pure = sc::run_higgs_experiment(config);
  config.network.head = sc::HeadType::kSgd;
  const auto hybrid = sc::run_higgs_experiment(config);
  EXPECT_GT(hybrid.test_accuracy, pure.test_accuracy - 0.05);
}

TEST(Pipeline, RepeatedRunsVaryBySeed) {
  auto config = small_experiment();
  config.train_events = 800;
  config.test_events = 300;
  config.network.bcpnn.epochs = 3;
  config.network.bcpnn.head_epochs = 6;
  const auto results = sc::run_higgs_experiment_repeated(config, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].test_accuracy != results[1].test_accuracy ||
              results[1].test_accuracy != results[2].test_accuracy);
}

TEST(Pipeline, CatalystHookReceivesEveryEpoch) {
  sv::CatalystAdaptor adaptor;
  auto config = small_experiment();
  config.catalyst = &adaptor;
  (void)sc::run_higgs_experiment(config);
  EXPECT_EQ(adaptor.history().size(), config.network.bcpnn.epochs);
  // MI maps must accompany the masks.
  EXPECT_FALSE(adaptor.history().back().mi_scores.empty());
}

TEST(Pipeline, MasksRespectReceptiveFieldCardinality) {
  auto config = small_experiment();
  config.network.bcpnn.receptive_field = 0.25;
  const auto result = sc::run_higgs_experiment(config);
  const std::size_t expected = static_cast<std::size_t>(
      std::ceil(0.25 * static_cast<double>(sd::kHiggsFeatures)));
  std::size_t active = 0;
  for (bool bit : result.final_masks[0]) active += bit ? 1 : 0;
  EXPECT_EQ(active, expected);
}

// ---------------------------------------------------------- network API ----

TEST(Network, TransformShapeAndSimplex) {
  sc::NetworkConfig config;
  config.bcpnn.input_hypercolumns = 28;
  config.bcpnn.input_bins = 10;
  config.bcpnn.hcus = 2;
  config.bcpnn.mcus = 10;
  config.bcpnn.epochs = 2;
  sc::Network network(config);

  sd::SyntheticHiggsGenerator generator;
  const auto dataset = generator.generate(100);
  streambrain::encode::OneHotEncoder encoder(10);
  const auto x = encoder.fit_transform(dataset.features);
  const auto hidden = network.transform(x);
  ASSERT_EQ(hidden.rows(), 100u);
  ASSERT_EQ(hidden.cols(), 20u);
  for (std::size_t r = 0; r < hidden.rows(); ++r) {
    for (std::size_t h = 0; h < 2; ++h) {
      float mass = 0.0f;
      for (std::size_t m = 0; m < 10; ++m) mass += hidden(r, h * 10 + m);
      EXPECT_NEAR(mass, 1.0f, 1e-4f);
    }
  }
}

TEST(Network, FitRejectsMismatchedLabels) {
  sc::NetworkConfig config;
  config.bcpnn.input_hypercolumns = 4;
  config.bcpnn.input_bins = 5;
  config.bcpnn.mcus = 5;
  sc::Network network(config);
  st::MatrixF x(10, 20, 0.0f);
  std::vector<int> labels(9, 0);
  EXPECT_THROW(network.fit(x, labels), std::invalid_argument);
}

TEST(Network, EngineChoiceDoesNotChangeQualityClass) {
  // Engines are numerically equivalent per-op; across a whole training
  // run small float differences compound, so assert agreement in outcome
  // quality, not bitwise equality.
  double auc[2];
  int index = 0;
  for (const std::string engine : {"naive", "simd"}) {
    auto config = small_experiment();
    config.network.bcpnn.mcus = 40;
    config.network.bcpnn.engine = engine;
    auc[index++] = sc::run_higgs_experiment(config).test_auc;
  }
  EXPECT_NEAR(auc[0], auc[1], 0.10);
  EXPECT_GT(auc[0], 0.58);
  EXPECT_GT(auc[1], 0.58);
}
