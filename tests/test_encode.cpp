// Tests for src/encode: quantile binning invariants and one-hot encoding
// (the paper's input representation: 10-quantile one-hot vectors).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "encode/quantile.hpp"
#include "util/rng.hpp"

namespace se = streambrain::encode;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

st::MatrixF random_features(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  su::Rng rng(seed);
  st::MatrixF m(rows, cols);
  for (float& v : m) v = static_cast<float>(rng.normal(0.0, 2.0));
  return m;
}

}  // namespace

// ---------------------------------------------------------- QuantileBinner

TEST(QuantileBinner, RejectsFewerThanTwoBins) {
  EXPECT_THROW(se::QuantileBinner(1), std::invalid_argument);
  EXPECT_NO_THROW(se::QuantileBinner(2));
}

TEST(QuantileBinner, FitRequiresData) {
  se::QuantileBinner binner(10);
  st::MatrixF empty;
  EXPECT_THROW(binner.fit(empty), std::invalid_argument);
}

TEST(QuantileBinner, FitRejectsNonFiniteValuesNamingFeatureAndRow) {
  const struct {
    std::size_t feature;
    std::size_t row;
    float value;
  } cases[] = {{1, 7, std::nanf("")},
               {2, 0, std::numeric_limits<float>::infinity()},
               {0, 19, -std::numeric_limits<float>::infinity()}};
  for (const auto& c : cases) {
    auto data = random_features(20, 3, 4);
    data(c.row, c.feature) = c.value;
    se::QuantileBinner binner(4);
    try {
      binner.fit(data);
      ADD_FAILURE() << "fit accepted " << c.value;
    } catch (const std::invalid_argument& error) {
      const std::string expected = "feature " + std::to_string(c.feature) +
                                   ", row " + std::to_string(c.row);
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << error.what();
    }
    EXPECT_FALSE(binner.fitted());
  }
}

TEST(QuantileBinner, TransformBeforeFitThrows) {
  se::QuantileBinner binner(10);
  const auto data = random_features(5, 3, 1);
  EXPECT_THROW(binner.transform(data), std::logic_error);
}

TEST(QuantileBinner, CutsAreMonotone) {
  const auto data = random_features(5000, 4, 2);
  se::QuantileBinner binner(10);
  binner.fit(data);
  for (std::size_t f = 0; f < 4; ++f) {
    const auto& cuts = binner.cuts(f);
    ASSERT_EQ(cuts.size(), 9u);
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      EXPECT_LE(cuts[i - 1], cuts[i]);
    }
  }
}

class QuantileBinCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantileBinCounts, BinsHaveApproximatelyEqualMass) {
  // The paper: "split the distribution into ten groups with approximately
  // even sizes" — property must hold for any bin count.
  const std::size_t bins = GetParam();
  const auto data = random_features(10000, 2, 3 + bins);
  se::QuantileBinner binner(bins);
  binner.fit(data);
  const auto assignments = binner.transform(data);
  std::vector<std::size_t> counts(bins, 0);
  for (const auto& row : assignments) ++counts[row[0]];
  const double expected = 10000.0 / static_cast<double>(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]), expected, expected * 0.1)
        << "bin " << b << " of " << bins;
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, QuantileBinCounts,
                         ::testing::Values(2, 4, 5, 10, 20));

TEST(QuantileBinner, BinOfRespectsBoundaries) {
  st::MatrixF data(4, 1, {0.0f, 1.0f, 2.0f, 3.0f});
  se::QuantileBinner binner(4);
  binner.fit(data);
  EXPECT_EQ(binner.bin_of(0, -100.0f), 0u);
  EXPECT_EQ(binner.bin_of(0, 100.0f), 3u);
  // Every bin index must be < bins.
  for (float v = -5.0f; v < 5.0f; v += 0.1f) {
    EXPECT_LT(binner.bin_of(0, v), 4u);
  }
}

TEST(QuantileBinner, ConstantFeatureAllInOneBin) {
  st::MatrixF data(100, 1, 3.14f);
  se::QuantileBinner binner(10);
  binner.fit(data);
  // All cuts equal; values land in a single (the last) bin consistently.
  const auto assignments = binner.transform(data);
  for (const auto& row : assignments) EXPECT_EQ(row[0], assignments[0][0]);
}

TEST(QuantileBinner, TransformWidthMismatchThrows) {
  se::QuantileBinner binner(4);
  binner.fit(random_features(50, 3, 4));
  EXPECT_THROW(binner.transform(random_features(5, 2, 5)),
               std::invalid_argument);
}

// ------------------------------------------------------------ OneHotEncoder

TEST(OneHotEncoder, ExactlyOneHotPerHypercolumn) {
  const auto data = random_features(500, 6, 6);
  se::OneHotEncoder encoder(10);
  const auto encoded = encoder.fit_transform(data);
  ASSERT_EQ(encoded.rows(), 500u);
  ASSERT_EQ(encoded.cols(), 60u);
  for (std::size_t r = 0; r < encoded.rows(); ++r) {
    for (std::size_t f = 0; f < 6; ++f) {
      float mass = 0.0f;
      for (std::size_t b = 0; b < 10; ++b) {
        const float v = encoded(r, f * 10 + b);
        EXPECT_TRUE(v == 0.0f || v == 1.0f);
        mass += v;
      }
      EXPECT_FLOAT_EQ(mass, 1.0f);  // simplex property
    }
  }
}

TEST(OneHotEncoder, HotIndexMatchesBinner) {
  const auto data = random_features(100, 2, 7);
  se::OneHotEncoder encoder(5);
  const auto encoded = encoder.fit_transform(data);
  for (std::size_t r = 0; r < 100; ++r) {
    for (std::size_t f = 0; f < 2; ++f) {
      const std::size_t bin = encoder.binner().bin_of(f, data(r, f));
      EXPECT_FLOAT_EQ(encoded(r, f * 5 + bin), 1.0f);
    }
  }
}

TEST(OneHotEncoder, ThermometerIsCumulative) {
  const auto data = random_features(200, 3, 8);
  se::OneHotEncoder encoder(8, se::CodeStyle::kThermometer);
  const auto encoded = encoder.fit_transform(data);
  for (std::size_t r = 0; r < encoded.rows(); ++r) {
    for (std::size_t f = 0; f < 3; ++f) {
      // Must be a prefix of ones followed by zeros.
      bool seen_zero = false;
      for (std::size_t b = 0; b < 8; ++b) {
        const float v = encoded(r, f * 8 + b);
        if (v == 0.0f) {
          seen_zero = true;
        } else {
          EXPECT_FALSE(seen_zero) << "non-prefix thermometer code";
        }
      }
      EXPECT_GE(encoded(r, f * 8), 1.0f);  // bin 0 always on
    }
  }
}

TEST(OneHotEncoder, DecodeColumnInverse) {
  se::OneHotEncoder encoder(10);
  encoder.fit(random_features(50, 4, 9));
  EXPECT_EQ(encoder.encoded_width(), 40u);
  const auto [feature, bin] = encoder.decode_column(27);
  EXPECT_EQ(feature, 2u);
  EXPECT_EQ(bin, 7u);
  EXPECT_THROW((void)encoder.decode_column(40), std::out_of_range);
}

TEST(OneHotEncoder, TransformBeforeFitThrows) {
  se::OneHotEncoder encoder(10);
  EXPECT_THROW(encoder.transform(random_features(5, 2, 10)),
               std::logic_error);
}

TEST(OneHotEncoder, TrainTestConsistency) {
  // Encoding of test data must use train-set cuts (no re-fit leakage):
  // a value between train cuts must get the same bin regardless of the
  // test distribution around it.
  const auto train = random_features(2000, 1, 11);
  se::OneHotEncoder encoder(10);
  encoder.fit(train);
  st::MatrixF probe(1, 1, {0.5f});
  const auto encoded_alone = encoder.transform(probe);
  st::MatrixF probe_in_context(3, 1, {-100.0f, 0.5f, 100.0f});
  const auto encoded_context = encoder.transform(probe_in_context);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_FLOAT_EQ(encoded_alone(0, b), encoded_context(1, b));
  }
}

TEST(OneHotEncoder, HiggsEndToEndWidth) {
  streambrain::data::SyntheticHiggsGenerator generator;
  const auto dataset = generator.generate(300);
  se::OneHotEncoder encoder(10);
  const auto encoded = encoder.fit_transform(dataset.features);
  EXPECT_EQ(encoded.cols(), 280u);  // 28 features x 10 quantiles
  // Every row has exactly 28 active units.
  for (std::size_t r = 0; r < encoded.rows(); ++r) {
    float active = 0.0f;
    for (std::size_t c = 0; c < encoded.cols(); ++c) active += encoded(r, c);
    EXPECT_FLOAT_EQ(active, 28.0f);
  }
}
