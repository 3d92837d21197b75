// Unit + property tests for src/tensor: Matrix, GEMM, kernels, vecmath.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vecmath.hpp"
#include "util/rng.hpp"

namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

// Matrix's two-argument constructor already value-initializes (fill
// defaults to T{}); tests that later compare contents still spell the
// fill out so the defined starting state survives any change to that
// default.
st::MatrixF random_matrix(std::size_t rows, std::size_t cols, su::Rng& rng,
                          float lo = -1.0f, float hi = 1.0f) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) v = static_cast<float>(rng.uniform(lo, hi));
  return m;
}

}  // namespace

// -------------------------------------------------------------- Matrix ----

TEST(Matrix, ConstructionAndFill) {
  st::MatrixF m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (float v : m) EXPECT_EQ(v, 2.5f);
}

TEST(Matrix, InitializerList) {
  st::MatrixF m(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(m(0, 0), 1.0f);
  EXPECT_EQ(m(0, 1), 2.0f);
  EXPECT_EQ(m(1, 0), 3.0f);
  EXPECT_EQ(m(1, 1), 4.0f);
  EXPECT_THROW(st::MatrixF(2, 2, {1.0f}), std::invalid_argument);
}

TEST(Matrix, AlignedStorage) {
  st::MatrixF m(5, 7, 0.0f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % st::kAlignment, 0u);
}

TEST(Matrix, CopyIsDeep) {
  st::MatrixF a(2, 2, 1.0f);
  st::MatrixF b = a;
  b(0, 0) = 9.0f;
  EXPECT_EQ(a(0, 0), 1.0f);
  EXPECT_EQ(b(0, 0), 9.0f);
}

TEST(Matrix, MoveTransfersOwnership) {
  st::MatrixF a(2, 2, 3.0f);
  const float* data = a.data();
  st::MatrixF b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): testing move
}

TEST(Matrix, AtThrowsOutOfRange) {
  st::MatrixF m(2, 2, 0.0f);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, ResizeSameSizeKeepsBufferReshaped) {
  st::MatrixF m(2, 6, 1.0f);
  const float* data = m.data();
  m.resize(3, 4);
  EXPECT_EQ(m.data(), data);  // no reallocation
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
}

TEST(Matrix, EqualityComparesShapeAndContents) {
  st::MatrixF a(2, 2, 1.0f);
  st::MatrixF b(2, 2, 1.0f);
  st::MatrixF c(4, 1, 1.0f);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b(1, 1) = 2.0f;
  EXPECT_FALSE(a == b);
}

TEST(Matrix, RowPointerArithmetic) {
  st::MatrixF m(3, 4, 0.0f);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = static_cast<float>(r * 4 + c);
  }
  EXPECT_EQ(m.row(1)[0], 4.0f);
  EXPECT_EQ(m.row(2)[3], 11.0f);
}

// ---------------------------------------------------------------- GEMM ----

class GemmShapes : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmShapes, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  su::Rng rng(m * 1000 + n * 100 + k);
  const st::MatrixF a = random_matrix(m, k, rng);
  const st::MatrixF b = random_matrix(k, n, rng);
  st::MatrixF c_naive(m, n, 0.5f);
  st::MatrixF c_blocked = c_naive;
  st::gemm_naive(st::Transpose::kNo, st::Transpose::kNo, 2.0f, a, b, 0.25f,
                 c_naive);
  st::gemm(st::Transpose::kNo, st::Transpose::kNo, 2.0f, a, b, 0.25f,
           c_blocked);
  for (std::size_t i = 0; i < c_naive.size(); ++i) {
    EXPECT_NEAR(c_naive.data()[i], c_blocked.data()[i],
                1e-4f * (1.0f + std::abs(c_naive.data()[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 17),
                      std::make_tuple(33, 1, 9), std::make_tuple(40, 56, 300),
                      std::make_tuple(8, 8, 1024)));

TEST(Gemm, TransposeAMatchesNaive) {
  su::Rng rng(99);
  const st::MatrixF a = random_matrix(7, 5, rng);  // A^T is 5x7
  const st::MatrixF b = random_matrix(7, 4, rng);
  st::MatrixF c_ref(5, 4, 0.0f);
  st::MatrixF c(5, 4, 0.0f);
  st::gemm_naive(st::Transpose::kYes, st::Transpose::kNo, 1.0f, a, b, 0.0f,
                 c_ref);
  st::gemm(st::Transpose::kYes, st::Transpose::kNo, 1.0f, a, b, 0.0f, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c_ref.data()[i], c.data()[i], 1e-4f);
  }
}

TEST(Gemm, TransposeBMatchesNaive) {
  su::Rng rng(101);
  const st::MatrixF a = random_matrix(5, 7, rng);
  const st::MatrixF b = random_matrix(4, 7, rng);  // B^T is 7x4
  st::MatrixF c_ref(5, 4, 0.0f);
  st::MatrixF c(5, 4, 0.0f);
  st::gemm_naive(st::Transpose::kNo, st::Transpose::kYes, 1.0f, a, b, 0.0f,
                 c_ref);
  st::gemm(st::Transpose::kNo, st::Transpose::kYes, 1.0f, a, b, 0.0f, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c_ref.data()[i], c.data()[i], 1e-4f);
  }
}

TEST(Gemm, BothTransposed) {
  su::Rng rng(103);
  const st::MatrixF a = random_matrix(6, 3, rng);
  const st::MatrixF b = random_matrix(5, 6, rng);
  st::MatrixF c_ref(3, 5, 0.0f);
  st::MatrixF c(3, 5, 0.0f);
  st::gemm_naive(st::Transpose::kYes, st::Transpose::kYes, 1.0f, a, b, 0.0f,
                 c_ref);
  st::gemm(st::Transpose::kYes, st::Transpose::kYes, 1.0f, a, b, 0.0f, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c_ref.data()[i], c.data()[i], 1e-4f);
  }
}

TEST(Gemm, BetaAccumulates) {
  st::MatrixF a(1, 1, {2.0f});
  st::MatrixF b(1, 1, {3.0f});
  st::MatrixF c(1, 1, {10.0f});
  st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, a, b, 1.0f, c);
  EXPECT_FLOAT_EQ(c(0, 0), 16.0f);
}

TEST(Gemm, DimensionMismatchThrows) {
  st::MatrixF a(2, 3, 0.0f);
  st::MatrixF b(4, 2, 0.0f);  // inner mismatch
  st::MatrixF c(2, 2, 0.0f);
  EXPECT_THROW(
      st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, a, b, 0.0f, c),
      std::invalid_argument);
}

TEST(Gemm, MatmulConvenience) {
  st::MatrixF a(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  st::MatrixF b(2, 2, {5.0f, 6.0f, 7.0f, 8.0f});
  const st::MatrixF c = st::matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

// ------------------------------------------------------------- kernels ----

TEST(Kernels, AxpyScaleDotSum) {
  float x[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  float y[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  st::axpy(2.0f, x, y, 4);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[3], 9.0f);
  st::scale(0.5f, y, 4);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
  EXPECT_FLOAT_EQ(st::dot(x, x, 4), 30.0f);
  EXPECT_FLOAT_EQ(st::sum(x, 4), 10.0f);
}

TEST(Kernels, AddRowBias) {
  st::MatrixF m(2, 3, 0.0f);
  const float bias[3] = {1.0f, 2.0f, 3.0f};
  st::add_row_bias(m, bias);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_FLOAT_EQ(m(r, 0), 1.0f);
    EXPECT_FLOAT_EQ(m(r, 2), 3.0f);
  }
}

TEST(Kernels, EmaUpdateConverges) {
  float p[2] = {0.0f, 1.0f};
  const float target[2] = {1.0f, 0.0f};
  for (int i = 0; i < 200; ++i) st::ema_update(p, target, 0.1f, 2);
  EXPECT_NEAR(p[0], 1.0f, 1e-4f);
  EXPECT_NEAR(p[1], 0.0f, 1e-4f);
}

TEST(Kernels, SoftmaxBlocksNormalizesEachBlock) {
  su::Rng rng(7);
  st::MatrixF m = random_matrix(5, 12, rng, -10.0f, 10.0f);
  st::softmax_blocks(m, 4);  // 3 blocks per row
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t b = 0; b < 3; ++b) {
      float total = 0.0f;
      for (std::size_t i = 0; i < 4; ++i) {
        const float v = m(r, b * 4 + i);
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
        total += v;
      }
      EXPECT_NEAR(total, 1.0f, 1e-5f);
    }
  }
}

TEST(Kernels, SoftmaxBlocksIsShiftInvariant) {
  st::MatrixF a(1, 4, {1.0f, 2.0f, 3.0f, 4.0f});
  st::MatrixF b(1, 4, {101.0f, 102.0f, 103.0f, 104.0f});
  st::softmax_blocks(a, 4);
  st::softmax_blocks(b, 4);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(a(0, c), b(0, c), 1e-5f);
}

TEST(Kernels, SoftmaxBlocksHandlesExtremeValues) {
  st::MatrixF m(1, 4, {-500.0f, 0.0f, 500.0f, 499.0f});
  st::softmax_blocks(m, 4);
  float total = 0.0f;
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(std::isfinite(m(0, c)));
    total += m(0, c);
  }
  EXPECT_NEAR(total, 1.0f, 1e-5f);
  EXPECT_GT(m(0, 2), m(0, 3));
}

TEST(Kernels, SoftmaxTemperatureSharpens) {
  st::MatrixF soft(1, 3, {1.0f, 2.0f, 3.0f});
  st::MatrixF sharp = soft;
  st::softmax_blocks_temperature(soft, 3, 1.0f);
  st::softmax_blocks_temperature(sharp, 3, 5.0f);
  EXPECT_GT(sharp(0, 2), soft(0, 2));  // higher beta -> peakier
}

TEST(Kernels, SoftmaxBlocksRejectsBadBlock) {
  st::MatrixF m(1, 5, 0.0f);
  EXPECT_THROW(st::softmax_blocks(m, 2), std::invalid_argument);
  EXPECT_THROW(st::softmax_blocks(m, 0), std::invalid_argument);
}

TEST(Kernels, WtaBlocksPicksWinner) {
  st::MatrixF m(1, 6, {0.1f, 0.9f, 0.0f, 0.3f, 0.3f, 0.2f});
  st::wta_blocks(m, 3);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(m(0, 2), 0.0f);
  // Tie in the second block resolves to the lowest index.
  EXPECT_FLOAT_EQ(m(0, 3), 1.0f);
  EXPECT_FLOAT_EQ(m(0, 4), 0.0f);
}

TEST(Kernels, WtaBlocksRejectsBadBlock) {
  st::MatrixF m(1, 5, 0.0f);
  EXPECT_THROW(st::wta_blocks(m, 2), std::invalid_argument);
  EXPECT_THROW(st::wta_blocks(m, 0), std::invalid_argument);
  st::MatrixF empty(3, 0, 0.0f);
  EXPECT_THROW(st::wta_blocks(empty, 0), std::invalid_argument);
  EXPECT_NO_THROW(st::wta_blocks(empty, 4));
}

TEST(Kernels, ArgmaxRows) {
  st::MatrixF m(2, 3, {0.0f, 5.0f, 1.0f, 7.0f, 2.0f, 3.0f});
  std::size_t out[2] = {99, 99};
  st::argmax_rows(m, out);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 0u);
}

TEST(Kernels, ReluClampsNegatives) {
  float x[5] = {-1.0f, 0.0f, 2.5f, -0.25f, 7.0f};
  st::relu(x, 5);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 2.5f);
  EXPECT_FLOAT_EQ(x[3], 0.0f);
  EXPECT_FLOAT_EQ(x[4], 7.0f);
}

TEST(Kernels, ThresholdMaskZeroesWhereGateBelowThreshold) {
  const float gate[4] = {-1.0f, 0.0f, 0.5f, 2.0f};
  float x[4] = {10.0f, 20.0f, 30.0f, 40.0f};
  st::threshold_mask(gate, 0.0f, x, 4);
  EXPECT_FLOAT_EQ(x[0], 0.0f);   // gate < threshold
  EXPECT_FLOAT_EQ(x[1], 0.0f);   // gate == threshold (<=) masks too
  EXPECT_FLOAT_EQ(x[2], 30.0f);
  EXPECT_FLOAT_EQ(x[3], 40.0f);
}

TEST(Kernels, ReduceMaxFindsMaximumAndHandlesEmpty) {
  const float x[6] = {-5.0f, 3.0f, -1.0f, 9.5f, 0.0f, 2.0f};
  EXPECT_FLOAT_EQ(st::reduce_max(x, 6), 9.5f);
  EXPECT_LT(st::reduce_max(nullptr, 0), -1e30f);  // identity
}

TEST(Kernels, GemvMatchesPerRowDot) {
  su::Rng rng(23);
  const st::MatrixF a = random_matrix(7, 19, rng);
  const auto xv = [&] {
    std::vector<float> v(19);
    for (auto& e : v) e = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  }();
  std::vector<float> y(7, -1.0f);
  st::gemv(a, xv.data(), y.data());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    EXPECT_NEAR(y[r], st::dot(a.row(r), xv.data(), a.cols()), 1e-5f);
  }
}

// ------------------------------------------------------------- vecmath ----

TEST(Vecmath, FastExpAccuracy) {
  for (float x = -80.0f; x <= 80.0f; x += 0.37f) {
    const float expected = std::exp(x);
    const float actual = st::fast_exp(x);
    EXPECT_NEAR(actual, expected, 2e-6f * expected + 1e-30f) << "x=" << x;
  }
}

TEST(Vecmath, FastExpClampsExtremes) {
  EXPECT_EQ(st::fast_exp(-200.0f), 0.0f);
  EXPECT_TRUE(std::isfinite(st::fast_exp(200.0f)));
}

TEST(Vecmath, FastLogAccuracy) {
  for (float x = 1e-6f; x < 1e6f; x *= 1.7f) {
    const float expected = std::log(x);
    const float actual = st::fast_log(x);
    EXPECT_NEAR(actual, expected, 1e-5f + 2e-6f * std::abs(expected))
        << "x=" << x;
  }
}

TEST(Vecmath, FastLogGuardsNonPositive) {
  EXPECT_LT(st::fast_log(0.0f), -80.0f);
  EXPECT_LT(st::fast_log(-1.0f), -80.0f);
}

TEST(Vecmath, ExpLogRoundTrip) {
  for (float x = -20.0f; x < 20.0f; x += 0.61f) {
    EXPECT_NEAR(st::fast_log(st::fast_exp(x)), x, 2e-4f + 1e-5f * std::abs(x));
  }
}

TEST(Vecmath, VectorVariantsMatchScalar) {
  su::Rng rng(11);
  std::vector<float> x(257);
  for (auto& v : x) v = static_cast<float>(rng.uniform(0.01, 5.0));
  std::vector<float> ve(x.size());
  std::vector<float> vl(x.size());
  st::vexp(x.data(), ve.data(), x.size());
  st::vlog(x.data(), vl.data(), x.size());
  // The array variants run on the dispatched SIMD tier, which may use
  // FMA: tolerance-compare against the scalar helpers instead of
  // requiring bitwise equality.
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float e = st::fast_exp(x[i]);
    const float l = st::fast_log(x[i]);
    EXPECT_NEAR(ve[i], e, 1e-6f + 1e-5f * std::abs(e));
    EXPECT_NEAR(vl[i], l, 1e-6f + 1e-5f * std::abs(l));
  }
}

TEST(Vecmath, VlogFlooredAppliesFloor) {
  const float x[3] = {1e-9f, 0.5f, 2.0f};
  float out[3] = {0.0f, 0.0f, 0.0f};
  st::vlog_floored(x, out, 1e-4f, 3);
  EXPECT_NEAR(out[0], st::fast_log(1e-4f), 1e-4f);
  EXPECT_NEAR(out[1], st::fast_log(0.5f), 1e-5f);
  EXPECT_NEAR(out[2], st::fast_log(2.0f), 1e-5f);
}
