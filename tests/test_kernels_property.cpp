// Property-based kernel tests: for randomized shapes, strides, and
// seeds, every SIMD kernel tier (sse42 / avx2, when the host supports
// them) must match the ordered scalar reference within 1e-5 relative
// tolerance — including ragged tails (n % simd_width != 0), empty
// inputs, and aliased outputs. This is the contract that lets the
// dispatcher swap tiers without changing learned behavior. Within each
// tier, gemm()'s sparse-A schedule must match the dense one bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/cpu_features.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vecmath.hpp"
#include "util/rng.hpp"

namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

constexpr float kRelTol = 1e-5f;
constexpr float kAbsTol = 1e-6f;

::testing::AssertionResult near_ref(float reference, float actual) {
  const float bound =
      kAbsTol + kRelTol * std::max(std::abs(reference), std::abs(actual));
  if (std::abs(reference - actual) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "reference=" << reference << " actual=" << actual
         << " |diff|=" << std::abs(reference - actual) << " > " << bound;
}

/// Reductions can cancel: the rounding error of reordered accumulation
/// scales with the magnitude of the summed terms, not with the (possibly
/// near-zero) result — so the relative tolerance is taken against the
/// term magnitude `mag` = sum |terms|.
::testing::AssertionResult near_reduced(float reference, float actual,
                                        float mag) {
  const float bound = kAbsTol + kRelTol * (std::abs(reference) + mag);
  if (std::abs(reference - actual) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "reference=" << reference << " actual=" << actual
         << " |diff|=" << std::abs(reference - actual) << " > " << bound
         << " (mag=" << mag << ")";
}

/// The non-scalar tiers this host can run (may be empty on exotic CPUs;
/// every test degrades to a no-op there rather than failing).
std::vector<const st::KernelSet*> simd_tiers() {
  std::vector<const st::KernelSet*> tiers;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kSse42, st::DispatchLevel::kAvx2}) {
    if (const st::KernelSet* set = st::kernel_set_for(level)) {
      tiers.push_back(set);
    }
  }
  return tiers;
}

const st::KernelSet& scalar_tier() {
  const st::KernelSet* set = st::kernel_set_for(st::DispatchLevel::kScalar);
  EXPECT_NE(set, nullptr);
  return *set;
}

std::vector<float> random_vector(std::size_t n, su::Rng& rng, float lo,
                                 float hi) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Sizes that deliberately straddle every tier's lane width: empty,
/// single element, one vector, vector +/- 1 (ragged tails), and larger
/// blocks with remainders.
const std::vector<std::size_t>& probe_sizes() {
  static const std::vector<std::size_t> sizes = {0,  1,  3,  4,  5,  7,  8,
                                                 9,  15, 16, 17, 31, 33, 64,
                                                 100, 255, 256, 257};
  return sizes;
}

}  // namespace

TEST(KernelProperty, TiersReportHonestMetadata) {
  const st::KernelSet& scalar = scalar_tier();
  EXPECT_EQ(scalar.level, st::DispatchLevel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_EQ(scalar.simd_width, 1u);
  for (const st::KernelSet* tier : simd_tiers()) {
    EXPECT_STREQ(tier->name, st::dispatch_level_name(tier->level));
    EXPECT_EQ(tier->simd_width, st::dispatch_level_width(tier->level));
    EXPECT_GT(tier->simd_width, 1u);
  }
  // The active set is always one of the constructible tiers.
  const st::KernelSet& active = st::active_kernels();
  EXPECT_EQ(&active, st::kernel_set_for(active.level));
}

TEST(KernelProperty, ElementwiseKernelsMatchScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        su::Rng rng(seed * 1000 + n);
        const auto x = random_vector(n, rng, -3.0f, 3.0f);
        const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

        auto y_ref = random_vector(n, rng, -3.0f, 3.0f);
        auto y_simd = y_ref;
        scalar.axpy(alpha, x.data(), y_ref.data(), n);
        tier->axpy(alpha, x.data(), y_simd.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(y_ref[i], y_simd[i]))
              << tier->name << " axpy n=" << n << " i=" << i;
        }

        auto s_ref = x;
        auto s_simd = x;
        scalar.scale(alpha, s_ref.data(), n);
        tier->scale(alpha, s_simd.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(s_ref[i], s_simd[i]))
              << tier->name << " scale n=" << n;
        }

        auto p_ref = random_vector(n, rng, 0.0f, 1.0f);
        auto p_simd = p_ref;
        scalar.ema_update(p_ref.data(), x.data(), 0.37f, n);
        tier->ema_update(p_simd.data(), x.data(), 0.37f, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(p_ref[i], p_simd[i]))
              << tier->name << " ema_update n=" << n;
        }

        auto r_ref = x;
        auto r_simd = x;
        scalar.relu(r_ref.data(), n);
        tier->relu(r_simd.data(), n);
        EXPECT_EQ(r_ref, r_simd) << tier->name << " relu n=" << n;
      }
    }
  }
}

TEST(KernelProperty, ReductionsMatchScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        su::Rng rng(seed * 7919 + n);
        const auto x = random_vector(n, rng, -5.0f, 5.0f);
        const auto y = random_vector(n, rng, -5.0f, 5.0f);
        float dot_mag = 0.0f;
        float sum_mag = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
          dot_mag += std::abs(x[i] * y[i]);
          sum_mag += std::abs(x[i]);
        }
        EXPECT_TRUE(near_reduced(scalar.dot(x.data(), y.data(), n),
                                 tier->dot(x.data(), y.data(), n), dot_mag))
            << tier->name << " dot n=" << n << " seed=" << seed;
        EXPECT_TRUE(near_reduced(scalar.sum(x.data(), n),
                                 tier->sum(x.data(), n), sum_mag))
            << tier->name << " sum n=" << n << " seed=" << seed;
        // Max is exact: no rounding is involved in either tier.
        EXPECT_EQ(scalar.reduce_max(x.data(), n),
                  tier->reduce_max(x.data(), n))
            << tier->name << " reduce_max n=" << n;
      }
    }
  }
  // Empty reduction identity.
  for (const st::KernelSet* tier : simd_tiers()) {
    EXPECT_EQ(tier->reduce_max(nullptr, 0), -FLT_MAX);
    EXPECT_EQ(tier->sum(nullptr, 0), 0.0f);
  }
}

TEST(KernelProperty, ThresholdMaskMatchesScalarIncludingAliased) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 13);
      const auto gate = random_vector(n, rng, -1.0f, 1.0f);
      auto x_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto x_simd = x_ref;
      scalar.threshold_mask(gate.data(), 0.0f, x_ref.data(), n);
      tier->threshold_mask(gate.data(), 0.0f, x_simd.data(), n);
      EXPECT_EQ(x_ref, x_simd) << tier->name << " threshold_mask n=" << n;

      // Aliased edge case: gate IS the output (in-place ReLU shape).
      auto a_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto a_simd = a_ref;
      scalar.threshold_mask(a_ref.data(), 0.25f, a_ref.data(), n);
      tier->threshold_mask(a_simd.data(), 0.25f, a_simd.data(), n);
      EXPECT_EQ(a_ref, a_simd)
          << tier->name << " aliased threshold_mask n=" << n;
    }
  }
}

TEST(KernelProperty, AxpyAliasedOutputMatchesScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 101);
      // y += alpha * y — x aliases the accumulator.
      auto y_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto y_simd = y_ref;
      scalar.axpy(0.5f, y_ref.data(), y_ref.data(), n);
      tier->axpy(0.5f, y_simd.data(), y_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(y_ref[i], y_simd[i]))
            << tier->name << " aliased axpy n=" << n;
      }
    }
  }
}

TEST(KernelProperty, TranscendentalsMatchScalarOverFullRange) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 31);
      // Include the clamp boundaries and far-out-of-range values.
      auto x = random_vector(n, rng, -30.0f, 30.0f);
      if (n >= 8) {
        x[0] = -200.0f;
        x[1] = 200.0f;
        x[2] = -87.0f;
        x[3] = -87.5f;
        x[4] = 88.0f;
        x[5] = 0.0f;
        x[6] = -0.0f;
        x[7] = 87.9f;
      }
      std::vector<float> e_ref(n);
      std::vector<float> e_simd(n);
      scalar.vexp(x.data(), e_ref.data(), n);
      tier->vexp(x.data(), e_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(e_ref[i], e_simd[i]))
            << tier->name << " vexp n=" << n << " x=" << x[i];
      }

      // vlog_floored: probabilities spanning subnormal-to-large, plus
      // non-positive inputs that must hit the floor.
      auto p = random_vector(n, rng, 0.0f, 4.0f);
      if (n >= 4) {
        p[0] = 0.0f;
        p[1] = -1.0f;
        p[2] = 1e-30f;
        p[3] = 1e30f;
      }
      std::vector<float> l_ref(n);
      std::vector<float> l_simd(n);
      scalar.vlog_floored(p.data(), l_ref.data(), 1e-8f, n);
      tier->vlog_floored(p.data(), l_simd.data(), 1e-8f, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(l_ref[i], l_simd[i]))
            << tier->name << " vlog_floored n=" << n << " p=" << p[i];
      }
    }
  }
}

TEST(KernelProperty, MomentumUpdateMatchesScalarAndFusedSemantics) {
  const st::KernelSet& scalar = scalar_tier();
  for (const std::size_t n : probe_sizes()) {
    su::Rng rng(n + 77);
    const auto g = random_vector(n, rng, -1.0f, 1.0f);
    auto w_ref = random_vector(n, rng, -1.0f, 1.0f);
    auto v_ref = random_vector(n, rng, -0.5f, 0.5f);
    // Scalar semantics: v = mu*v - lr*(g + l2*w_old); w += v.
    std::vector<float> w_expect = w_ref;
    std::vector<float> v_expect = v_ref;
    for (std::size_t i = 0; i < n; ++i) {
      v_expect[i] = 0.9f * v_expect[i] - 0.1f * (g[i] + 0.01f * w_expect[i]);
      w_expect[i] += v_expect[i];
    }
    scalar.momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_ref.data(),
                           v_ref.data(), n);
    EXPECT_EQ(w_ref, w_expect) << "scalar momentum semantics n=" << n;
    EXPECT_EQ(v_ref, v_expect) << "scalar momentum semantics n=" << n;

    for (const st::KernelSet* tier : simd_tiers()) {
      auto w_simd = w_expect;  // continue from the same state
      auto v_simd = v_expect;
      auto w_ref2 = w_expect;
      auto v_ref2 = v_expect;
      scalar.momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_ref2.data(),
                             v_ref2.data(), n);
      tier->momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_simd.data(),
                            v_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(w_ref2[i], w_simd[i]))
            << tier->name << " momentum w n=" << n;
        ASSERT_TRUE(near_ref(v_ref2[i], v_simd[i]))
            << tier->name << " momentum v n=" << n;
      }
    }
  }
}

TEST(KernelProperty, ScalarTierTranscendentalsAreBitwiseFastExpLog) {
  // The kernel TUs carry a branchless restatement of fast_exp/fast_log
  // (tensor/vecmath.hpp). On the scalar tier — same flags, no FMA — the
  // restatement must be BITWISE identical to the public helpers over the
  // whole float range, so a coefficient edit on either side cannot
  // silently diverge the two copies.
  const st::KernelSet& scalar = scalar_tier();
  std::vector<float> xs;
  for (float x = -120.0f; x <= 120.0f; x += 0.0917f) xs.push_back(x);
  xs.insert(xs.end(), {-87.0f, -87.0000001f, 88.0f, 88.5f, 0.0f, -0.0f});
  std::vector<float> out(xs.size());
  scalar.vexp(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i], st::fast_exp(xs[i])) << "x=" << xs[i];
  }
  std::vector<float> ps;
  for (float p = 1e-10f; p < 1e10f; p *= 1.3f) ps.push_back(p);
  ps.insert(ps.end(), {0.0f, -1.0f, -3.5f, 1.0f, 2.0f});
  out.resize(ps.size());
  // floor == lowest float keeps every positive input unfloored.
  scalar.vlog_floored(ps.data(), out.data(), -FLT_MAX, ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(out[i], st::fast_log(ps[i])) << "p=" << ps[i];
  }
}

TEST(KernelProperty, SoftmaxBlockMatchesScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      if (n == 0) continue;  // a zero-wide block is rejected upstream
      for (const float inv_temp : {0.5f, 1.0f, 4.0f}) {
        su::Rng rng(n * 17 + static_cast<std::uint64_t>(inv_temp * 8));
        auto v_ref = random_vector(n, rng, -50.0f, 50.0f);
        auto v_simd = v_ref;
        scalar.softmax_block(v_ref.data(), n, inv_temp);
        tier->softmax_block(v_simd.data(), n, inv_temp);
        float total = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(v_ref[i], v_simd[i]))
              << tier->name << " softmax n=" << n << " beta=" << inv_temp;
          total += v_simd[i];
        }
        EXPECT_NEAR(total, 1.0f, 1e-4f);
      }
    }
  }
}

TEST(KernelProperty, GemvMatchesScalarWithPaddedStride) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t m : {0UL, 1UL, 3UL, 17UL, 40UL}) {
      for (const std::size_t k : {0UL, 1UL, 5UL, 16UL, 33UL}) {
        for (const std::size_t pad : {0UL, 3UL}) {
          const std::size_t lda = k + pad;
          if (lda == 0) continue;
          su::Rng rng(m * 100 + k * 10 + pad);
          const auto a = random_vector(m * lda, rng, -2.0f, 2.0f);
          const auto x = random_vector(k, rng, -2.0f, 2.0f);
          std::vector<float> y_ref(m, -9.0f);
          std::vector<float> y_simd(m, -9.0f);
          scalar.gemv(a.data(), lda, x.data(), y_ref.data(), m, k);
          tier->gemv(a.data(), lda, x.data(), y_simd.data(), m, k);
          for (std::size_t i = 0; i < m; ++i) {
            float mag = 0.0f;
            for (std::size_t p = 0; p < k; ++p) {
              mag += std::abs(a[i * lda + p] * x[p]);
            }
            ASSERT_TRUE(near_reduced(y_ref[i], y_simd[i], mag))
                << tier->name << " gemv m=" << m << " k=" << k
                << " lda=" << lda;
          }
        }
      }
    }
  }
}

TEST(KernelProperty, GemmBlockMatchesScalarWithPaddedStrides) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      su::Rng rng(seed * 37);
      // Random shapes biased to straddle the 4x16 register tile.
      const std::size_t mr = static_cast<std::size_t>(rng.uniform_int(0, 9));
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40));
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 20));
      const std::size_t lda = k + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const std::size_t ldb = n + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const std::size_t ldc = n + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

      const auto a = random_vector(std::max<std::size_t>(1, mr * lda), rng,
                                   -1.5f, 1.5f);
      const auto b = random_vector(std::max<std::size_t>(1, k * ldb), rng,
                                   -1.5f, 1.5f);
      auto c_ref = random_vector(std::max<std::size_t>(1, mr * ldc), rng,
                                 -1.0f, 1.0f);
      auto c_simd = c_ref;
      // Per-element term magnitude for the cancellation-aware tolerance.
      std::vector<float> mag(c_ref.size(), 0.0f);
      for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          float m_acc = std::abs(c_ref[i * ldc + j]);
          for (std::size_t p = 0; p < k; ++p) {
            m_acc += std::abs(alpha * a[i * lda + p] * b[p * ldb + j]);
          }
          mag[i * ldc + j] = m_acc;
        }
      }
      scalar.gemm_block(alpha, a.data(), lda, b.data(), ldb, c_ref.data(),
                        ldc, mr, n, k);
      tier->gemm_block(alpha, a.data(), lda, b.data(), ldb, c_simd.data(),
                       ldc, mr, n, k);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        ASSERT_TRUE(near_reduced(c_ref[i], c_simd[i], mag[i]))
            << tier->name << " gemm_block seed=" << seed << " mr=" << mr
            << " n=" << n << " k=" << k << " elem=" << i;
      }
      // Padding columns (j >= n per row) must be untouched — verified by
      // the exact equality of the shared initial values above wherever
      // the kernel was not supposed to write.
    }
  }
}

TEST(KernelProperty, DispatchedGemmMatchesNaiveUnderEveryTier) {
  // End-to-end: the public tensor::gemm (packing, beta scaling,
  // ThreadPool fan-out) agrees with gemm_naive whichever tier is forced.
  const st::DispatchLevel original = st::active_kernels().level;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) == nullptr) continue;
    st::force_dispatch(level);
    for (const auto& [m, n, k] :
         std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
             {1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {40, 56, 300}, {65, 19, 64}}) {
      su::Rng rng(m * 1000 + n * 10 + k);
      st::MatrixF a(m, k, 0.0f);
      st::MatrixF b(k, n, 0.0f);
      for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      st::MatrixF c_ref(m, n, 0.5f);
      st::MatrixF c(m, n, 0.5f);
      st::gemm_naive(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a, b,
                     0.25f, c_ref);
      st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a, b, 0.25f, c);
      // Magnitude of the accumulated terms per element: |alpha| |A| |B|.
      st::MatrixF a_abs = a;
      st::MatrixF b_abs = b;
      for (float& v : a_abs) v = std::abs(v);
      for (float& v : b_abs) v = std::abs(v);
      st::MatrixF mag(m, n, 0.5f * 0.25f);
      st::gemm_naive(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a_abs,
                     b_abs, 1.0f, mag);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_TRUE(
            near_reduced(c_ref.data()[i], c.data()[i], mag.data()[i]))
            << st::dispatch_level_name(level) << " m=" << m << " n=" << n
            << " k=" << k;
      }
    }
  }
  st::force_dispatch(original);
}

TEST(KernelProperty, ForceDispatchRejectsUnavailableTiersAndRoundTrips) {
  const st::DispatchLevel original = st::active_kernels().level;
  // Forcing scalar always works and is observable.
  st::force_dispatch(st::DispatchLevel::kScalar);
  EXPECT_EQ(st::active_kernels().level, st::DispatchLevel::kScalar);
  EXPECT_STREQ(st::active_kernels().name, "scalar");
  // Restore and verify.
  st::force_dispatch(original);
  EXPECT_EQ(st::active_kernels().level, original);
  if (st::kernel_set_for(st::DispatchLevel::kAvx2) == nullptr) {
    EXPECT_THROW(st::force_dispatch(st::DispatchLevel::kAvx2),
                 std::invalid_argument);
  }
}

// ---- Sparse-A GEMM: the same bits as the dense schedule ---------------

namespace {

enum class Code { kOneHot, kThermometer, kRandom };

/// op(A) as an m x k code matrix: one-hot or thermometer over blocks of
/// 10 columns (a ragged last block included), or each entry nonzero with
/// probability `density`.
st::MatrixF code_matrix(std::size_t m, std::size_t k, Code code,
                        double density, su::Rng& rng) {
  constexpr std::size_t kBins = 10;
  st::MatrixF a(m, k, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t b0 = 0; b0 < k; b0 += kBins) {
      const std::size_t bins = std::min(kBins, k - b0);
      const std::size_t hot = rng.uniform_index(bins);
      for (std::size_t j = 0; j < bins; ++j) {
        float& v = a(i, b0 + j);
        switch (code) {
          case Code::kOneHot:
            v = j == hot ? 1.0f : 0.0f;
            break;
          case Code::kThermometer:
            v = j <= hot ? 1.0f : 0.0f;
            break;
          case Code::kRandom:
            if (rng.bernoulli(density)) {
              v = static_cast<float>(rng.uniform(-2.0, 2.0));
            }
            break;
        }
      }
    }
  }
  return a;
}

st::MatrixF transposed(const st::MatrixF& x) {
  st::MatrixF t(x.cols(), x.rows(), 0.0f);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) t(j, i) = x(i, j);
  }
  return t;
}

::testing::AssertionResult same_bits(const st::MatrixF& expected,
                                     const st::MatrixF& actual) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto want = std::bit_cast<std::uint32_t>(expected.data()[i]);
    const auto got = std::bit_cast<std::uint32_t>(actual.data()[i]);
    if (want != got) {
      char bits[64];
      std::snprintf(bits, sizeof(bits), "0x%08x vs 0x%08x", want, got);
      return ::testing::AssertionFailure()
             << "element " << i << " (row " << i / expected.cols() << ", col "
             << i % expected.cols() << "): dense " << expected.data()[i]
             << " vs " << actual.data()[i] << " (" << bits << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<st::DispatchLevel> available_levels() {
  std::vector<st::DispatchLevel> levels;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

struct SparseCase {
  st::Transpose trans_a;
  st::Transpose trans_b;
  float alpha;
  float beta;
};

/// Runs gemm(), the forced sparse-A schedule and the dense schedule on
/// the same operands in every available tier; all three must agree bit
/// for bit (the forced schedule only when `finite_b`, its contract).
/// `op_a` is op(A) (m x k), `op_b` is op(B) (k x n).
void expect_sparse_matches_dense(const st::MatrixF& op_a,
                                 const st::MatrixF& op_b,
                                 const st::MatrixF& c0, const SparseCase& sc,
                                 const std::string& label,
                                 bool finite_b = true) {
  const st::MatrixF a =
      sc.trans_a == st::Transpose::kNo ? op_a : transposed(op_a);
  const st::MatrixF b =
      sc.trans_b == st::Transpose::kNo ? op_b : transposed(op_b);
  const st::DispatchLevel original = st::active_kernels().level;
  for (const st::DispatchLevel level : available_levels()) {
    st::force_dispatch(level);
    st::MatrixF dense = c0;
    st::MatrixF chosen = c0;
    st::MatrixF sparse = c0;
    st::detail::gemm_dense(sc.trans_a, sc.trans_b, sc.alpha, a, b, sc.beta,
                           dense);
    st::gemm(sc.trans_a, sc.trans_b, sc.alpha, a, b, sc.beta, chosen);
    st::detail::gemm_sparse_a(sc.trans_a, sc.trans_b, sc.alpha, a, b,
                              sc.beta, sparse);
    const std::string where =
        label + " tier=" + st::dispatch_level_name(level) +
        " transA=" + (sc.trans_a == st::Transpose::kYes ? "T" : "N") +
        " transB=" + (sc.trans_b == st::Transpose::kYes ? "T" : "N") +
        " alpha=" + std::to_string(sc.alpha) +
        " beta=" + std::to_string(sc.beta);
    EXPECT_TRUE(same_bits(dense, chosen)) << "gemm " << where;
    if (finite_b) {
      EXPECT_TRUE(same_bits(dense, sparse)) << "gemm_sparse_a " << where;
    }
  }
  st::force_dispatch(original);
}

/// Pins the active kernel tier for a scope.
struct ScopedTier {
  explicit ScopedTier(st::DispatchLevel level)
      : previous(st::force_dispatch(level)) {}
  ~ScopedTier() { st::force_dispatch(previous); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
  st::DispatchLevel previous;
};

st::MatrixF random_dense(std::size_t rows, std::size_t cols, su::Rng& rng) {
  st::MatrixF x(rows, cols, 0.0f);
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

}  // namespace

TEST(KernelProperty, SparseAGemmIsBitIdenticalToDenseAcrossShapes) {
  // Codes on both sides of gemm()'s density switch-over: one-hot (10%),
  // thermometer (~55%) and random densities. k > 256 spans two K panels
  // of the dense schedule.
  struct Variant {
    Code code;
    double density;
    const char* name;
  };
  const Variant variants[] = {{Code::kOneHot, 0.0, "one-hot"},
                              {Code::kThermometer, 0.0, "thermometer"},
                              {Code::kRandom, 0.02, "d=0.02"},
                              {Code::kRandom, 0.2, "d=0.2"},
                              {Code::kRandom, 0.3, "d=0.3"},
                              {Code::kRandom, 0.7, "d=0.7"}};
  const float alphas[] = {1.0f, 0.37f, -1.25f};
  const float betas[] = {0.0f, 1.0f, 0.999f};
  std::size_t counter = 0;
  for (const std::size_t m : {1UL, 3UL, 64UL, 1666UL}) {
    for (const std::size_t n : {1UL, 8UL, 300UL}) {
      for (const std::size_t k : {64UL, 280UL, 300UL}) {
        for (const Variant& variant : variants) {
          ++counter;
          su::Rng rng(counter * 7919);
          const SparseCase sc{
              counter % 2 == 0 ? st::Transpose::kNo : st::Transpose::kYes,
              (counter / 2) % 2 == 0 ? st::Transpose::kNo
                                     : st::Transpose::kYes,
              alphas[counter % 3], betas[(counter / 3) % 3]};
          const st::MatrixF op_a =
              code_matrix(m, k, variant.code, variant.density, rng);
          const st::MatrixF op_b = random_dense(k, n, rng);
          const st::MatrixF c0 = random_dense(m, n, rng);
          expect_sparse_matches_dense(
              op_a, op_b, c0, sc,
              std::string(variant.name) + " m=" + std::to_string(m) +
                  " n=" + std::to_string(n) + " k=" + std::to_string(k));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(KernelProperty, SparseAGemmCoversEveryTransposeAndBeta) {
  // The training shapes: one-hot support 64x280x300 and the X^T A trace
  // product 280x300x64, in all transpose and beta combinations.
  su::Rng rng(2024);
  const st::MatrixF x = code_matrix(64, 280, Code::kOneHot, 0.0, rng);
  const st::MatrixF w = random_dense(280, 300, rng);
  const st::MatrixF act = random_dense(64, 300, rng);
  const st::MatrixF s0 = random_dense(64, 300, rng);
  const st::MatrixF pij0 = random_dense(280, 300, rng);
  for (const st::Transpose ta : {st::Transpose::kNo, st::Transpose::kYes}) {
    for (const st::Transpose tb : {st::Transpose::kNo, st::Transpose::kYes}) {
      for (const float beta : {0.0f, 1.0f, 0.999f}) {
        expect_sparse_matches_dense(x, w, s0, {ta, tb, 1.0f, beta},
                                    "support");
        expect_sparse_matches_dense(transposed(x), act, pij0,
                                    {ta, tb, 0.001f / 64.0f, beta}, "trace");
      }
    }
  }
}

TEST(KernelProperty, SparseAGemmFallsBackToDenseOnNonFiniteB) {
  // 0 * NaN and 0 * Inf are NaN in the dense sweep: a skipped zero would
  // hide them, so gemm() must run the dense schedule here.
  for (const float poison : {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity()}) {
    su::Rng rng(99);
    const st::MatrixF a = code_matrix(64, 280, Code::kOneHot, 0.0, rng);
    st::MatrixF b = random_dense(280, 300, rng);
    b(137, 42) = poison;
    const st::MatrixF c0 = random_dense(64, 300, rng);
    expect_sparse_matches_dense(
        a, b, c0, {st::Transpose::kNo, st::Transpose::kNo, 1.0f, 1.0f},
        "poison=" + std::to_string(poison), /*finite_b=*/false);
    // Rows whose code skips column 137 still see 0 * poison = NaN.
    st::MatrixF c = c0;
    st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, a, b, 1.0f, c);
    for (std::size_t i = 0; i < c.rows(); ++i) {
      if (a(i, 137) == 0.0f) {
        EXPECT_TRUE(std::isnan(c(i, 42))) << "row " << i;
      } else {
        EXPECT_FALSE(std::isfinite(c(i, 42))) << "row " << i;
      }
    }
  }
}

TEST(KernelProperty, SparseAGemmKeepsTheDenseSignOfZero) {
  // The dense sweep adds the skipped (alpha * +0) * b terms; on a -0.0
  // running sum a +0.0 term flips it to +0.0. Build exactly that: C is
  // all -0.0 with beta = 1, B has all-zero columns that are +0.0 except a
  // few -0.0 entries, and alpha < 0 makes every product's sign the
  // opposite of b's. The dense result is then +0.0 in every such column;
  // skipping zeros alone would leave -0.0 wherever the row's stored
  // entries miss the column's -0.0 entries.
  su::Rng rng(7);
  const std::size_t m = 64;
  const std::size_t k = 280;
  const std::size_t n = 300;
  const st::MatrixF a = code_matrix(m, k, Code::kOneHot, 0.0, rng);
  st::MatrixF b = random_dense(k, n, rng);
  for (std::size_t j = 0; j < n; j += 3) {
    for (std::size_t p = 0; p < k; ++p) b(p, j) = 0.0f;
    for (int flips = 0; flips < 2; ++flips) b(rng.uniform_index(k), j) = -0.0f;
  }
  const st::MatrixF c0(m, n, -0.0f);
  const SparseCase sc{st::Transpose::kNo, st::Transpose::kNo, -1.5f, 1.0f};
  expect_sparse_matches_dense(a, b, c0, sc, "negative zero");

  // The case above must actually occur: some dense result is +0.0 that a
  // plain skip over the stored entries would have left at -0.0.
  st::MatrixF dense = c0;
  st::detail::gemm_dense(sc.trans_a, sc.trans_b, sc.alpha, a, b, sc.beta,
                         dense);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; j += 3) {
      bool stored_hits_negative = false;
      for (std::size_t p = 0; p < k; ++p) {
        stored_hits_negative |= a(i, p) != 0.0f && std::signbit(b(p, j));
      }
      if (!stored_hits_negative && !std::signbit(dense(i, j))) ++flipped;
    }
  }
  EXPECT_GT(flipped, 0u);
}

// ---- Segmented trace product: per-shard gemm plus ordered combine -------

namespace {

/// The per-shard computation segmented_gemm_tn replaces: for each segment
/// of A's rows, gemm(kYes, kNo, 1, A_s, B_s, 0, part), then total += part
/// in segment order from +0.0. `b` is the k x n window at column `col0`
/// of `b_full`.
st::MatrixF per_segment_reference(const st::MatrixF& a,
                                  const st::MatrixF& b_full,
                                  std::size_t col0, std::size_t n,
                                  const std::vector<std::size_t>& seg_end) {
  st::MatrixF total(a.cols(), n, 0.0f);
  std::size_t row = 0;
  for (const std::size_t end : seg_end) {
    const std::size_t rows = end - row;
    st::MatrixF part(a.cols(), n, 0.0f);
    if (rows > 0) {
      st::MatrixF a_s(rows, a.cols());
      st::MatrixF b_s(rows, n);
      for (std::size_t r = 0; r < rows; ++r) {
        std::copy_n(a.row(row + r), a.cols(), a_s.row(r));
        std::copy_n(b_full.row(row + r) + col0, n, b_s.row(r));
      }
      st::gemm(st::Transpose::kYes, st::Transpose::kNo, 1.0f, a_s, b_s, 0.0f,
               part);
    }
    for (std::size_t i = 0; i < total.size(); ++i) {
      total.data()[i] += part.data()[i];
    }
    row = end;
  }
  return total;
}

/// Round-robin segments of a k-row batch over `shards` shards, as the
/// distributed trainer packs them (shard v gets rows v, v + S, ...).
std::vector<std::size_t> round_robin_segments(std::size_t k,
                                              std::size_t shards) {
  std::vector<std::size_t> seg_end(shards);
  std::size_t end = 0;
  for (std::size_t v = 0; v < shards; ++v) {
    end += k / shards + (v < k % shards ? 1 : 0);
    seg_end[v] = end;
  }
  return seg_end;
}

}  // namespace

TEST(KernelProperty, SegmentedTraceProductMatchesPerSegmentGemmBitForBit) {
  // One-hot and dense inputs against activation windows that start and
  // end off every SIMD boundary; 8 shards, including batches too short
  // to fill them (empty trailing segments), and a single segment.
  struct Variant {
    Code code;
    double density;
    const char* name;
  };
  const Variant variants[] = {{Code::kOneHot, 0.0, "one-hot"},
                              {Code::kRandom, 0.3, "d=0.3"},
                              {Code::kRandom, 1.0, "dense"}};
  const std::size_t full_width = 300;
  const std::size_t windows[][2] = {
      {0, 300}, {0, 1},   {3, 7},   {8, 16},  {13, 17},
      {150, 150}, {17, 64}, {31, 65}, {299, 1}, {64, 129}};
  std::size_t counter = 0;
  for (const st::DispatchLevel level : available_levels()) {
    const ScopedTier pin(level);
    for (const std::size_t k : {1UL, 5UL, 32UL, 64UL}) {
      for (const std::size_t shards : {1UL, 8UL}) {
        const std::vector<std::size_t> seg_end =
            round_robin_segments(k, shards);
        for (const Variant& variant : variants) {
          ++counter;
          su::Rng rng(counter * 104729);
          const st::MatrixF a =
              code_matrix(k, 280, variant.code, variant.density, rng);
          st::MatrixF b(k, full_width, 0.0f);
          for (float& v : b) v = static_cast<float>(rng.uniform(0.0, 1.0));
          for (const auto& window : windows) {
            const std::size_t col0 = window[0];
            const std::size_t n = window[1];
            const st::MatrixF expected =
                per_segment_reference(a, b, col0, n, seg_end);
            // Stride n + 3: the output window need not be contiguous.
            std::vector<float> out(a.cols() * (n + 3), 7.0f);
            st::segmented_gemm_tn(a, b.data() + col0, full_width, n, seg_end,
                                  out.data(), n + 3);
            st::MatrixF actual(a.cols(), n);
            for (std::size_t i = 0; i < a.cols(); ++i) {
              std::copy_n(out.data() + i * (n + 3), n, actual.row(i));
            }
            EXPECT_TRUE(same_bits(expected, actual))
                << variant.name << " tier=" << st::dispatch_level_name(level)
                << " k=" << k << " shards=" << shards << " cols=[" << col0
                << ", " << col0 + n << ")";
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

TEST(KernelProperty, SegmentedTraceProductKeepsNonFiniteProducts) {
  // A NaN or Inf activation reaches every input row of its segment in the
  // per-segment gemm (0 * Inf is NaN in the dense sweep), so the
  // segmented product must not skip the zero entries there.
  for (const float poison : {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity()}) {
    for (const st::DispatchLevel level : available_levels()) {
      const ScopedTier pin(level);
      su::Rng rng(31);
      const st::MatrixF a = code_matrix(32, 280, Code::kOneHot, 0.0, rng);
      st::MatrixF b = random_dense(32, 40, rng);
      b(9, 5) = poison;
      const std::vector<std::size_t> seg_end = round_robin_segments(32, 8);
      st::MatrixF actual(280, 40);
      st::segmented_gemm_tn(a, b.data(), 40, 40, seg_end, actual.data(), 40);
      const st::MatrixF expected = per_segment_reference(a, b, 0, 40, seg_end);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const float want = expected.data()[i];
        const float got = actual.data()[i];
        EXPECT_TRUE(std::isnan(want) ? std::isnan(got)
                                     : std::bit_cast<std::uint32_t>(want) ==
                                           std::bit_cast<std::uint32_t>(got))
            << "tier=" << st::dispatch_level_name(level) << " element " << i;
      }
      for (std::size_t i = 0; i < 280; ++i) {
        EXPECT_FALSE(std::isfinite(actual(i, 5))) << "input row " << i;
      }
    }
  }
}

TEST(KernelProperty, SegmentedTraceProductRejectsBadSegments) {
  const st::MatrixF a(8, 4, 1.0f);
  const st::MatrixF b(8, 3, 1.0f);
  st::MatrixF c(4, 3);
  EXPECT_THROW(st::segmented_gemm_tn(a, b.data(), 3, 3, {4, 7}, c.data(), 3),
               std::invalid_argument);  // does not end at k
  EXPECT_THROW(st::segmented_gemm_tn(a, b.data(), 3, 3, {5, 4, 8}, c.data(), 3),
               std::invalid_argument);  // not ascending
  EXPECT_THROW(st::segmented_gemm_tn(a, b.data(), 2, 3, {8}, c.data(), 3),
               std::invalid_argument);  // ldb < n
}
