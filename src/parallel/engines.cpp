// Built-in compute engines. All three share exact semantics (the unit tests
// assert cross-engine agreement to float tolerance); they differ in
// vectorization and — for DeviceSim — explicit modeling of the host/device
// transfer pattern of the paper's fully-offloaded CUDA backend.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/engine.hpp"
#include "parallel/engine_registry.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"
#include "tensor/vecmath.hpp"

namespace streambrain::parallel {

namespace {

using tensor::MatrixF;

float floored_log(float value, float floor) noexcept {
  return std::log(std::max(value, floor));
}

/// Scalar reference engine: serial loops, no fast-math approximations.
/// The correctness anchor every other engine is tested against.
class NaiveEngine final : public Engine {
 public:
  [[nodiscard]] std::string name() const override { return "naive"; }

  void support(const MatrixF& x, const MatrixF& w, const float* bias,
               MatrixF& s) override {
    s.resize(x.rows(), w.cols());
    tensor::gemm_naive(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                       x, w, 0.0f, s);
    for (std::size_t r = 0; r < s.rows(); ++r) {
      for (std::size_t c = 0; c < s.cols(); ++c) s(r, c) += bias[c];
    }
  }

  void softmax_hcu(MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    if (mcus_per_hcu == 0 || s.cols() % mcus_per_hcu != 0) {
      throw std::invalid_argument("softmax_hcu: bad block size");
    }
    for (std::size_t r = 0; r < s.rows(); ++r) {
      float* row = s.row(r);
      for (std::size_t b = 0; b < s.cols(); b += mcus_per_hcu) {
        float max_v = row[b];
        for (std::size_t i = 1; i < mcus_per_hcu; ++i) {
          max_v = std::max(max_v, row[b + i]);
        }
        double total = 0.0;
        for (std::size_t i = 0; i < mcus_per_hcu; ++i) {
          row[b + i] =
              std::exp(inverse_temperature * (row[b + i] - max_v));
          total += row[b + i];
        }
        for (std::size_t i = 0; i < mcus_per_hcu; ++i) {
          row[b + i] = static_cast<float>(row[b + i] / total);
        }
      }
    }
  }

  void update_traces(const MatrixF& x, const MatrixF& a, float alpha,
                     float* pi, float* pj, MatrixF& pij) override {
    const std::size_t batch = x.rows();
    const std::size_t n_in = x.cols();
    const std::size_t n_out = a.cols();
    const float inv_b = 1.0f / static_cast<float>(batch);
    for (std::size_t i = 0; i < n_in; ++i) {
      float mean_x = 0.0f;
      for (std::size_t b = 0; b < batch; ++b) mean_x += x(b, i);
      mean_x *= inv_b;
      pi[i] += alpha * (mean_x - pi[i]);
    }
    for (std::size_t j = 0; j < n_out; ++j) {
      float mean_a = 0.0f;
      for (std::size_t b = 0; b < batch; ++b) mean_a += a(b, j);
      mean_a *= inv_b;
      pj[j] += alpha * (mean_a - pj[j]);
    }
    for (std::size_t i = 0; i < n_in; ++i) {
      for (std::size_t j = 0; j < n_out; ++j) {
        float mean_xa = 0.0f;
        for (std::size_t b = 0; b < batch; ++b) mean_xa += x(b, i) * a(b, j);
        mean_xa *= inv_b;
        pij(i, j) += alpha * (mean_xa - pij(i, j));
      }
    }
  }

  void recompute_weights(const float* pi, const float* pj, const MatrixF& pij,
                         float eps, float k_beta, MatrixF& w,
                         float* bias) override {
    const std::size_t n_in = pij.rows();
    const std::size_t n_out = pij.cols();
    w.resize(n_in, n_out);
    const float eps2 = eps * eps;
    for (std::size_t i = 0; i < n_in; ++i) {
      const float log_pi = floored_log(pi[i], eps);
      for (std::size_t j = 0; j < n_out; ++j) {
        w(i, j) = floored_log(pij(i, j), eps2) - log_pi -
                  floored_log(pj[j], eps);
      }
    }
    for (std::size_t j = 0; j < n_out; ++j) {
      bias[j] = k_beta * floored_log(pj[j], eps);
    }
  }
};

/// SIMD engine: every primitive routes through the runtime-dispatched
/// tensor::KernelSet (cache-blocked GEMM tiles over the ThreadPool,
/// vectorized exp/log approximations). This is the analogue of
/// StreamBrain's hand-vectorized CPU backend; the actual instruction
/// tier (scalar / sse42 / avx2) is decided once at startup by CPUID and
/// the STREAMBRAIN_DISPATCH override.
class SimdEngine final : public Engine {
 public:
  [[nodiscard]] std::string name() const override { return "simd"; }

  void support(const MatrixF& x, const MatrixF& w, const float* bias,
               MatrixF& s) override {
    s.resize(x.rows(), w.cols());
    tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f, x, w,
                 0.0f, s);
    tensor::add_row_bias(s, bias);
  }

  void softmax_hcu(MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    tensor::softmax_blocks_temperature(s, mcus_per_hcu, inverse_temperature);
  }

  void update_traces(const MatrixF& x, const MatrixF& a, float alpha,
                     float* pi, float* pj, MatrixF& pij) override {
    const std::size_t batch = x.rows();
    const std::size_t n_in = x.cols();
    const std::size_t n_out = a.cols();
    const float inv_b = 1.0f / static_cast<float>(batch);

    std::vector<float> mean_x(n_in, 0.0f);
    for (std::size_t b = 0; b < batch; ++b) {
      tensor::axpy(inv_b, x.row(b), mean_x.data(), n_in);
    }
    tensor::ema_update(pi, mean_x.data(), alpha, n_in);

    std::vector<float> mean_a(n_out, 0.0f);
    for (std::size_t b = 0; b < batch; ++b) {
      tensor::axpy(inv_b, a.row(b), mean_a.data(), n_out);
    }
    tensor::ema_update(pj, mean_a.data(), alpha, n_out);

    // p_ij = (1-alpha) p_ij + (alpha/B) X^T A as one GEMM.
    tensor::gemm(tensor::Transpose::kYes, tensor::Transpose::kNo,
                 alpha * inv_b, x, a, 1.0f - alpha, pij);
  }

  void recompute_weights(const float* pi, const float* pj, const MatrixF& pij,
                         float eps, float k_beta, MatrixF& w,
                         float* bias) override {
    const std::size_t n_in = pij.rows();
    const std::size_t n_out = pij.cols();
    w.resize(n_in, n_out);
    const float eps2 = eps * eps;
    std::vector<float> log_pj(n_out);
    tensor::vlog_floored(pj, log_pj.data(), eps, n_out);
    for (std::size_t j = 0; j < n_out; ++j) bias[j] = k_beta * log_pj[j];
    // Weights per fan-out block. With the vectorized log the paper's
    // 280 x 300 layer takes about 0.1 ms and runs inline; finer blocks
    // cost more in pool hand-offs than they saved.
    constexpr std::size_t kMinWeightsPerBlock = std::size_t{1} << 17;
    const std::size_t min_rows =
        (kMinWeightsPerBlock + n_out - 1) / std::max<std::size_t>(1, n_out);
    parallel::for_blocks(
        n_in, min_rows, [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            const float log_pi = tensor::fast_log(std::max(pi[i], eps));
            float* w_row = w.row(i);
            tensor::vlog_floored(pij.row(i), w_row, eps2, n_out);
            for (std::size_t j = 0; j < n_out; ++j) {
              w_row[j] -= log_pi + log_pj[j];
            }
          }
        });
  }
};

/// Host emulation of the paper's fully-offloaded CUDA backend. All state
/// (weights, traces) stays "device resident"; only batch inputs and final
/// activations cross the simulated PCIe boundary, and the engine accounts
/// each logical transfer. Numerics delegate to the SIMD kernels.
class DeviceSimEngine final : public Engine {
 public:
  [[nodiscard]] std::string name() const override { return "device_sim"; }

  void support(const MatrixF& x, const MatrixF& w, const float* bias,
               MatrixF& s) override {
    transfer_bytes_ += x.size() * sizeof(float);  // H2D: batch upload
    inner_.support(x, w, bias, s);
    transfer_bytes_ += s.size() * sizeof(float);  // D2H: activations
  }

  void softmax_hcu(MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    // Device-side kernel: no transfer.
    inner_.softmax_hcu(s, mcus_per_hcu, inverse_temperature);
  }

  void update_traces(const MatrixF& x, const MatrixF& a, float alpha,
                     float* pi, float* pj, MatrixF& pij) override {
    // Traces are device-resident; the batch was already uploaded by
    // support(), so the update itself moves nothing.
    inner_.update_traces(x, a, alpha, pi, pj, pij);
  }

  void recompute_weights(const float* pi, const float* pj, const MatrixF& pij,
                         float eps, float k_beta, MatrixF& w,
                         float* bias) override {
    inner_.recompute_weights(pi, pj, pij, eps, k_beta, w, bias);
  }

  [[nodiscard]] std::uint64_t transfer_bytes() const override {
    return transfer_bytes_;
  }

 private:
  SimdEngine inner_;
  std::uint64_t transfer_bytes_ = 0;
};

}  // namespace

namespace detail {

void register_builtin_engines(EngineRegistry& registry) {
  // Honest capability metadata for the KernelSet-backed engines: report
  // the tier the dispatcher selected for this process (CPUID +
  // STREAMBRAIN_DISPATCH), not the widest tier the build contains. The
  // startup selection — not active_kernels() — so a force_dispatch()
  // window in effect at first registry use cannot poison the metadata.
  const tensor::KernelSet& kernels = tensor::startup_kernels();
  registry.register_engine(
      {"naive", "scalar reference engine (correctness anchor)",
       /*simd_width=*/1, /*offload=*/false, /*counts_transfers=*/false,
       /*dispatch=*/""},
      [] { return std::make_unique<NaiveEngine>(); });
  registry.register_engine(
      {"simd",
       std::string("runtime-dispatched KernelSet engine (") + kernels.name +
           " tier): blocked GEMM tiles over the ThreadPool + vectorized "
           "exp/log",
       /*simd_width=*/kernels.simd_width, /*offload=*/false,
       /*counts_transfers=*/false, /*dispatch=*/kernels.name},
      [] { return std::make_unique<SimdEngine>(); });
  registry.register_engine(
      {"device_sim",
       "host emulation of the fully-offloaded GPU loop with PCIe accounting",
       /*simd_width=*/kernels.simd_width, /*offload=*/true,
       /*counts_transfers=*/true, /*dispatch=*/kernels.name},
      [] { return std::make_unique<DeviceSimEngine>(); });
}

}  // namespace detail

}  // namespace streambrain::parallel
