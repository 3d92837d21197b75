// Kernel-dispatch microbenchmark: times every available kernel tier
// (scalar / sse42 / avx2) on the primitives that dominate BCPNN training
// — GEMM above all — and emits BENCH_kernels.json with per-tier numbers
// and speedups over the scalar reference. GEMM runs at square shapes and
// at the shapes the system runs: one-hot support (batch 64 x 280 inputs
// x 300 MCUs), its X^T A trace product, and 48- and 1666-row scoring,
// each through gemm() and the dense schedule alone. A density sweep of
// the sparse-A schedule against the dense one is where gemm()'s
// switch-over constants come from. GFLOP/s are dense-equivalent
// (2mnk / time) throughout.
//
//   bench_kernels [--out BENCH_kernels.json] [--reps 5] [--check]
//
// --check exits 1 unless the sse42 and avx2 vexp and vlog_floored rows
// run at >= 2x the scalar tier of the same run (tiers the host lacks are
// skipped), so scalar-speed transcendentals cannot come back unseen.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "streambrain/streambrain.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"

using namespace streambrain;
namespace st = streambrain::tensor;

namespace {

struct Result {
  std::string kernel;
  std::string shape;
  std::string tier;
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_scalar = 1.0;
};

st::MatrixF random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

/// Quantile one-hot codes: one 1 per block of `bins` columns.
st::MatrixF one_hot_codes(std::size_t rows, std::size_t features,
                          std::size_t bins, util::Rng& rng) {
  st::MatrixF m(rows, features * bins, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < features; ++f) {
      m(r, f * bins + rng.uniform_index(bins)) = 1.0f;
    }
  }
  return m;
}

/// Each entry uniform in [0, 1) with probability `density`, else +0.0.
st::MatrixF sparse_matrix(std::size_t rows, std::size_t cols, double density,
                          util::Rng& rng) {
  st::MatrixF m(rows, cols, 0.0f);
  for (float& v : m) {
    if (rng.bernoulli(density)) v = static_cast<float>(rng.uniform());
  }
  return m;
}

/// Median-of-reps wall time of `fn` (one warmup call first).
template <typename Fn>
double time_call(std::size_t reps, Fn&& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<const st::KernelSet*> available_tiers() {
  std::vector<const st::KernelSet*> tiers;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (const st::KernelSet* set = st::kernel_set_for(level)) {
      tiers.push_back(set);
    }
  }
  return tiers;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("reps", 5)));

  const auto tiers = available_tiers();
  const st::DispatchLevel original = st::active_kernels().level;
  std::printf("=== Kernel dispatch microbench ===\n");
  std::printf("max supported: %s, active: %s, tiers built: %zu\n\n",
              st::dispatch_level_name(st::max_supported_dispatch()),
              st::dispatch_level_name(original), tiers.size());

  const bool check = args.has("check");
  util::Rng rng(42);
  std::vector<Result> results;
  double gemm_best_speedup = 1.0;

  // Times one GEMM schedule in every tier; rows after the scalar one get
  // their speedup over it.
  const auto time_gemm = [&](const std::string& kernel,
                             const std::string& shape, double flops,
                             const std::function<void()>& fn) {
    double scalar_seconds = 0.0;
    for (const st::KernelSet* tier : tiers) {
      st::force_dispatch(tier->level);
      const double seconds = time_call(reps, fn);
      Result result{kernel, shape, tier->name, seconds, flops / seconds / 1e9,
                    1.0};
      if (tier->level == st::DispatchLevel::kScalar) {
        scalar_seconds = seconds;
      } else if (scalar_seconds > 0.0) {
        result.speedup_vs_scalar = scalar_seconds / seconds;
      }
      results.push_back(result);
      std::printf("  %-13s %-22s %-7s %8.3f ms  %7.2f GFLOP/s  %5.2fx\n",
                  kernel.c_str(), shape.c_str(), tier->name, seconds * 1e3,
                  result.gflops, result.speedup_vs_scalar);
    }
    st::force_dispatch(original);
  };

  // --- GEMM through the public dispatched entry point -----------------
  for (const std::size_t dim : {128UL, 256UL, 384UL}) {
    const st::MatrixF a = random_matrix(dim, dim, rng);
    const st::MatrixF b = random_matrix(dim, dim, rng);
    st::MatrixF c(dim, dim, 0.0f);
    const double flops = 2.0 * static_cast<double>(dim) * dim * dim;
    const std::string shape = std::to_string(dim) + "x" + std::to_string(dim) +
                              "x" + std::to_string(dim);
    time_gemm("gemm", shape, flops, [&] {
      st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, a, b, 0.0f, c);
    });
  }
  for (const Result& result : results) {
    gemm_best_speedup = std::max(gemm_best_speedup, result.speedup_vs_scalar);
  }

  // --- GEMM at the shapes training and serving run --------------------
  // HIGGS: 28 features x 10 quantile bins = 280 one-hot inputs, 300 MCUs.
  constexpr std::size_t kFeatures = 28;
  constexpr std::size_t kBins = 10;
  constexpr std::size_t kInputs = kFeatures * kBins;
  constexpr std::size_t kMcus = 300;
  const st::MatrixF w = random_matrix(kInputs, kMcus, rng);
  for (const std::size_t rows : {64UL, 48UL, 1666UL}) {
    const st::MatrixF x = one_hot_codes(rows, kFeatures, kBins, rng);
    st::MatrixF s(rows, kMcus, 0.0f);
    const double flops = 2.0 * static_cast<double>(rows) * kInputs * kMcus;
    const std::string shape = "onehot " + std::to_string(rows) + "x" +
                              std::to_string(kInputs) + "x" +
                              std::to_string(kMcus);
    time_gemm("gemm", shape, flops, [&] {
      st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.0f, x, w, 0.0f, s);
    });
    time_gemm("gemm_dense", shape, flops, [&] {
      st::detail::gemm_dense(st::Transpose::kNo, st::Transpose::kNo, 1.0f, x,
                             w, 0.0f, s);
    });
  }
  {
    // Trace product p_ij = (1 - alpha) p_ij + (alpha / B) X^T A.
    constexpr std::size_t kBatch = 64;
    const st::MatrixF x = one_hot_codes(kBatch, kFeatures, kBins, rng);
    st::MatrixF act = sparse_matrix(kBatch, kMcus, 1.0, rng);
    st::MatrixF pij = sparse_matrix(kInputs, kMcus, 1.0, rng);
    const double flops = 2.0 * static_cast<double>(kInputs) * kMcus * kBatch;
    const std::string shape = "X^T.A " + std::to_string(kInputs) + "x" +
                              std::to_string(kMcus) + "x" +
                              std::to_string(kBatch);
    time_gemm("gemm", shape, flops, [&] {
      st::gemm(st::Transpose::kYes, st::Transpose::kNo, 1e-3f, x, act, 0.99f,
               pij);
    });
    time_gemm("gemm_dense", shape, flops, [&] {
      st::detail::gemm_dense(st::Transpose::kYes, st::Transpose::kNo, 1e-3f,
                             x, act, 0.99f, pij);
    });
  }

  // --- Sparse-A vs dense schedule: density and k sweeps ----------------
  // gemm() takes the sparse schedule where these rows show it winning.
  const auto sweep = [&](std::size_t m, std::size_t k, std::size_t n,
                         double density) {
    const st::MatrixF a = sparse_matrix(m, k, density, rng);
    const st::MatrixF b = random_matrix(k, n, rng);
    st::MatrixF c(m, n, 0.0f);
    const double flops = 2.0 * static_cast<double>(m) * n * k;
    char shape[64];
    std::snprintf(shape, sizeof(shape), "d=%.2f %zux%zux%zu", density, m, k,
                  n);
    time_gemm("gemm_sparse_a", shape, flops, [&] {
      st::detail::gemm_sparse_a(st::Transpose::kNo, st::Transpose::kNo, 1.0f,
                                a, b, 0.0f, c);
    });
    time_gemm("gemm_dense", shape, flops, [&] {
      st::detail::gemm_dense(st::Transpose::kNo, st::Transpose::kNo, 1.0f, a,
                             b, 0.0f, c);
    });
  };
  for (const double density : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    sweep(64, kInputs, kMcus, density);
  }
  for (const std::size_t k : {4UL, 8UL, 16UL, 32UL}) sweep(64, k, kMcus, 0.1);

  // --- Vector primitives, per tier, straight through the vtable -------
  constexpr std::size_t kN = 1 << 16;
  st::MatrixF xs = random_matrix(1, kN, rng);
  st::MatrixF ys = random_matrix(1, kN, rng);
  st::MatrixF scratch(1, kN, 0.0f);
  const std::string vec_shape = "n=" + std::to_string(kN);
  struct VecBench {
    const char* name;
    double flops_per_elem;
  };
  volatile float sink = 0.0f;
  for (const st::KernelSet* tier : tiers) {
    const VecBench benches[6] = {{"axpy", 2.0},          {"dot", 2.0},
                                 {"reduce_sum", 1.0},    {"vexp", 1.0},
                                 {"vlog_floored", 1.0},  {"softmax_block", 4.0}};
    for (int which = 0; which < 6; ++which) {
      const double seconds = time_call(reps * 4, [&] {
        switch (which) {
          case 0:
            tier->axpy(0.5f, xs.data(), ys.data(), kN);
            break;
          case 1:
            sink = tier->dot(xs.data(), ys.data(), kN);
            break;
          case 2:
            sink = tier->sum(xs.data(), kN);
            break;
          case 3:
            tier->vexp(xs.data(), scratch.data(), kN);
            break;
          case 4:
            tier->vlog_floored(xs.data(), scratch.data(), 1e-6f, kN);
            break;
          case 5:
            std::copy_n(xs.data(), kN, scratch.data());
            tier->softmax_block(scratch.data(), kN, 1.0f);
            break;
        }
      });
      Result result{benches[which].name, vec_shape, tier->name, seconds,
                    benches[which].flops_per_elem * kN / seconds / 1e9, 1.0};
      // Tiers are iterated scalar-first, so the scalar time for this
      // bench is recorded in results already; look it up.
      for (const Result& prior : results) {
        if (prior.kernel == result.kernel && prior.shape == vec_shape &&
            prior.tier == std::string("scalar")) {
          result.speedup_vs_scalar = prior.seconds / seconds;
        }
      }
      results.push_back(result);
    }
  }
  (void)sink;

  // --- JSON report ------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"kernels\",\n";
  out << "  \"max_supported_dispatch\": \""
      << st::dispatch_level_name(st::max_supported_dispatch()) << "\",\n";
  out << "  \"active_dispatch\": \"" << st::dispatch_level_name(original)
      << "\",\n";
  out << "  \"tiers\": [";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    out << (i ? ", " : "") << '"' << tiers[i]->name << '"';
  }
  out << "],\n";
  out << "  \"gemm_best_speedup_vs_scalar\": " << gemm_best_speedup << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& result = results[i];
    out << "    {\"kernel\": \"" << result.kernel << "\", \"shape\": \""
        << result.shape << "\", \"tier\": \"" << result.tier
        << "\", \"seconds\": " << result.seconds
        << ", \"gflops\": " << result.gflops
        << ", \"speedup_vs_scalar\": " << result.speedup_vs_scalar << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nbest GEMM speedup vs scalar: %.2fx\nwrote %s\n",
              gemm_best_speedup, out_path.c_str());

  if (!check) return 0;
  // Same-run comparison only: the floor is relative to this host's
  // scalar tier, never an absolute number.
  constexpr double kMinTranscendentalSpeedup = 2.0;
  bool passed = true;
  for (const Result& result : results) {
    if ((result.kernel == "vexp" || result.kernel == "vlog_floored") &&
        result.tier != std::string("scalar") &&
        result.speedup_vs_scalar < kMinTranscendentalSpeedup) {
      std::printf("--check FAILED: %s on %s runs at %.2fx scalar (< %.1fx)\n",
                  result.kernel.c_str(), result.tier.c_str(),
                  result.speedup_vs_scalar, kMinTranscendentalSpeedup);
      passed = false;
    }
  }
  if (passed) {
    std::printf("--check passed: vexp and vlog_floored >= %.1fx scalar in "
                "every SIMD tier built and supported here\n",
                kMinTranscendentalSpeedup);
  }
  return passed ? 0 : 1;
}
