// google-benchmark microbenchmarks for the StreamBrain compute backends
// (paper Section III-A): the four BCPNN primitives per engine at
// Higgs-experiment dimensions, plus GEMM naive-vs-blocked. These support
// the paper's claim that hand-vectorized CPU kernels close the gap to
// framework baselines, and expose the dimension-dependent "jiggs" the
// paper observes on the GPU.

#include <benchmark/benchmark.h>

#include <memory>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

namespace {

struct Workload {
  std::size_t batch = 64;
  std::size_t n_in = 280;   // 28 features x 10 quantiles
  std::size_t n_out = 300;  // 1 HCU x 300 MCUs
  std::size_t mcus = 300;
  tensor::MatrixF x;
  tensor::MatrixF w;
  std::vector<float> bias;
  tensor::MatrixF a;
  std::vector<float> pi;
  std::vector<float> pj;
  tensor::MatrixF pij;

  Workload() {
    util::Rng rng(1);
    x = tensor::MatrixF(batch, n_in, 0.0f);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t f = 0; f < 28; ++f) {
        x(r, f * 10 + rng.uniform_index(10)) = 1.0f;
      }
    }
    w = tensor::MatrixF(n_in, n_out);
    for (float& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    bias.assign(n_out, 0.1f);
    a = tensor::MatrixF(batch, n_out);
    for (float& v : a) v = static_cast<float>(rng.uniform(0.0, 1.0));
    pi.assign(n_in, 0.1f);
    pj.assign(n_out, 1.0f / 300.0f);
    pij = tensor::MatrixF(n_in, n_out, 0.1f / 300.0f);
  }
};

Workload& workload() {
  static Workload w;
  return w;
}

void BM_Support(benchmark::State& state, const std::string& engine_name) {
  auto engine = parallel::EngineRegistry::instance().create(engine_name);
  auto& w = workload();
  tensor::MatrixF s;
  for (auto _ : state) {
    engine->support(w.x, w.w, w.bias.data(), s);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.batch));
}

void BM_SoftmaxHcu(benchmark::State& state, const std::string& engine_name) {
  auto engine = parallel::EngineRegistry::instance().create(engine_name);
  auto& w = workload();
  tensor::MatrixF s = w.a;
  for (auto _ : state) {
    engine->softmax_hcu(s, w.mcus, 1.0f);
    benchmark::DoNotOptimize(s.data());
  }
}

void BM_TraceUpdate(benchmark::State& state, const std::string& engine_name) {
  auto engine = parallel::EngineRegistry::instance().create(engine_name);
  auto& w = workload();
  auto pi = w.pi;
  auto pj = w.pj;
  auto pij = w.pij;
  for (auto _ : state) {
    engine->update_traces(w.x, w.a, 0.05f, pi.data(), pj.data(), pij);
    benchmark::DoNotOptimize(pij.data());
  }
}

void BM_WeightRecompute(benchmark::State& state,
                        const std::string& engine_name) {
  auto engine = parallel::EngineRegistry::instance().create(engine_name);
  auto& w = workload();
  tensor::MatrixF weights;
  std::vector<float> bias(w.n_out);
  for (auto _ : state) {
    engine->recompute_weights(w.pi.data(), w.pj.data(), w.pij, 1e-4f, 1.0f,
                              weights, bias.data());
    benchmark::DoNotOptimize(weights.data());
  }
}

void BM_GemmNaive(benchmark::State& state) {
  auto& w = workload();
  tensor::MatrixF c(w.batch, w.n_out, 0.0f);
  for (auto _ : state) {
    tensor::gemm_naive(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                       w.x, w.w, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(w.batch * w.n_in * w.n_out));
}

void BM_GemmBlocked(benchmark::State& state) {
  auto& w = workload();
  tensor::MatrixF c(w.batch, w.n_out, 0.0f);
  for (auto _ : state) {
    tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f, w.x,
                 w.w, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(w.batch * w.n_in * w.n_out));
}

// The paper's "jiggs": GEMM throughput is not monotone in the dimension;
// some MCU counts are more favorable than others.
void BM_GemmMcuDimension(benchmark::State& state) {
  const std::size_t mcus = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  tensor::MatrixF x(64, 280);
  for (float& v : x) v = static_cast<float>(rng.uniform(0.0, 1.0));
  tensor::MatrixF w(280, mcus);
  for (float& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  tensor::MatrixF c(64, mcus, 0.0f);
  for (auto _ : state) {
    tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f, x, w,
                 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * 64 *
                          280 * static_cast<int64_t>(mcus));
}

// End-to-end training epoch per engine (the §III-A parity claim is about
// whole-loop throughput, not single kernels): one unsupervised epoch of
// the Higgs-shaped layer, reported as events/second.
void BM_FullEpoch(benchmark::State& state, const std::string& engine_name) {
  auto engine = parallel::EngineRegistry::instance().create(engine_name);
  auto& w = workload();
  std::vector<float> pi = w.pi;
  std::vector<float> pj = w.pj;
  tensor::MatrixF pij = w.pij;
  tensor::MatrixF weights(w.n_in, w.n_out, 0.0f);
  std::vector<float> bias(w.n_out, 0.0f);
  tensor::MatrixF activations;
  for (auto _ : state) {
    // 8 batches = one scaled epoch.
    for (int batch = 0; batch < 8; ++batch) {
      engine->support(w.x, weights, bias.data(), activations);
      engine->softmax_hcu(activations, w.mcus, 1.0f);
      engine->update_traces(w.x, activations, 0.05f, pi.data(), pj.data(),
                            pij);
      engine->recompute_weights(pi.data(), pj.data(), pij, 1e-4f, 1.0f,
                                weights, bias.data());
    }
    benchmark::DoNotOptimize(weights.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          static_cast<int64_t>(w.batch));
}

}  // namespace

BENCHMARK_CAPTURE(BM_FullEpoch, naive, "naive")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_FullEpoch, simd, "simd")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_FullEpoch, device_sim, "device_sim")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_Support, naive, "naive")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_Support, simd, "simd")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_Support, device_sim, "device_sim")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_SoftmaxHcu, naive, "naive")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_SoftmaxHcu, simd, "simd")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_TraceUpdate, naive, "naive")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_TraceUpdate, simd, "simd")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_WeightRecompute, naive, "naive")->MinTime(0.1);
BENCHMARK_CAPTURE(BM_WeightRecompute, simd, "simd")->MinTime(0.1);
BENCHMARK(BM_GemmNaive)->MinTime(0.1);
BENCHMARK(BM_GemmBlocked)->MinTime(0.1);
BENCHMARK(BM_GemmMcuDimension)
    ->Arg(30)->Arg(100)->Arg(256)->Arg(300)->Arg(512)->Arg(1000)
    ->MinTime(0.05);

BENCHMARK_MAIN();
