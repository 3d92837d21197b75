#pragma once
// Timing decorator at the parallel::Engine seam, used only by the traced
// run. It is registered through the public EngineRegistry under its own
// name and wraps a fresh instance of the default engine, so a model
// compiled on it computes bit-identically to one on the default engine.
//
// Every instance owns its counters. The per-rank engines of a distributed
// fit and the shard replicas of a server are separate instances, each
// driven by one thread at a time, so no counter is shared between threads.
// The counters outlive their engine (the registry keeps them), and are
// only summed after the threads that wrote them have been joined.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "streambrain/streambrain.hpp"

namespace perfbench {

struct EngineCounters {
  double support_s = 0.0;
  double softmax_s = 0.0;
  double traces_s = 0.0;
  double weights_s = 0.0;
  std::uint64_t support_calls = 0;
  double support_flops = 0.0;  ///< 2 * batch * inputs * outputs per call
  double traces_bytes = 0.0;   ///< fp32 operands read and written per call

  [[nodiscard]] double total_s() const noexcept {
    return support_s + softmax_s + traces_s + weights_s;
  }
  EngineCounters& operator+=(const EngineCounters& other) noexcept {
    support_s += other.support_s;
    softmax_s += other.softmax_s;
    traces_s += other.traces_s;
    weights_s += other.weights_s;
    support_calls += other.support_calls;
    support_flops += other.support_flops;
    traces_bytes += other.traces_bytes;
    return *this;
  }
};

/// Owns the counters of every TimingEngine the process created. Reads must
/// happen after the writing threads were joined.
class CounterRegistry {
 public:
  static CounterRegistry& instance() {
    static CounterRegistry registry;
    return registry;
  }

  std::shared_ptr<EngineCounters> create() {
    auto counters = std::make_shared<EngineCounters>();
    const std::lock_guard<std::mutex> lock(mutex_);
    all_.push_back(counters);
    return counters;
  }

  /// Instances created so far, in creation order.
  [[nodiscard]] std::vector<EngineCounters> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<EngineCounters> out;
    out.reserve(all_.size());
    for (const auto& counters : all_) out.push_back(*counters);
    return out;
  }

  [[nodiscard]] EngineCounters sum() const {
    EngineCounters total;
    for (const auto& counters : snapshot()) total += counters;
    return total;
  }

 private:
  CounterRegistry() = default;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<EngineCounters>> all_;
};

class TimingEngine final : public streambrain::parallel::Engine {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TimingEngine(std::unique_ptr<streambrain::parallel::Engine> inner)
      : inner_(std::move(inner)),
        counters_(CounterRegistry::instance().create()) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void support(const streambrain::tensor::MatrixF& x,
               const streambrain::tensor::MatrixF& w, const float* bias,
               streambrain::tensor::MatrixF& s) override {
    const auto start = Clock::now();
    inner_->support(x, w, bias, s);
    counters_->support_s += since(start);
    counters_->support_calls += 1;
    counters_->support_flops += 2.0 * static_cast<double>(x.rows()) *
                                static_cast<double>(x.cols()) *
                                static_cast<double>(w.cols());
  }

  void softmax_hcu(streambrain::tensor::MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    const auto start = Clock::now();
    inner_->softmax_hcu(s, mcus_per_hcu, inverse_temperature);
    counters_->softmax_s += since(start);
  }

  void update_traces(const streambrain::tensor::MatrixF& x,
                     const streambrain::tensor::MatrixF& a, float alpha,
                     float* pi, float* pj,
                     streambrain::tensor::MatrixF& pij) override {
    const auto start = Clock::now();
    inner_->update_traces(x, a, alpha, pi, pj, pij);
    counters_->traces_s += since(start);
    // Read x and a once; read and write p_i, p_j and p_ij.
    const double batch = static_cast<double>(x.rows());
    const double in = static_cast<double>(x.cols());
    const double out = static_cast<double>(a.cols());
    counters_->traces_bytes +=
        4.0 * (batch * (in + out) + 2.0 * (in + out + in * out));
  }

  void recompute_weights(const float* pi, const float* pj,
                         const streambrain::tensor::MatrixF& pij, float eps,
                         float k_beta, streambrain::tensor::MatrixF& w,
                         float* bias) override {
    const auto start = Clock::now();
    inner_->recompute_weights(pi, pj, pij, eps, k_beta, w, bias);
    counters_->weights_s += since(start);
  }

  [[nodiscard]] std::uint64_t transfer_bytes() const override {
    return inner_->transfer_bytes();
  }

 private:
  static double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  std::unique_ptr<streambrain::parallel::Engine> inner_;
  std::shared_ptr<EngineCounters> counters_;
};

/// Register the decorator as `name`, wrapping engine `wrapped`.
inline void register_timing_engine(const std::string& name,
                                   const std::string& wrapped) {
  auto& registry = streambrain::parallel::EngineRegistry::instance();
  streambrain::parallel::EngineInfo info = registry.info(wrapped);
  info.name = name;
  info.description = "timing decorator over " + wrapped;
  registry.register_engine(std::move(info), [wrapped] {
    return std::make_unique<TimingEngine>(
        streambrain::parallel::EngineRegistry::instance().create(wrapped));
  });
}

}  // namespace perfbench
