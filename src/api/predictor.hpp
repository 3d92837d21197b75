#pragma once
// Serving session over a trained estimator — the first building block of
// the production inference path. A Predictor owns an immutable snapshot
// of a compiled/loaded model and serves `predict` / `predict_scores`
// calls from any number of threads:
//
//   auto model = std::make_shared<core::Model>();
//   model->load("model.sbrn");
//   Predictor predictor(model, {.max_batch_rows = 256});
//   // from any thread:
//   std::vector<int> labels = predictor.predict(rows);
//
// Each call runs under one mutex, in micro-batches of at most
// `max_batch_rows` rows (larger requests are split). Because every model
// in the repo computes rows independently, predictions are bit-identical
// to the single-threaded path regardless of how calls interleave — the
// concurrency test asserts exactly this. For cross-caller micro-batching,
// sharding and deadline flushes use AsyncPredictor.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/estimator.hpp"
#include "tensor/matrix.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain {

struct PredictorOptions {
  /// Upper bound on rows per executed micro-batch; larger requests are
  /// split.
  std::size_t max_batch_rows = 256;
};

/// Monotonic serving counters; snapshot via Predictor::stats().
/// Per call, `total_latency_seconds` = queue wait (lock contention) +
/// model compute; the two are accounted separately so contention cannot
/// masquerade as model time.
struct PredictorStats {
  std::uint64_t requests = 0;  ///< predict()/predict_scores() calls
  std::uint64_t rows = 0;      ///< total rows served
  std::uint64_t batches = 0;   ///< micro-batches executed on the model
  double total_latency_seconds = 0.0;  ///< summed per-call wall time
  double max_latency_seconds = 0.0;    ///< worst single call
  double model_seconds = 0.0;          ///< time spent inside the model
  /// Summed per-call time NOT spent running the model on behalf of the
  /// call: mutex acquisition behind other callers.
  double total_queue_wait_seconds = 0.0;
  double max_queue_wait_seconds = 0.0;  ///< worst single-call queue wait

  [[nodiscard]] double mean_latency_seconds() const noexcept {
    return requests == 0 ? 0.0
                         : total_latency_seconds /
                               static_cast<double>(requests);
  }
  [[nodiscard]] double mean_queue_wait_seconds() const noexcept {
    return requests == 0 ? 0.0
                         : total_queue_wait_seconds /
                               static_cast<double>(requests);
  }
  /// Rows per second of model compute (excludes queueing).
  [[nodiscard]] double model_throughput_rows_per_second() const noexcept {
    return model_seconds <= 0.0 ? 0.0
                                : static_cast<double>(rows) / model_seconds;
  }
};

class Predictor {
 public:
  /// The model must be compiled (or loaded) and is treated as frozen:
  /// the Predictor never mutates learned state, and callers must not
  /// call fit()/load() on it while the Predictor is alive.
  explicit Predictor(std::shared_ptr<Estimator> model,
                     PredictorOptions options = {});

  /// Thread-safe hard-label inference over a batch of rows.
  [[nodiscard]] std::vector<int> predict(const tensor::MatrixF& x)
      EXCLUDES(mutex_);

  /// Thread-safe P(class == 1) inference over a batch of rows.
  [[nodiscard]] std::vector<double> predict_scores(
      const tensor::MatrixF& x) EXCLUDES(mutex_);

  [[nodiscard]] PredictorStats stats() const EXCLUDES(mutex_);

  [[nodiscard]] const PredictorOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const Estimator& model() const noexcept { return *model_; }

 private:
  /// The one body of predict() and predict_scores(): runs `x` through
  /// `run` in micro-batches under the lock and records the call.
  template <typename T>
  std::vector<T> serve(const tensor::MatrixF& x,
                       std::vector<T> (Estimator::*run)(const tensor::MatrixF&))
      EXCLUDES(mutex_);

  std::shared_ptr<Estimator> model_;
  PredictorOptions options_;

  mutable sb::Mutex mutex_;
  PredictorStats stats_ GUARDED_BY(mutex_);
};

}  // namespace streambrain
