#include "api/predictor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace streambrain {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

Predictor::Predictor(std::shared_ptr<Estimator> model,
                     PredictorOptions options)
    : model_(std::move(model)), options_(options) {
  if (!model_) throw std::invalid_argument("Predictor: null model");
  if (options_.max_batch_rows == 0) {
    throw std::invalid_argument("Predictor: max_batch_rows must be > 0");
  }
}

template <typename T>
std::vector<T> Predictor::serve(
    const tensor::MatrixF& x,
    std::vector<T> (Estimator::*run)(const tensor::MatrixF&)) {
  if (x.rows() == 0) return {};
  const auto started = Clock::now();
  std::vector<T> out;
  out.reserve(x.rows());
  double model_seconds = 0.0;

  const sb::MutexLock lock(mutex_);
  tensor::MatrixF chunk;
  for (std::size_t begin = 0; begin < x.rows();
       begin += options_.max_batch_rows) {
    const std::size_t take =
        std::min(options_.max_batch_rows, x.rows() - begin);
    const tensor::MatrixF* input = &x;
    if (take != x.rows()) {  // only copy when the request must be split
      chunk.resize(take, x.cols());
      for (std::size_t i = 0; i < take; ++i) {
        std::copy_n(x.row(begin + i), x.cols(), chunk.row(i));
      }
      input = &chunk;
    }
    const auto batch_started = Clock::now();
    const std::vector<T> part = ((*model_).*run)(*input);
    const double batch_seconds = seconds_since(batch_started);
    out.insert(out.end(), part.begin(), part.end());
    model_seconds += batch_seconds;
    stats_.model_seconds += batch_seconds;
    stats_.batches += 1;
    stats_.rows += take;
  }

  // Whatever part of the call was not spent running the model is
  // queueing: lock contention behind other callers.
  const double latency = seconds_since(started);
  const double queue_wait = std::max(0.0, latency - model_seconds);
  stats_.requests += 1;
  stats_.total_latency_seconds += latency;
  stats_.max_latency_seconds = std::max(stats_.max_latency_seconds, latency);
  stats_.total_queue_wait_seconds += queue_wait;
  stats_.max_queue_wait_seconds =
      std::max(stats_.max_queue_wait_seconds, queue_wait);
  return out;
}

std::vector<int> Predictor::predict(const tensor::MatrixF& x) {
  return serve(x, &Estimator::predict);
}

std::vector<double> Predictor::predict_scores(const tensor::MatrixF& x) {
  return serve(x, &Estimator::predict_scores);
}

PredictorStats Predictor::stats() const {
  const sb::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace streambrain
