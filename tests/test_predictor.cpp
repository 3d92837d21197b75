// Predictor serving session: thread-safe micro-batched inference must be
// bit-identical to the single-threaded path, and the serving counters
// must add up. Cross-caller batching and deadline flushes belong to
// AsyncPredictor (test_serving).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/predictor.hpp"
#include "core/model.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/kernel_set.hpp"

namespace sc = streambrain::core;
namespace st = streambrain::tensor;

namespace {

struct Serving {
  std::shared_ptr<sc::Model> model;
  st::MatrixF x_test;
  std::vector<int> reference_labels;
  std::vector<double> reference_scores;
};

/// One trained model + reference single-threaded predictions, shared by
/// all tests (training once keeps the suite fast).
const Serving& serving() {
  static const Serving instance = [] {
    streambrain::data::SyntheticHiggsGenerator generator;
    const auto train = generator.generate(800);
    streambrain::data::HiggsGeneratorOptions opts;
    opts.seed = 99;
    streambrain::data::SyntheticHiggsGenerator test_generator(opts);
    const auto test = test_generator.generate(240);
    streambrain::encode::OneHotEncoder encoder(10);

    Serving s;
    s.model = std::make_shared<sc::Model>();
    s.model->input(28, 10)
        .hidden(1, 40, 0.4)
        .classifier(2)
        .set_option("epochs", 4)
        .compile("simd", 42);
    s.model->fit(encoder.fit_transform(train.features), train.labels);
    s.x_test = encoder.transform(test.features);
    s.reference_labels = s.model->predict(s.x_test);
    s.reference_scores = s.model->predict_scores(s.x_test);
    return s;
  }();
  return instance;
}

st::MatrixF rows_slice(const st::MatrixF& x, std::size_t begin,
                       std::size_t end) {
  st::MatrixF out(end - begin, x.cols());
  for (std::size_t r = begin; r < end; ++r) {
    std::copy_n(x.row(r), x.cols(), out.row(r - begin));
  }
  return out;
}

}  // namespace

TEST(Predictor, RejectsBadConstruction) {
  EXPECT_THROW(streambrain::Predictor(nullptr), std::invalid_argument);
  EXPECT_THROW(
      streambrain::Predictor(serving().model, {/*max_batch_rows=*/0}),
      std::invalid_argument);
}

TEST(Predictor, MicroBatchingMatchesSingleThreadedPath) {
  // max_batch_rows far below the request size forces chunked execution;
  // results must still be bit-identical to one big model call.
  streambrain::Predictor predictor(serving().model, {/*max_batch_rows=*/32});
  EXPECT_EQ(predictor.predict(serving().x_test), serving().reference_labels);
  EXPECT_EQ(predictor.predict_scores(serving().x_test),
            serving().reference_scores);

  const auto stats = predictor.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rows, 2 * serving().x_test.rows());
  // 240 rows / 32-row micro-batches = 8 batches per request.
  EXPECT_EQ(stats.batches, 16u);
  EXPECT_GT(stats.total_latency_seconds, 0.0);
  EXPECT_GE(stats.max_latency_seconds, stats.mean_latency_seconds());
  EXPECT_GT(stats.model_throughput_rows_per_second(), 0.0);
}

TEST(Predictor, ConcurrentCallersAgreeWithSingleThread) {
  streambrain::Predictor predictor(serving().model, {/*max_batch_rows=*/16});
  const std::size_t n = serving().x_test.rows();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 3;

  std::vector<std::vector<int>> label_results(kThreads);
  std::vector<std::vector<double>> score_results(kThreads);
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread serves a different slice, repeatedly, interleaving
      // with every other thread through the shared session.
      const std::size_t begin = t * n / kThreads;
      const std::size_t end = (t + 1) * n / kThreads;
      const st::MatrixF slice = rows_slice(serving().x_test, begin, end);
      for (std::size_t round = 0; round < kRounds; ++round) {
        label_results[t] = predictor.predict(slice);
        score_results[t] = predictor.predict_scores(slice);
        if (label_results[t] !=
            std::vector<int>(serving().reference_labels.begin() + begin,
                             serving().reference_labels.begin() + end)) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_FALSE(mismatch.load());
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t begin = t * n / kThreads;
    const std::size_t end = (t + 1) * n / kThreads;
    EXPECT_EQ(label_results[t],
              std::vector<int>(serving().reference_labels.begin() + begin,
                               serving().reference_labels.begin() + end));
    EXPECT_EQ(score_results[t],
              std::vector<double>(serving().reference_scores.begin() + begin,
                                  serving().reference_scores.begin() + end));
  }
  const auto stats = predictor.stats();
  EXPECT_EQ(stats.requests, kThreads * kRounds * 2);
  EXPECT_EQ(stats.rows, kRounds * 2 * n);
}

TEST(Predictor, SimdEngineStressStaysBitIdenticalToSerialReference) {
  // Heavy mixed-shape stress on the "simd" (KernelSet-dispatched)
  // engine: many threads, varying slice sizes, interleaved label/score
  // requests, and micro-batch splits that never align with the slices.
  // Every result must be bit-identical to the single-threaded reference
  // computed once at setup — the kernel subsystem guarantees per-row
  // deterministic accumulation regardless of batching or scheduling.
  ASSERT_EQ(serving().model->engine_name(), "simd");
  // The engine's advertised dispatch tier is the one actually serving.
  const auto info =
      streambrain::parallel::EngineRegistry::instance().info("simd");
  EXPECT_EQ(info.dispatch, streambrain::tensor::startup_kernels().name);

  streambrain::Predictor predictor(serving().model, {/*max_batch_rows=*/13});
  const std::size_t n = serving().x_test.rows();
  constexpr std::size_t kThreads = 10;
  constexpr std::size_t kRounds = 4;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        // Different slice geometry every round and thread.
        const std::size_t width = 1 + (t * 7 + round * 11) % 37;
        const std::size_t begin = (t * 13 + round * 29) % (n - width);
        const std::size_t end = begin + width;
        const st::MatrixF slice = rows_slice(serving().x_test, begin, end);
        const std::vector<int> labels = predictor.predict(slice);
        const std::vector<double> scores = predictor.predict_scores(slice);
        for (std::size_t i = 0; i < width; ++i) {
          if (labels[i] != serving().reference_labels[begin + i] ||
              scores[i] != serving().reference_scores[begin + i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = predictor.stats();
  EXPECT_EQ(stats.requests, kThreads * kRounds * 2);
}

TEST(Predictor, StatsSeparateQueueWaitFromModelTime) {
  // Per call: total latency = queue wait + own model time. A serial
  // kImmediate caller has (almost) no queue wait, so model_seconds must
  // dominate total_latency and the queue-wait counters must stay small
  // and self-consistent.
  streambrain::Predictor predictor(serving().model, {/*max_batch_rows=*/64});
  (void)predictor.predict(serving().x_test);
  const auto stats = predictor.stats();
  EXPECT_GT(stats.model_seconds, 0.0);
  EXPECT_GE(stats.total_queue_wait_seconds, 0.0);
  EXPECT_GE(stats.max_queue_wait_seconds, stats.mean_queue_wait_seconds());
  // latency decomposes: wait + model time adds back up (within rounding)
  EXPECT_NEAR(stats.total_latency_seconds,
              stats.total_queue_wait_seconds + stats.model_seconds, 1e-6);
  // and the lock-free single caller spent nearly everything in the model
  EXPECT_LT(stats.total_queue_wait_seconds,
            0.5 * stats.total_latency_seconds);
}

TEST(Predictor, ServesAnyEstimator) {
  // The session is generic over the Estimator contract, not Model-bound.
  streambrain::data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(400);
  std::shared_ptr<streambrain::Estimator> baseline =
      streambrain::make_baseline_estimator("logistic");
  baseline->fit(train.features, train.labels);
  const std::vector<int> reference = baseline->predict(train.features);

  streambrain::Predictor predictor(baseline, {/*max_batch_rows=*/50});
  EXPECT_EQ(predictor.predict(train.features), reference);
  EXPECT_EQ(predictor.stats().batches, 8u);  // 400 rows / 50
}

TEST(Predictor, EmptyRequestIsANoOp) {
  streambrain::Predictor predictor(serving().model);
  const st::MatrixF empty(0, serving().x_test.cols());
  EXPECT_TRUE(predictor.predict(empty).empty());
  EXPECT_TRUE(predictor.predict_scores(empty).empty());
  EXPECT_EQ(predictor.stats().requests, 0u);
}
