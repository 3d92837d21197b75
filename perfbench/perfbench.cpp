// perfbench — the repository's benchmark program. It runs one named
// workload through the public API only and prints its measurements as one
// JSON object on the last line of standard output. perfbench/run.py builds
// it, applies the committed correctness gates and formats the result; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload paper-train|dist-train|dist-shm|serve-online
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics on the default engine. --trace
// 1 measures the per-layer metrics: it compiles the models on a timing
// decorator of the default engine (timing_engine.hpp) and also runs an
// untraced pass, so the tracing overhead can be reported.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "streambrain/streambrain.hpp"
#include "timing_engine.hpp"

namespace {

using namespace streambrain;
using Clock = std::chrono::steady_clock;
using perfbench::CounterRegistry;
using perfbench::EngineCounters;

// ---- The headline configuration ----------------------------------------

constexpr std::size_t kTrainEvents = 5000;
constexpr std::size_t kTestEvents = 1666;
constexpr std::size_t kBins = 10;
constexpr std::size_t kHcus = 1;
constexpr std::size_t kMcus = 300;
constexpr double kReceptiveField = 0.40;
constexpr double kEpochs = 12;
constexpr double kHeadEpochs = 24;
constexpr double kBatch = 64;
constexpr int kRanks = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kRequestRows = 48;
constexpr std::size_t kObserveEvery = 4;
constexpr std::size_t kPublishEveryRows = 2048;
constexpr std::size_t kStreamEvents = 4800;
constexpr std::size_t kProbeRows = 256;
constexpr std::size_t kEvalWindows = 3;
constexpr std::size_t kEvalCalls = 100;
constexpr double kWindowSeconds = 0.5;
constexpr int kAllreduceProbeOps = 200;
constexpr const char* kTimingEngine = "perfbench_timing";

using Values = std::map<std::string, double>;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run produced: metrics plus the observations the
/// gates in run.py and here judge.
struct Result {
  Values metrics;
  Values quality;  ///< acc/auc per head, for the committed-value gates
  std::string digest;  ///< test-score digest of the SGD-head model
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed in-run gates
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// q-quantile of a sample by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  return values[below] +
         (position - static_cast<double>(below)) *
             (values[above] - values[below]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A repeated timing's figure: its lower quartile, for the reason given at
/// put_latency_metrics().
double typical_time(const std::vector<double>& seconds) {
  return quantile(seconds, 0.25);
}

/// Per-key median over repetitions.
Values median_values(const std::vector<Values>& reps) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& rep : reps) {
    for (const auto& [key, value] : rep) columns[key].push_back(value);
  }
  Values out;
  for (auto& [key, column] : columns) out[key] = median(std::move(column));
  return out;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over the bit patterns of the scores.
std::string digest_of(const std::vector<double>& scores) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const double score : scores) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &score, sizeof(double));
    for (const unsigned char byte : bytes) {
      hash = (hash ^ byte) * 1099511628211ULL;
    }
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

// ---- Inputs ----------------------------------------------------------------

struct Request {
  tensor::MatrixF x;
  std::vector<int> labels;
};

struct Data {
  tensor::MatrixF x_train;
  tensor::MatrixF x_test;
  std::vector<int> y_train;
  std::vector<int> y_test;
  encode::OneHotEncoder encoder{kBins};
  Values timings;  ///< data.generate_s, encode.fit_s, encode.transform_s
};

/// The paper's protocol: synthetic HIGGS events, a balanced subset split
/// 5000 train / 1666 test, 10-quantile one-hot encoding.
std::unique_ptr<Data> make_data(std::uint64_t seed) {
  auto data = std::make_unique<Data>();
  const std::size_t total = kTrainEvents + kTestEvents;

  auto start = Clock::now();
  data::HiggsGeneratorOptions generator_options;
  generator_options.seed = seed;
  data::SyntheticHiggsGenerator generator(generator_options);
  data::Dataset events = generator.generate(2 * total);
  util::Rng rng(seed ^ 0xD1CE5EEDULL);
  events = data::balanced_subset(events, total / 2, rng);
  auto [train, test] = data::split(
      events, (static_cast<double>(kTrainEvents) + 0.5) /
                  static_cast<double>(events.size()));
  data->timings["data.generate_s"] = seconds_since(start);

  start = Clock::now();
  data->encoder.fit(train.features);
  data->timings["encode.fit_s"] = seconds_since(start);

  start = Clock::now();
  data->x_train = data->encoder.transform(train.features);
  data->x_test = data->encoder.transform(test.features);
  data->timings["encode.transform_s"] = seconds_since(start);

  data->y_train = std::move(train.labels);
  data->y_test = std::move(test.labels);
  if (data->x_train.rows() != kTrainEvents ||
      data->x_test.rows() != kTestEvents) {
    throw std::logic_error("perfbench: unexpected train/test split");
  }
  return data;
}

/// Consecutive `rows`-row requests cut from `x` (a trailing partial chunk
/// is dropped so every request has the same shape).
std::vector<Request> cut_requests(const tensor::MatrixF& x,
                                  const std::vector<int>& labels,
                                  std::size_t rows) {
  std::vector<Request> requests;
  for (std::size_t start = 0; start + rows <= x.rows(); start += rows) {
    Request request;
    request.x.resize(rows, x.cols());
    std::copy_n(x.row(start), rows * x.cols(), request.x.row(0));
    request.labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(start),
                          labels.begin() +
                              static_cast<std::ptrdiff_t>(start + rows));
    requests.push_back(std::move(request));
  }
  return requests;
}

// ---- Model -----------------------------------------------------------------

std::string default_engine() { return core::BcpnnConfig{}.engine; }

std::shared_ptr<core::Model> make_model(core::HeadType head,
                                        const std::string& engine,
                                        std::uint64_t seed) {
  auto model = std::make_shared<core::Model>();
  model->input(data::kHiggsFeatures, kBins)
      .hidden(kHcus, kMcus, kReceptiveField)
      .classifier(2, head)
      .set_option("epochs", kEpochs)
      .set_option("head_epochs", kHeadEpochs)
      .set_option("batch_size", kBatch)
      .compile(engine, seed);
  return model;
}

struct Quality {
  double acc = 0.0;
  double auc = 0.0;
  std::string digest;
  double predict_s = 0.0;
};

Quality evaluate(core::Model& model, const Data& data) {
  Quality quality;
  const auto start = Clock::now();
  const std::vector<double> scores = model.predict_scores(data.x_test);
  quality.acc = model.evaluate(data.x_test, data.y_test);
  quality.predict_s = seconds_since(start);
  quality.auc = metrics::auc(scores, data.y_test);
  quality.digest = digest_of(scores);
  return quality;
}

/// Wall time of Model::fit, split at the last unsupervised epoch through
/// the Network epoch callback.
struct FitTiming {
  double fit_s = 0.0;
  double unsup_s = 0.0;
  double head_s = 0.0;
  double unsup_engine_s = 0.0;  ///< traced runs only
  std::size_t swaps = 0;
};

FitTiming timed_fit(core::Model& model, const tensor::MatrixF& x,
                    const std::vector<int>& labels, bool traced) {
  FitTiming timing;
  auto& network = model.network();
  const double engine_before =
      traced ? CounterRegistry::instance().sum().total_s() : 0.0;
  const auto start = Clock::now();
  Clock::time_point unsup_end = start;
  double engine_at_unsup_end = engine_before;
  network.set_epoch_callback(
      [&](const core::EpochInfo& info, const core::BcpnnLayer&) {
        timing.swaps += info.plasticity_swaps;
        if (traced) {
          engine_at_unsup_end = CounterRegistry::instance().sum().total_s();
        }
        unsup_end = Clock::now();
      });
  model.fit(x, labels);
  const auto end = Clock::now();
  network.set_epoch_callback(nullptr);
  timing.fit_s = std::chrono::duration<double>(end - start).count();
  timing.unsup_s = std::chrono::duration<double>(unsup_end - start).count();
  timing.head_s = std::chrono::duration<double>(end - unsup_end).count();
  timing.unsup_engine_s = engine_at_unsup_end - engine_before;
  return timing;
}

void put_engine_metrics(const EngineCounters& engine, Values& out) {
  out["engine.support_s"] = engine.support_s;
  out["engine.support_calls"] = static_cast<double>(engine.support_calls);
  out["engine.support_gflops"] =
      engine.support_s > 0.0 ? engine.support_flops / engine.support_s / 1e9
                             : 0.0;
  out["engine.softmax_s"] = engine.softmax_s;
  out["engine.traces_s"] = engine.traces_s;
  out["engine.traces_gbps"] =
      engine.traces_s > 0.0 ? engine.traces_bytes / engine.traces_s / 1e9
                            : 0.0;
  out["engine.weights_s"] = engine.weights_s;
}

EngineCounters difference(const EngineCounters& after,
                          const EngineCounters& before) {
  EngineCounters out = after;
  out.support_s -= before.support_s;
  out.softmax_s -= before.softmax_s;
  out.traces_s -= before.traces_s;
  out.weights_s -= before.weights_s;
  out.support_calls -= before.support_calls;
  out.support_flops -= before.support_flops;
  out.traces_bytes -= before.traces_bytes;
  return out;
}

bool valid_scores(const std::vector<double>& scores, std::size_t rows) {
  return scores.size() == rows &&
         std::all_of(scores.begin(), scores.end(), [](double score) {
           return std::isfinite(score) && score >= 0.0 && score <= 1.0;
         });
}

/// Requests completed in one measurement window.
struct Window {
  double seconds = 0.0;
  std::uint64_t rows = 0;
  std::vector<double> latencies;
};

/// rows_per_s, latency_p50_ms and latency_p99_ms over windows: each window
/// gives a rate and its own percentiles, and the run reports the quartile
/// of those on the favourable side. Interference from outside the process
/// (another guest taking the host's CPU) comes in bursts and only ever
/// slows a window down, so this discards it while every window still
/// carries the workload's own periodic costs.
void put_latency_metrics(const std::vector<Window>& windows, Values& out) {
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p99;
  double samples = 0.0;
  for (const auto& window : windows) {
    if (window.latencies.empty()) continue;
    rates.push_back(static_cast<double>(window.rows) / window.seconds);
    p50.push_back(1e3 * quantile(window.latencies, 0.50));
    p99.push_back(1e3 * quantile(window.latencies, 0.99));
    samples += static_cast<double>(window.latencies.size());
  }
  out["rows_per_s"] = quantile(rates, 0.75);
  out["latency_p50_ms"] = quantile(p50, 0.25);
  out["latency_p99_ms"] = quantile(p99, 0.25);
  out["bench.latency_samples"] = samples;
}

/// Test-set evaluation latency of a trained model: each request scores
/// the whole test set, in windows of kEvalCalls calls.
void time_evaluation(core::Model& model, const Data& data, Result& result) {
  std::vector<Window> windows(kEvalWindows);
  for (auto& window : windows) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kEvalCalls; ++i) {
      const auto sent = Clock::now();
      const std::vector<double> scores = model.predict_scores(data.x_test);
      window.latencies.push_back(seconds_since(sent));
      if (!valid_scores(scores, data.x_test.rows())) {
        result.failures.push_back(
            "test scores not finite or outside [0, 1]");
        return;
      }
      window.rows += scores.size();
    }
    window.seconds = seconds_since(start);
    result.attempted += kEvalCalls;
  }
  put_latency_metrics(windows, result.metrics);
}

/// Repeat `body` until `seconds` have passed, at least once.
void repeat_for(double seconds, const std::function<void()>& body) {
  const auto start = Clock::now();
  do {
    body();
  } while (seconds_since(start) < seconds);
}

/// Build the inputs `repeats` times; setup_s is the median build time and
/// the data.*/encode.* metrics are per-stage medians.
std::unique_ptr<Data> repeated_data_setup(const Options& options,
                                          std::size_t repeats,
                                          Result& result) {
  std::unique_ptr<Data> data;
  std::vector<double> setup_s;
  std::vector<Values> stages;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    data = make_data(options.seed);
    setup_s.push_back(seconds_since(start));
    stages.push_back(data->timings);
  }
  result.metrics["setup_s"] = median(setup_s);
  for (const auto& [key, value] : median_values(stages)) {
    result.metrics[key] = value;
  }
  return data;
}

/// Gate: every repetition reproduces the first one's test scores.
void expect_same(const std::string& what, std::string& first,
                 const std::string& again, Result& result) {
  if (first.empty()) {
    first = again;
  } else if (first != again) {
    result.failures.push_back(what + " differ between repetitions: " +
                              first + " vs " + again);
  }
}

// ---- paper-train -----------------------------------------------------------

/// One repetition of the paper's experiment: pure BCPNN, then BCPNN+SGD,
/// each trained and evaluated on the test set.
struct PaperRep {
  Values layers;
  Quality bcpnn;
  Quality sgd;
  std::shared_ptr<core::Model> sgd_model;
  double train_s = 0.0;
};

PaperRep paper_rep(const Data& data, std::uint64_t seed, bool traced) {
  PaperRep rep;
  const std::string engine = traced ? kTimingEngine : default_engine();
  EngineCounters train_engine;
  double unsup_s = 0.0;
  double unsup_engine_s = 0.0;
  double swaps = 0.0;
  double predict_s = 0.0;
  for (const auto head : {core::HeadType::kBcpnn, core::HeadType::kSgd}) {
    auto model = make_model(head, engine, seed);
    const EngineCounters before = CounterRegistry::instance().sum();
    const FitTiming fit = timed_fit(*model, data.x_train, data.y_train, traced);
    train_engine += difference(CounterRegistry::instance().sum(), before);
    const Quality quality = evaluate(*model, data);
    rep.train_s += fit.fit_s;
    unsup_s += fit.unsup_s;
    unsup_engine_s += fit.unsup_engine_s;
    swaps += static_cast<double>(fit.swaps);
    predict_s += quality.predict_s;
    if (head == core::HeadType::kBcpnn) {
      rep.bcpnn = quality;
      rep.layers["core.head_bcpnn_s"] = fit.head_s;
    } else {
      rep.sgd = quality;
      rep.sgd_model = model;
      rep.layers["core.head_sgd_s"] = fit.head_s;
    }
  }
  if (traced) put_engine_metrics(train_engine, rep.layers);
  rep.layers["core.unsup_s"] = unsup_s;
  rep.layers["core.unsup_other_s"] = unsup_s - unsup_engine_s;
  rep.layers["core.predict_s"] = predict_s;
  rep.layers["core.plasticity_swaps"] = swaps;
  return rep;
}

Result run_paper_train(const Options& options) {
  Result result;
  auto data = repeated_data_setup(options, 5, result);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;

  std::vector<double> train_s;
  std::string bcpnn_digest;
  std::string sgd_digest;
  PaperRep last;
  repeat_for(budget, [&] {
    last = paper_rep(*data, options.seed, /*traced=*/false);
    train_s.push_back(last.train_s);
    expect_same("pure BCPNN test scores", bcpnn_digest, last.bcpnn.digest,
                result);
    expect_same("BCPNN+SGD test scores", sgd_digest, last.sgd.digest,
                result);
    result.attempted += 2;
    // The memory one run of the experiment needs; later repetitions only
    // add allocator noise.
    result.metrics.try_emplace("peak_rss_mb", peak_rss_mb());
  });
  result.metrics["train_s"] = typical_time(train_s);
  result.quality = {{"acc_bcpnn", last.bcpnn.acc},
                    {"auc_bcpnn", last.bcpnn.auc},
                    {"acc_sgd", last.sgd.acc},
                    {"auc_sgd", last.sgd.auc}};
  result.digest = last.sgd.digest;
  time_evaluation(*last.sgd_model, *data, result);
  // Rows trained per second of fit: hidden and head epochs of both fits.
  result.metrics["online_rows_per_s"] =
      2.0 * (kEpochs + kHeadEpochs) * static_cast<double>(kTrainEvents) /
      result.metrics["train_s"];

  if (options.trace) {
    std::vector<Values> reps;
    std::vector<double> traced_train_s;
    repeat_for(budget, [&] {
      PaperRep rep = paper_rep(*data, options.seed, /*traced=*/true);
      expect_same("traced pure BCPNN test scores", bcpnn_digest,
                  rep.bcpnn.digest, result);
      expect_same("traced BCPNN+SGD test scores", sgd_digest,
                  rep.sgd.digest, result);
      traced_train_s.push_back(rep.train_s);
      reps.push_back(std::move(rep.layers));
    });
    for (const auto& [key, value] : median_values(reps)) {
      result.metrics[key] = value;
    }
    result.metrics["bench.trace_overhead_frac"] =
        typical_time(traced_train_s) / result.metrics["train_s"] - 1.0;
  }
  return result;
}

// ---- dist-train / dist-shm ------------------------------------------------

struct DistRep {
  Values layers;
  Quality quality;
  std::shared_ptr<core::Model> model;
  core::DistributedReport report;
  double train_s = 0.0;
};

DistRep dist_rep(const Data& data, std::uint64_t seed, comm::Backend backend,
                 bool traced) {
  DistRep rep;
  auto model = make_model(core::HeadType::kSgd,
                          traced ? kTimingEngine : default_engine(), seed);
  core::DistributedOptions options;
  options.ranks = kRanks;
  options.backend = backend;
  const std::size_t first_replica =
      CounterRegistry::instance().snapshot().size();
  const auto start = Clock::now();
  rep.report = core::fit_distributed(*model, data.x_train, data.y_train,
                                     options);
  rep.train_s = seconds_since(start);
  rep.quality = evaluate(*model, data);
  rep.model = model;
  if (traced) {
    // The engines created during the fit are the per-rank replicas.
    const auto instances = CounterRegistry::instance().snapshot();
    EngineCounters ranks;
    double rank_engine_s = 0.0;
    for (std::size_t i = first_replica; i < instances.size(); ++i) {
      ranks += instances[i];
      rank_engine_s = std::max(rank_engine_s, instances[i].total_s());
    }
    put_engine_metrics(ranks, rep.layers);
    rep.layers["dist.rank_engine_s"] = rank_engine_s;
    rep.layers["dist.noncompute_s"] = rep.train_s - rank_engine_s;
    rep.layers["core.predict_s"] = rep.quality.predict_s;
  }
  return rep;
}

/// Median time of one blocking allreduce of `floats` floats over a 2-rank
/// world of `backend`, measured on rank 0 from outside the trainer.
double allreduce_probe_ms(comm::Backend backend, std::size_t floats) {
  std::vector<double> times;
  comm::run_transport(backend, kRanks, [&](comm::Communicator& comm) {
    std::vector<float> buffer(floats, 0.0f);
    for (int op = 0; op < kAllreduceProbeOps + 5; ++op) {
      const auto start = Clock::now();
      comm.allreduce(buffer.data(), buffer.size(), comm::ReduceOp::kSum);
      if (comm.rank() == 0 && op >= 5) times.push_back(seconds_since(start));
    }
  });
  return 1e3 * median(times);
}

Result run_dist(const Options& options, comm::Backend backend) {
  Result result;
  auto data = repeated_data_setup(options, 5, result);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;

  std::vector<double> train_s;
  std::string digest;
  DistRep last;
  repeat_for(budget, [&] {
    last = dist_rep(*data, options.seed, backend, /*traced=*/false);
    train_s.push_back(last.train_s);
    expect_same("distributed test scores", digest, last.quality.digest,
                result);
    result.attempted += 1;
    result.metrics.try_emplace("peak_rss_mb", peak_rss_mb());
  });
  result.metrics["train_s"] = typical_time(train_s);
  result.quality = {{"acc_sgd", last.quality.acc},
                    {"auc_sgd", last.quality.auc}};
  result.digest = last.quality.digest;

  time_evaluation(*last.model, *data, result);
  result.metrics["online_rows_per_s"] =
      (kEpochs + kHeadEpochs) * static_cast<double>(kTrainEvents) /
      result.metrics["train_s"];

  if (options.trace) {
    std::vector<Values> reps;
    std::vector<double> traced_train_s;
    repeat_for(budget, [&] {
      DistRep rep = dist_rep(*data, options.seed, backend, /*traced=*/true);
      expect_same("traced distributed test scores", digest,
                  rep.quality.digest, result);
      traced_train_s.push_back(rep.train_s);
      rep.layers["comm.syncs"] = static_cast<double>(rep.report.sync_count);
      rep.layers["comm.logical_bytes_per_rank"] =
          static_cast<double>(rep.report.bytes_per_rank);
      rep.layers["comm.wire_bytes_per_rank"] =
          static_cast<double>(rep.report.wire_bytes_per_rank);
      reps.push_back(std::move(rep.layers));
    });
    for (const auto& [key, value] : median_values(reps)) {
      result.metrics[key] = value;
    }
    result.metrics["bench.trace_overhead_frac"] =
        typical_time(traced_train_s) / result.metrics["train_s"] - 1.0;
    // Flat allreduce at 2 ranks sends (ranks - 1) * payload bytes per rank.
    const std::size_t payload_floats = static_cast<std::size_t>(
        result.metrics["comm.logical_bytes_per_rank"] /
        result.metrics["comm.syncs"] / (kRanks - 1) / sizeof(float));
    result.metrics["comm.allreduce_ms"] =
        allreduce_probe_ms(backend, payload_floats);
    // The shm wire sb_launch uses, at the same payload: dist-shm itself
    // is too sensitive to the host to be a kept workload.
    result.metrics["comm.shm_allreduce_ms"] =
        backend == comm::Backend::kShm
            ? result.metrics["comm.allreduce_ms"]
            : allreduce_probe_ms(comm::Backend::kShm, payload_floats);
  }
  return result;
}

// ---- serve-online ----------------------------------------------------------

/// One trained SGD-head model behind a 2-shard AsyncPredictor. The server
/// holds a clone; `model` stays trainable for the OnlineTrainer.
struct ServeSetup {
  std::unique_ptr<Data> data;
  std::shared_ptr<core::Model> model;
  std::unique_ptr<AsyncPredictor> server;
  FitTiming fit;
};

std::unique_ptr<ServeSetup> serve_setup(std::uint64_t seed, bool traced) {
  auto setup = std::make_unique<ServeSetup>();
  setup->data = make_data(seed);
  setup->model = make_model(core::HeadType::kSgd,
                            traced ? kTimingEngine : default_engine(), seed);
  setup->fit = timed_fit(*setup->model, setup->data->x_train,
                         setup->data->y_train, traced);
  AsyncPredictorOptions serving;
  serving.shards = kShards;
  serving.score_cache_rows = 0;
  setup->server = std::make_unique<AsyncPredictor>(
      std::make_shared<core::Model>(core::clone_model(*setup->model)),
      serving);
  return setup;
}

struct ClientLog {
  std::vector<std::pair<double, double>> done;  ///< (completed at, latency)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// Closed-loop client: 48-row submit_scores requests back to back. Client
/// 0 also feeds every 4th request, labeled, to the online trainer.
void client_loop(std::size_t client, const std::vector<Request>& requests,
                 AsyncPredictor& server, OnlineTrainer& trainer,
                 Clock::time_point start, const std::atomic<bool>& stop,
                 ClientLog& log) {
  std::size_t index = client * requests.size() / kClients;
  for (std::size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const Request& request = requests[index++ % requests.size()];
    ++log.attempted;
    const auto sent = Clock::now();
    try {
      const std::vector<double> scores =
          server.submit_scores(request.x).get();
      const auto completed = Clock::now();
      if (!valid_scores(scores, request.x.rows())) {
        ++log.failed;
        log.error = "served scores not finite or outside [0, 1]";
      } else {
        log.done.emplace_back(
            std::chrono::duration<double>(completed - start).count(),
            std::chrono::duration<double>(completed - sent).count());
      }
      if (client == 0 && k % kObserveEvery == 0) {
        trainer.observe(request.x, request.labels);
      }
    } catch (const std::exception& error) {
      ++log.failed;
      log.error = error.what();
    }
  }
}

void put_serving_metrics(const AsyncPredictorStats& after,
                         const AsyncPredictorStats& before, Values& out) {
  const double batches = static_cast<double>(after.batches - before.batches);
  const double requests =
      static_cast<double>(after.requests - before.requests);
  const auto per_batch_ms = [&](double total_after, double total_before) {
    return batches > 0 ? 1e3 * (total_after - total_before) / batches : 0.0;
  };
  const auto close_frac = [&](std::uint64_t a, std::uint64_t b) {
    return batches > 0 ? static_cast<double>(a - b) / batches : 0.0;
  };
  out["serve.batches"] = batches;
  out["serve.rows_per_batch"] =
      batches > 0
          ? static_cast<double>(after.model_rows - before.model_rows) / batches
          : 0.0;
  out["serve.queue_wait_ms"] =
      requests > 0 ? 1e3 *
                         (after.total_queue_wait_seconds -
                          before.total_queue_wait_seconds) /
                         requests
                   : 0.0;
  out["serve.stage_close_ms"] =
      per_batch_ms(after.stage_close_seconds, before.stage_close_seconds);
  out["serve.stage_dispatch_ms"] =
      per_batch_ms(after.stage_dispatch_seconds, before.stage_dispatch_seconds);
  out["serve.stage_compute_ms"] =
      per_batch_ms(after.stage_compute_seconds, before.stage_compute_seconds);
  out["serve.stage_fulfill_ms"] =
      per_batch_ms(after.stage_fulfill_seconds, before.stage_fulfill_seconds);
  out["serve.full_closes_frac"] =
      close_frac(after.full_closes, before.full_closes);
  out["serve.deadline_closes_frac"] =
      close_frac(after.deadline_closes, before.deadline_closes);
  out["serve.adaptive_closes_frac"] =
      close_frac(after.adaptive_closes, before.adaptive_closes);
  out["serve.model_swaps"] =
      static_cast<double>(after.model_swaps - before.model_swaps);
}

Result run_serve_online(const Options& options) {
  Result result;

  // Set-up: inputs, the serving model's training, server construction.
  // Repeated for a steady median; a traced run adds one traced set-up.
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<Values> stages;
  std::unique_ptr<ServeSetup> setup;
  const std::size_t untraced_setups = options.trace ? 1 : 3;
  for (std::size_t i = 0; i < untraced_setups + (options.trace ? 1 : 0); ++i) {
    setup.reset();
    const bool traced = i >= untraced_setups;
    const auto start = Clock::now();
    setup = serve_setup(options.seed, traced);
    const double elapsed = seconds_since(start);
    stages.push_back(setup->data->timings);
    if (traced) {
      result.metrics["bench.trace_overhead_frac"] =
          setup->fit.fit_s / typical_time(train_s) - 1.0;
      result.metrics["core.unsup_s"] = setup->fit.unsup_s;
      result.metrics["core.unsup_other_s"] =
          setup->fit.unsup_s - setup->fit.unsup_engine_s;
      result.metrics["core.head_sgd_s"] = setup->fit.head_s;
      result.metrics["core.plasticity_swaps"] =
          static_cast<double>(setup->fit.swaps);
    } else {
      setup_s.push_back(elapsed);
      train_s.push_back(setup->fit.fit_s);
    }
  }
  result.metrics["setup_s"] = median(setup_s);
  result.metrics["train_s"] = typical_time(train_s);
  for (const auto& [key, value] : median_values(stages)) {
    result.metrics[key] = value;
  }
  const Data& data = *setup->data;
  AsyncPredictor& server = *setup->server;

  // Gates before the trainer starts: served scores equal the model's own
  // bit for bit, and are probabilities.
  const tensor::MatrixF probe = cut_requests(data.x_test, data.y_test,
                                             kProbeRows)
                                    .front()
                                    .x;
  const auto predict_start = Clock::now();
  const std::vector<double> reference = setup->model->predict_scores(probe);
  result.metrics["core.predict_s"] = seconds_since(predict_start);
  const std::vector<double> served_probe = server.predict_scores(probe);
  if (served_probe.size() != reference.size() ||
      std::memcmp(served_probe.data(), reference.data(),
                  reference.size() * sizeof(double)) != 0) {
    result.failures.push_back(
        "AsyncPredictor scores differ from Model::predict_scores on the "
        "probe set");
  }
  const std::vector<double> scores = server.predict_scores(data.x_test);
  if (!valid_scores(scores, data.x_test.rows())) {
    result.failures.push_back("served test scores not finite or outside [0, 1]");
  }
  result.quality = {
      {"acc_sgd", metrics::accuracy(server.predict(data.x_test), data.y_test)},
      {"auc_sgd", metrics::auc(scores, data.y_test)}};
  result.digest = digest_of(scores);

  // The request stream: fresh events, encoded with the fitted encoder.
  data::HiggsGeneratorOptions stream_options;
  stream_options.seed = options.seed ^ 0x5EEDF00DULL;
  data::SyntheticHiggsGenerator stream_generator(stream_options);
  const data::Dataset stream = stream_generator.generate(kStreamEvents);
  const std::vector<Request> requests = cut_requests(
      data.encoder.transform(stream.features), stream.labels, kRequestRows);

  const EngineCounters engine_before = CounterRegistry::instance().sum();
  const AsyncPredictorStats serve_before = server.stats();
  // Closed loop for whole kWindowSeconds windows; the trainer's progress
  // is sampled at every window boundary.
  const std::size_t window_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(options.seconds /
                                              kWindowSeconds)));
  std::vector<ClientLog> logs(kClients);
  std::vector<double> trained_at{0.0};
  OnlineTrainerStats online;
  {
    OnlineTrainerOptions online_options;
    online_options.publish_every_rows = kPublishEveryRows;
    OnlineTrainer trainer(setup->model, server, online_options);
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, c, std::cref(requests),
                           std::ref(server), std::ref(trainer), start,
                           std::cref(stop), std::ref(logs[c]));
    }
    for (std::size_t w = 1; w <= window_count; ++w) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(w * kWindowSeconds)));
      trained_at.push_back(static_cast<double>(trainer.stats().trained_rows));
    }
    stop.store(true);
    for (auto& client : clients) client.join();
    trainer.stop();
    online = trainer.stats();
  }
  put_serving_metrics(server.stats(), serve_before, result.metrics);
  setup.reset();  // joins the server; every engine call has returned
  if (options.trace) {
    put_engine_metrics(
        difference(CounterRegistry::instance().sum(), engine_before),
        result.metrics);
  }

  std::vector<Window> windows(window_count);
  std::vector<double> online_rates;
  for (std::size_t w = 0; w < window_count; ++w) {
    windows[w].seconds = kWindowSeconds;
    online_rates.push_back((trained_at[w + 1] - trained_at[w]) /
                           kWindowSeconds);
  }
  for (const auto& log : logs) {
    for (const auto& [at, latency] : log.done) {
      const auto w = static_cast<std::size_t>(at / kWindowSeconds);
      if (w >= window_count) continue;  // completed after the last window
      windows[w].rows += kRequestRows;
      windows[w].latencies.push_back(latency);
    }
    result.attempted += log.attempted;
    result.failed += log.failed;
    if (!log.error.empty()) {
      result.failures.push_back("serving request failed: " + log.error);
    }
  }
  put_latency_metrics(windows, result.metrics);
  result.metrics["online_rows_per_s"] = quantile(online_rates, 0.75);
  result.metrics["online.trained_rows"] =
      static_cast<double>(online.trained_rows);
  result.metrics["online.dropped_rows"] =
      static_cast<double>(online.dropped_rows);
  result.metrics["online.publishes"] = static_cast<double>(online.publishes);
  result.metrics["online.partial_fit_ms"] =
      online.train_batches > 0
          ? 1e3 * online.train_seconds /
                static_cast<double>(online.train_batches)
          : 0.0;
  result.metrics["online.publish_ms"] =
      online.publishes > 0 ? 1e3 * online.publish_seconds /
                                 static_cast<double>(online.publishes)
                           : 0.0;
  return result;
}

// ---- Output ----------------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string json_object(const Values& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + json_number(value);
  }
  return out + "}";
}

void print_result(const Options& options, const Result& result) {
  std::string failures = "[";
  for (const auto& failure : result.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(failure);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %llu, "
      "\"failed\": %llu, \"digest\": %s, \"quality\": %s, \"failures\": %s, "
      "\"metrics\": %s}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      json_string(result.digest).c_str(), json_object(result.quality).c_str(),
      failures.c_str(), json_object(result.metrics).c_str());
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    std::printf("host: {\"hardware_concurrency\": %u, \"dispatch\": %s, "
                "\"engine\": %s, \"compiler\": %s}\n",
                std::thread::hardware_concurrency(),
                json_string(tensor::active_kernels().name).c_str(),
                json_string(default_engine()).c_str(),
                json_string(__VERSION__).c_str());
    std::fflush(stdout);
    if (options.trace) {
      perfbench::register_timing_engine(kTimingEngine, default_engine());
    }
    Result result;
    if (options.workload == "paper-train") {
      result = run_paper_train(options);
    } else if (options.workload == "dist-train") {
      result = run_dist(options, comm::Backend::kInProcess);
    } else if (options.workload == "dist-shm") {
      result = run_dist(options, comm::Backend::kShm);
    } else if (options.workload == "serve-online") {
      result = run_serve_online(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    result.metrics.try_emplace("peak_rss_mb", peak_rss_mb());
    print_result(options, result);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
