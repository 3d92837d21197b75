// Benchmarks Section II-B's scaling claim: BCPNN's local learning makes
// data-parallel training communication-light — one exchange per
// hidden-layer batch (support rows of the hidden layer's column slices)
// plus one trace-slice gather per epoch is ALL the traffic, with no
// gradient exchange and no backward pass; the read-out head is trained
// on every rank and sends nothing. This harness trains the same full
// model (hidden BCPNN layer + supervised head) through
// core::DistributedTrainer on 1, 2, 4 and 8 in-process ranks and on 2
// and 4 ranks over shm and TCP, reports the communication volume per
// rank for the whole fit, speedup and rank 0's compute / pack / exchange
// split, verifies the learned model quality, and emits
// BENCH_scaling.json.
//
//   bench_scaling [--out BENCH_scaling.json] [--events 2000] [--mcus 60]
//                 [--epochs 5] [--head-epochs 8]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "streambrain/streambrain.hpp"

using namespace streambrain;

namespace {

struct Result {
  int ranks = 1;
  std::string backend;
  double seconds = 0.0;
  double speedup_vs_1rank = 1.0;
  std::uint64_t bytes_per_rank = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t wire_bytes_per_rank = 0;
  std::uint64_t total_wire_bytes = 0;
  double mb_per_rank = 0.0;
  std::size_t syncs = 0;
  double compute_s = 0.0;
  double pack_s = 0.0;
  double exchange_s = 0.0;
  double accuracy = 0.0;
};

constexpr std::size_t kBatchSize = 64;

core::Model build_model(std::size_t mcus, std::size_t epochs,
                        std::size_t head_epochs) {
  core::Model model;
  model.input(data::kHiggsFeatures, 10)
      .hidden(1, mcus, 0.4)
      .classifier(2, core::HeadType::kSgd)
      .set_option("epochs", static_cast<double>(epochs))
      .set_option("head_epochs", static_cast<double>(head_epochs))
      .set_option("batch_size", static_cast<double>(kBatchSize))
      .compile("simd", /*seed=*/42);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_scaling.json");
  const std::size_t events =
      static_cast<std::size_t>(args.get_int("events", 2000));
  const std::size_t mcus = static_cast<std::size_t>(args.get_int("mcus", 60));
  const std::size_t epochs =
      static_cast<std::size_t>(args.get_int("epochs", 5));
  const std::size_t head_epochs =
      static_cast<std::size_t>(args.get_int("head-epochs", 8));

  std::printf(
      "=== Scaling: full-model data-parallel BCPNN over simulated ranks ===\n");
  std::printf(
      "%zu events, 1 HCU x %zu MCUs + SGD head, %zu+%zu epochs\n\n", events,
      mcus, epochs, head_epochs);

  data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(events);
  data::HiggsGeneratorOptions test_opts;
  test_opts.seed = 4242;
  data::SyntheticHiggsGenerator test_generator(test_opts);
  const auto test = test_generator.generate(events / 4);
  encode::OneHotEncoder encoder(10);
  const auto x_train = encoder.fit_transform(train.features);
  const auto x_test = encoder.transform(test.features);

  std::vector<Result> results;
  const auto run_case = [&](comm::Backend backend, int ranks,
                            double seconds_1rank) {
    core::Model model = build_model(mcus, epochs, head_epochs);
    core::DistributedOptions options;
    options.ranks = ranks;
    options.backend = backend;
    const auto report =
        core::fit_distributed(model, x_train, train.labels, options);

    Result result;
    result.ranks = ranks;
    result.backend = comm::backend_name(backend);
    result.seconds = report.seconds;
    result.speedup_vs_1rank =
        report.seconds > 0.0 && seconds_1rank > 0.0
            ? seconds_1rank / report.seconds
            : 1.0;
    result.bytes_per_rank = report.bytes_per_rank;
    result.total_bytes = report.total_bytes;
    result.wire_bytes_per_rank = report.wire_bytes_per_rank;
    result.total_wire_bytes = report.total_wire_bytes;
    result.mb_per_rank = static_cast<double>(report.bytes_per_rank) / 1e6;
    result.syncs = report.sync_count;
    result.compute_s = report.compute_s;
    result.pack_s = report.pack_s;
    result.exchange_s = report.exchange_s;
    result.accuracy = model.evaluate(x_test, test.labels);
    results.push_back(result);
    return result;
  };

  util::Table table({"backend", "ranks", "train time (s)",
                     "compute/pack/exchange (s)", "speedup", "exchanges",
                     "MB/rank", "wire MB/rank", "test acc"});
  const auto add_row = [&table](const Result& result) {
    table.add_row({result.backend, std::to_string(result.ranks),
                   util::Table::num(result.seconds),
                   util::Table::num(result.compute_s) + " / " +
                       util::Table::num(result.pack_s) + " / " +
                       util::Table::num(result.exchange_s),
                   util::Table::num(result.speedup_vs_1rank),
                   std::to_string(result.syncs),
                   util::Table::num(result.mb_per_rank, 2),
                   util::Table::num(
                       static_cast<double>(result.wire_bytes_per_rank) / 1e6,
                       2),
                   util::Table::pct(result.accuracy)});
  };

  // Rank sweep over the in-process substrate (the schedule study).
  double seconds_1rank = 0.0;
  for (const int ranks : {1, 2, 4, 8}) {
    const Result result = run_case(comm::Backend::kInProcess, ranks,
                                   ranks == 1 ? 0.0 : seconds_1rank);
    if (ranks == 1) seconds_1rank = result.seconds;
    add_row(result);
  }

  // Backend sweep: identical schedule and logical bytes, real wire cost
  // (shm segment / TCP loopback frames) on top. Speedups are against the
  // 1-rank in-process row, which runs no transport at all.
  for (const auto backend : {comm::Backend::kShm, comm::Backend::kTcp}) {
    for (const int ranks : {2, 4}) {
      add_row(run_case(backend, ranks, seconds_1rank));
    }
  }
  table.print();

  // --- JSON report ----------------------------------------------------------
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"scaling\",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"mcus\": " << mcus << ",\n";
  out << "  \"epochs\": " << epochs << ",\n";
  out << "  \"head_epochs\": " << head_epochs << ",\n";
  out << "  \"train_rows\": " << x_train.rows() << ",\n";
  out << "  \"batch_size\": " << kBatchSize << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"backend\": \"" << r.backend
        << "\", \"ranks\": " << r.ranks << ", \"seconds\": " << r.seconds
        << ", \"speedup_vs_1rank\": " << r.speedup_vs_1rank
        << ", \"bytes_per_rank\": " << r.bytes_per_rank
        << ", \"total_bytes\": " << r.total_bytes
        << ", \"wire_bytes_per_rank\": " << r.wire_bytes_per_rank
        << ", \"total_wire_bytes\": " << r.total_wire_bytes
        << ", \"mb_per_rank\": " << r.mb_per_rank
        << ", \"syncs\": " << r.syncs << ", \"compute_s\": " << r.compute_s
        << ", \"pack_s\": " << r.pack_s << ", \"exchange_s\": " << r.exchange_s
        << ", \"accuracy\": " << r.accuracy
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::printf(
      "\nshape check vs paper (Section II-B): communication is one\n"
      "exchange per hidden-layer batch — no gradient exchange, no\n"
      "backward pass. Training is bit-identical at every rank count, so\n"
      "the accuracy column is constant by construction. The trainer\n"
      "splits the hidden layer by columns: per batch of b rows each of P\n"
      "ranks sends its b x ceil(H/P) support slice (H hidden units),\n"
      "(P-1) * b * ceil(H/P) * 4 bytes, plus its trace slice once per\n"
      "epoch. The SGD head is trained whole on every rank and sends\n"
      "nothing, so head epochs add no traffic. MB/rank and wire MB/rank\n"
      "both cover the whole fit; the backend rows train the SAME bits\n"
      "over a real shm segment / TCP loopback mesh, and wire MB/rank adds\n"
      "the frame headers the logical model omits.\n");
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
