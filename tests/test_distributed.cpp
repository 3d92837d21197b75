// Distributed-training suite: DistributedTrainer trains full models
// (hidden BCPNN layer + BCPNN or SGD head, and deep stacks) data-parallel
// over comm::, and the result is BIT-IDENTICAL at every rank count.
// Hidden layers are split by columns: each rank updates the traces and
// weights of its own hidden units, and the statistics are still summed
// per fixed virtual shard in shard order; every rank trains the whole
// head, with the same per-shard sums. No floating-point association
// depends on the rank count. The slice tests below pin the
// per-column exactness the split relies on, in every kernel tier and
// engine. The golden tests pin the scalar dispatch tier and compare
// rank-2 training against committed digests under tests/golden/.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "core/layer.hpp"
#include "core/model.hpp"
#include "core/network.hpp"
#include "core/deep.hpp"
#include "core/serialization.hpp"
#include "core/sgd_head.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "golden_util.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/kernel_set.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace st = streambrain::tensor;
namespace sg = streambrain::testing;
namespace scomm = streambrain::comm;
namespace sp = streambrain::parallel;
namespace su = streambrain::util;

namespace {

struct FixtureData {
  st::MatrixF x_train;
  std::vector<int> y_train;
  st::MatrixF x_test;
  std::vector<int> y_test;
};

const FixtureData& fixture() {
  static const FixtureData data = [] {
    streambrain::data::SyntheticHiggsGenerator train_generator;
    const auto train = train_generator.generate(260);
    streambrain::data::HiggsGeneratorOptions opts;
    opts.seed = 777;
    streambrain::data::SyntheticHiggsGenerator test_generator(opts);
    const auto test = test_generator.generate(80);
    streambrain::encode::OneHotEncoder encoder(10);
    FixtureData out;
    out.x_train = encoder.fit_transform(train.features);
    out.y_train = train.labels;
    out.x_test = encoder.transform(test.features);
    out.y_test = test.labels;
    return out;
  }();
  return data;
}

sc::Model make_shallow(sc::HeadType head, int head_epochs = 3) {
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 20, 0.4)
      .classifier(2, head)
      .set_option("epochs", 2)
      .set_option("head_epochs", head_epochs)
      .set_option("batch_size", 32)
      .compile("simd", /*seed=*/11);
  return model;
}

sc::Model make_deep() {
  sc::Model model;
  model.input(28, 10)
      .hidden(2, 12, 0.5)
      .hidden(1, 10, 0.6)
      .classifier(2, sc::HeadType::kBcpnn)
      .set_option("epochs", 2)
      .set_option("head_epochs", 2)
      .set_option("batch_size", 32)
      .compile("simd", /*seed=*/13);
  return model;
}

void append(std::vector<float>& out, const std::vector<float>& v) {
  out.insert(out.end(), v.begin(), v.end());
}

void append(std::vector<float>& out, const st::MatrixF& m) {
  out.insert(out.end(), m.begin(), m.end());
}

void append_traces(std::vector<float>& out,
                   const sc::ProbabilityTraces& traces) {
  append(out, traces.pi());
  append(out, traces.pj());
  append(out, traces.pij());
}

/// Every learned float of the model, concatenated, for bitwise compares.
std::vector<float> state_vector(const sc::Model& model) {
  std::vector<float> out;
  if (model.hidden_specs().size() == 1) {
    const sc::Network& net = model.network();
    append_traces(out, net.hidden().traces());
    append(out, net.hidden().weights());
    append(out, net.hidden().bias());
    if (net.sgd_head() != nullptr) {
      append(out, net.sgd_head()->weights());
      append(out, net.sgd_head()->bias());
    } else {
      append_traces(out, net.bcpnn_head()->traces());
    }
  } else {
    const sc::DeepBcpnn& deep = model.deep();
    for (std::size_t l = 0; l < deep.depth(); ++l) {
      append_traces(out, deep.layer(l).traces());
      append(out, deep.layer(l).weights());
    }
    append_traces(out, deep.head().traces());
  }
  return out;
}

struct TrainedSnapshot {
  std::vector<float> state;
  std::vector<int> labels;
  std::vector<double> scores;
  sc::DistributedReport report;
};

TrainedSnapshot train_snapshot(sc::Model&& model,
                               const sc::DistributedOptions& options) {
  const FixtureData& data = fixture();
  TrainedSnapshot snap;
  snap.report = sc::fit_distributed(model, data.x_train, data.y_train, options);
  snap.state = state_vector(model);
  snap.labels = model.predict(data.x_test);
  snap.scores = model.predict_scores(data.x_test);
  return snap;
}

void expect_bit_identical(const TrainedSnapshot& a, const TrainedSnapshot& b,
                          const std::string& what) {
  ASSERT_EQ(a.state.size(), b.state.size()) << what;
  for (std::size_t i = 0; i < a.state.size(); ++i) {
    ASSERT_EQ(a.state[i], b.state[i])
        << what << ": learned state drifts at float " << i;
  }
  EXPECT_EQ(a.labels, b.labels) << what;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << what;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    ASSERT_EQ(a.scores[i], b.scores[i]) << what << ": score row " << i;
  }
}

}  // namespace

// --- Rank-count invariance (the tentpole acceptance criterion) -------------

TEST(Distributed, BcpnnHeadBitIdenticalAcrossRankCounts) {
  const auto reference =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), {.ranks = 1});
  for (const int ranks : {2, 3, 4}) {
    const auto snap = train_snapshot(make_shallow(sc::HeadType::kBcpnn),
                                     {.ranks = ranks});
    expect_bit_identical(reference, snap,
                         "bcpnn head, ranks=" + std::to_string(ranks));
    EXPECT_GT(snap.report.sync_count, 0u);
    EXPECT_GT(snap.report.bytes_per_rank, 0u);
  }
}

TEST(Distributed, SgdHeadBitIdenticalAcrossRankCounts) {
  const auto reference =
      train_snapshot(make_shallow(sc::HeadType::kSgd), {.ranks = 1});
  for (const int ranks : {2, 3, 4}) {
    const auto snap =
        train_snapshot(make_shallow(sc::HeadType::kSgd), {.ranks = ranks});
    expect_bit_identical(reference, snap,
                         "sgd head, ranks=" + std::to_string(ranks));
  }
}

TEST(Distributed, DeepStackBitIdenticalAcrossRankCounts) {
  const auto reference = train_snapshot(make_deep(), {.ranks = 1});
  for (const int ranks : {2, 3, 4}) {
    const auto snap = train_snapshot(make_deep(), {.ranks = ranks});
    expect_bit_identical(reference, snap,
                         "deep stack, ranks=" + std::to_string(ranks));
  }
}

TEST(Distributed, MoreRanksThanVirtualShardsStillExact) {
  // Ranks beyond the decomposition width idle on some shards but must
  // not change the result.
  sc::DistributedOptions narrow;
  narrow.ranks = 1;
  narrow.virtual_shards = 2;
  const auto reference =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), narrow);
  narrow.ranks = 3;  // > virtual_shards
  const auto snap = train_snapshot(make_shallow(sc::HeadType::kBcpnn), narrow);
  expect_bit_identical(reference, snap, "ranks > virtual_shards");
}

TEST(Distributed, MoreRanksThanHiddenColumnsStillExact) {
  // 3 hidden units over 4 ranks: rank 3 owns no column, yet it joins
  // every support and trace gather, and the result must not move.
  const auto tiny = [](sc::HeadType head) {
    sc::Model model;
    model.input(28, 10)
        .hidden(1, 3, 0.4)
        .classifier(2, head)
        .set_option("epochs", 2)
        .set_option("head_epochs", 2)
        .set_option("batch_size", 32)
        .compile("simd", /*seed=*/5);
    return model;
  };
  for (const auto head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    const auto reference = train_snapshot(tiny(head), {.ranks = 1});
    const auto snap = train_snapshot(tiny(head), {.ranks = 4});
    expect_bit_identical(reference, snap, "3 hidden units, 4 ranks");
    EXPECT_EQ(snap.report.sync_count, reference.report.sync_count);
  }
}

TEST(Distributed, ExactModeSendsSupportSlicesAndEpochTraces) {
  // make_shallow(kBcpnn): 280 one-hot inputs, 20 hidden units, 2 classes;
  // 260 rows in batches of 32 are 9 batches per epoch.
  constexpr std::uint64_t kInputs = 28 * 10;
  constexpr std::uint64_t kHidden = 20;
  constexpr std::uint64_t kRows = 260;
  constexpr std::uint64_t kBatches = 9;
  constexpr std::uint64_t kEpochs = 2;
  constexpr std::uint64_t kFloat = sizeof(float);
  for (const int ranks : {2, 3, 4}) {
    const auto snap = train_snapshot(make_shallow(sc::HeadType::kBcpnn),
                                     {.ranks = ranks});
    const auto p = static_cast<std::uint64_t>(ranks);
    // Hidden columns are split as evenly as possible; every exchange pads
    // a rank's slice to the widest one.
    const std::uint64_t widest = (kHidden + p - 1) / p;
    // Per hidden batch each rank sends its rows x widest support slice
    // to the P - 1 others: over an epoch, every row once.
    const std::uint64_t support = (p - 1) * kEpochs * kRows * widest * kFloat;
    // Per epoch end, its p_j and p_ij slices.
    const std::uint64_t traces =
        (p - 1) * kEpochs * (1 + kInputs) * widest * kFloat;
    // And the two uint64 schedule-check allreduces. The head, trained
    // replicated on every rank, sends nothing.
    const std::uint64_t checks = 2 * (p - 1) * sizeof(std::uint64_t);
    EXPECT_EQ(snap.report.sync_count, kEpochs * kBatches);
    EXPECT_EQ(snap.report.bytes_per_rank, support + traces + checks)
        << "ranks=" << ranks;

    // Twice the head epochs move neither the traffic nor the exchanges.
    const auto longer = train_snapshot(
        make_shallow(sc::HeadType::kBcpnn, /*head_epochs=*/6),
        {.ranks = ranks});
    EXPECT_EQ(longer.report.bytes_per_rank, snap.report.bytes_per_rank)
        << "ranks=" << ranks;
    EXPECT_EQ(longer.report.sync_count, snap.report.sync_count)
        << "ranks=" << ranks;
  }
}

// --- Column slices: the per-column exactness the hidden split relies on ----

namespace {

/// Columns [c0, c0 + width) of `m`.
st::MatrixF columns(const st::MatrixF& m, std::size_t c0, std::size_t width) {
  st::MatrixF out(m.rows(), width);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    std::copy_n(m.row(r) + c0, width, out.row(r));
  }
  return out;
}

void expect_same_bits(const st::MatrixF& expected, const st::MatrixF& actual,
                      const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expected.data()[i]),
              std::bit_cast<std::uint32_t>(actual.data()[i]))
        << what << ": element " << i << " (" << expected.data()[i] << " vs "
        << actual.data()[i] << ")";
  }
}

std::vector<st::DispatchLevel> available_tiers() {
  std::vector<st::DispatchLevel> tiers;
  for (const auto level : {st::DispatchLevel::kScalar,
                           st::DispatchLevel::kSse42,
                           st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) != nullptr) tiers.push_back(level);
  }
  return tiers;
}

const std::vector<std::string> kEngines = {"naive", "simd", "device_sim"};

// Slice boundaries off every SIMD width (4, 8, 16) and the AVX2 sparse
// kernel's 64-column block, an empty slice, and the whole width.
constexpr std::size_t kSliceWidth = 150;
constexpr std::size_t kSlices[][2] = {{0, 150}, {0, 1},   {1, 7},  {7, 9},
                                      {8, 16},  {13, 51}, {16, 65}, {63, 87},
                                      {149, 1}, {75, 0}};

}  // namespace

TEST(DistributedSlices, SupportOnAColumnSliceMatchesTheFullSupport) {
  su::Rng rng(17);
  const FixtureData& data = fixture();
  st::MatrixF one_hot(37, data.x_train.cols());
  for (std::size_t r = 0; r < one_hot.rows(); ++r) {
    std::copy_n(data.x_train.row(r), one_hot.cols(), one_hot.row(r));
  }
  st::MatrixF dense(37, one_hot.cols());
  for (float& v : dense) v = static_cast<float>(rng.uniform(0.0, 1.0));
  st::MatrixF w(one_hot.cols(), kSliceWidth);
  for (float& v : w) v = static_cast<float>(rng.uniform(-3.0, 1.0));
  std::vector<float> bias(kSliceWidth);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-2.0, 0.0));

  for (const auto level : available_tiers()) {
    const sg::ScopedDispatch pin(level);
    for (const std::string& name : kEngines) {
      auto engine = sp::EngineRegistry::instance().create(name);
      for (const st::MatrixF* x : {&one_hot, &dense}) {
        st::MatrixF full;
        engine->support(*x, w, bias.data(), full);
        for (const auto& slice : kSlices) {
          st::MatrixF part;
          engine->support(*x, columns(w, slice[0], slice[1]),
                          bias.data() + slice[0], part);
          expect_same_bits(columns(full, slice[0], slice[1]), part,
                           name + " tier=" + st::dispatch_level_name(level) +
                               (x == &dense ? " dense" : " one-hot") +
                               " cols=" + std::to_string(slice[0]) + "+" +
                               std::to_string(slice[1]));
        }
      }
    }
  }
}

TEST(DistributedSlices, MaskedWeightRecomputeOnAColumnSliceMatchesTheFull) {
  sc::BcpnnConfig cfg;
  cfg.hcus = 3;
  cfg.mcus = 50;  // 150 hidden units; HCU borders at 50 and 100
  su::Rng rng(23);
  const sc::ReceptiveFieldMasks masks(cfg.hcus, cfg.input_hypercolumns,
                                      cfg.mask_cardinality(), rng);
  const std::size_t n_in = cfg.input_units();
  std::vector<float> pi(n_in);
  std::vector<float> pj(kSliceWidth);
  st::MatrixF pij(n_in, kSliceWidth);
  // Probabilities on both sides of the eps floors.
  for (float& v : pi) v = static_cast<float>(rng.uniform(0.0, 0.2));
  for (float& v : pj) v = static_cast<float>(rng.uniform(0.0, 0.02));
  for (float& v : pij) v = static_cast<float>(rng.uniform(0.0, 2e-3));
  pi[3] = 0.0f;
  pj[5] = 1e-6f;
  std::vector<std::uint8_t> keep(n_in * kSliceWidth);
  for (auto& k : keep) k = rng.bernoulli(0.7) ? 1 : 0;

  for (const auto level : available_tiers()) {
    const sg::ScopedDispatch pin(level);
    for (const std::string& name : kEngines) {
      auto engine = sp::EngineRegistry::instance().create(name);
      for (const bool pruned : {true, false}) {
        const std::vector<std::uint8_t> keep_mask =
            pruned ? keep : std::vector<std::uint8_t>{};
        st::MatrixF full;
        std::vector<float> full_bias(kSliceWidth);
        engine->recompute_weights(pi.data(), pj.data(), pij, cfg.eps,
                                  cfg.k_beta, full, full_bias.data());
        sc::apply_weight_masks(cfg, masks, keep_mask, 0, full);
        for (const auto& slice : kSlices) {
          st::MatrixF part;
          std::vector<float> part_bias(slice[1]);
          engine->recompute_weights(pi.data(), pj.data() + slice[0],
                                    columns(pij, slice[0], slice[1]),
                                    cfg.eps, cfg.k_beta, part,
                                    part_bias.data());
          sc::apply_weight_masks(cfg, masks, keep_mask, slice[0], part);
          const std::string what =
              name + " tier=" + st::dispatch_level_name(level) +
              (pruned ? " pruned" : "") +
              " cols=" + std::to_string(slice[0]) + "+" +
              std::to_string(slice[1]);
          expect_same_bits(columns(full, slice[0], slice[1]), part, what);
          for (std::size_t j = 0; j < slice[1]; ++j) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(full_bias[slice[0] + j]),
                      std::bit_cast<std::uint32_t>(part_bias[j]))
                << what << ": bias " << j;
          }
        }
      }
    }
  }
}

TEST(DistributedSlices, ColumnNoiseMatchesTheWholeMatrixDraws) {
  // A rank adds the draws of its own columns only, transforming just the
  // Box-Muller pairs that reach them; the values and the generator's end
  // state must be those of the whole-matrix call, odd widths and a
  // generator holding a cached normal included.
  for (const std::size_t width : {std::size_t{150}, std::size_t{37}}) {
    for (const bool cached : {false, true}) {
      for (const auto& slice : kSlices) {
        if (slice[0] + slice[1] > width) continue;
        const std::size_t rows = 9;
        su::Rng whole_rng(99);
        if (cached) whole_rng.normal();
        su::Rng part_rng = whole_rng;
        st::MatrixF whole(rows, width, 0.5f);
        sc::add_support_noise(whole_rng, 0.7f, whole);
        st::MatrixF part(rows, slice[1], 0.5f);
        sc::add_support_noise(part_rng, 0.7f, part.data(), rows, width,
                              slice[0], slice[1]);
        const std::string what = "width=" + std::to_string(width) +
                                 (cached ? " cached" : "") + " cols=" +
                                 std::to_string(slice[0]) + "+" +
                                 std::to_string(slice[1]);
        expect_same_bits(columns(whole, slice[0], slice[1]), part, what);
        EXPECT_EQ(whole_rng.normal(), part_rng.normal()) << what;
      }
    }
  }
}

// --- Transport-backend invariance (shm segment / TCP loopback mesh) --------

TEST(Distributed, BackendBitIdenticalAcrossTransportsAtEveryRankCount) {
  // The collectives never touch the wire directly, so swapping the
  // in-process mailboxes for a real shared-memory segment or a TCP
  // loopback mesh must not move a single bit — at any rank count.
  for (const int ranks : {1, 2, 4}) {
    sc::DistributedOptions options;
    options.ranks = ranks;
    options.backend = scomm::Backend::kInProcess;
    const auto reference =
        train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
    for (const auto backend : {scomm::Backend::kShm, scomm::Backend::kTcp}) {
      options.backend = backend;
      const auto snap =
          train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
      expect_bit_identical(reference, snap,
                           std::string("backend=") +
                               scomm::backend_name(backend) +
                               ", ranks=" + std::to_string(ranks));
      EXPECT_EQ(snap.report.backend, backend);
      // The logical byte model is backend-independent by construction.
      EXPECT_EQ(snap.report.bytes_per_rank, reference.report.bytes_per_rank);
      EXPECT_EQ(snap.report.total_bytes, reference.report.total_bytes);
    }
  }
}

TEST(Distributed, WireBytesIncludeFramingOnRealTransports) {
  sc::DistributedOptions options;
  options.ranks = 2;
  for (const auto backend : {scomm::Backend::kShm, scomm::Backend::kTcp}) {
    options.backend = backend;
    const auto snap =
        train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
    // Real wires pay a frame header per message on top of the payload.
    EXPECT_GT(snap.report.wire_bytes_per_rank, snap.report.bytes_per_rank)
        << scomm::backend_name(backend);
    EXPECT_GE(snap.report.total_wire_bytes,
              snap.report.wire_bytes_per_rank * 2)
        << scomm::backend_name(backend);
  }
  // In-process "wire" carries the payloads without framing.
  options.backend = scomm::Backend::kInProcess;
  const auto inproc =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), options);
  EXPECT_GE(inproc.report.wire_bytes_per_rank, inproc.report.bytes_per_rank);
}

// --- Golden digests (scalar tier, committed under tests/golden/) -----------

namespace {

void check_distributed_golden(
    const std::string& name, sc::HeadType head,
    scomm::Backend backend = scomm::Backend::kInProcess) {
  const FixtureData& data = fixture();
  sg::Digest actual;
  {
    const sg::ScopedDispatch pin(st::DispatchLevel::kScalar);
    sc::Model model = make_shallow(head);
    sc::fit_distributed(model, data.x_train, data.y_train,
                        {.ranks = 2, .backend = backend});
    actual.labels = model.predict(data.x_test);
    actual.scores = model.predict_scores(data.x_test);
    actual.accuracy = model.evaluate(data.x_test, data.y_test);
    for (std::size_t i = 0; i < actual.scores.size(); ++i) {
      const double p =
          std::min(std::max(actual.scores[i], 1e-12), 1.0 - 1e-12);
      actual.log_loss -=
          data.y_test[i] == 1 ? std::log(p) : std::log(1.0 - p);
    }
    actual.log_loss /= static_cast<double>(actual.scores.size());
  }

  if (sg::update_mode()) {
    sg::write_digest(name, actual);
    GTEST_SKIP() << "regenerated " << sg::golden_path(name);
  }

  sg::Digest expected;
  ASSERT_TRUE(sg::read_digest(name, expected))
      << "missing golden digest " << sg::golden_path(name)
      << " — run with STREAMBRAIN_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual.labels, expected.labels) << name << ": label drift";
  EXPECT_NEAR(actual.accuracy, expected.accuracy, 1e-9) << name;
  EXPECT_NEAR(actual.log_loss, expected.log_loss, 1e-7) << name;
  ASSERT_EQ(actual.scores.size(), expected.scores.size());
  for (std::size_t i = 0; i < actual.scores.size(); ++i) {
    EXPECT_NEAR(actual.scores[i], expected.scores[i], 1e-8)
        << name << ": score drift at row " << i;
  }
}

}  // namespace

TEST(DistributedGolden, BcpnnHeadMatchesCommittedDigest) {
  check_distributed_golden("distributed_bcpnn_head", sc::HeadType::kBcpnn);
}

TEST(DistributedGolden, SgdHeadMatchesCommittedDigest) {
  check_distributed_golden("distributed_sgd_head", sc::HeadType::kSgd);
}

// The shm and TCP backends must reproduce the SAME committed digests —
// the transport is invisible to the trained bits.

TEST(DistributedGolden, BcpnnHeadMatchesCommittedDigestOverShm) {
  check_distributed_golden("distributed_bcpnn_head", sc::HeadType::kBcpnn,
                           scomm::Backend::kShm);
}

TEST(DistributedGolden, SgdHeadMatchesCommittedDigestOverTcp) {
  check_distributed_golden("distributed_sgd_head", sc::HeadType::kSgd,
                           scomm::Backend::kTcp);
}

// --- fit_rank: the one-rank-per-process entry point -------------------------

TEST(Distributed, FitRankMatchesFitAndSynchronizesEveryRank) {
  // fit_rank is what sb_launch-launched processes call; driven here over
  // an in-test world it must land every rank on fit()'s exact bits.
  const FixtureData& data = fixture();
  sc::Model reference = make_shallow(sc::HeadType::kBcpnn);
  const auto report =
      sc::fit_distributed(reference, data.x_train, data.y_train, {.ranks = 2});
  const auto reference_state = state_vector(reference);

  std::vector<std::vector<float>> states(2);
  std::vector<std::size_t> syncs(2, 0);
  scomm::run_transport(scomm::Backend::kShm, 2, [&](scomm::Communicator& comm) {
    sc::Model model = make_shallow(sc::HeadType::kBcpnn);
    sc::DistributedTrainer trainer;  // ranks option ignored by fit_rank
    syncs[static_cast<std::size_t>(comm.rank())] =
        trainer.fit_rank(comm, model, data.x_train, data.y_train);
    states[static_cast<std::size_t>(comm.rank())] = state_vector(model);
  });
  EXPECT_EQ(states[0], reference_state);
  EXPECT_EQ(states[1], reference_state);  // rank-synchronized
  EXPECT_EQ(syncs[0], report.sync_count);
}

TEST(Distributed, FitRankValidatesInputs) {
  const FixtureData& data = fixture();
  scomm::run_transport(scomm::Backend::kInProcess, 1,
                       [&](scomm::Communicator& comm) {
                         sc::Model uncompiled;
                         uncompiled.input(28, 10).hidden(1, 8, 0.4);
                         sc::DistributedTrainer trainer;
                         EXPECT_THROW(trainer.fit_rank(comm, uncompiled,
                                                       data.x_train,
                                                       data.y_train),
                                      std::logic_error);
                       });
}

// --- Reports & validation --------------------------------------------------

TEST(Distributed, ReportTotalBytesIsSumOfPerRankCounters) {
  // All trainer collectives are symmetric, so the true sum equals
  // ranks * bytes_per_rank here; the asymmetric-traffic case (where the
  // old rank0 * world extrapolation over-counts) is locked down by
  // CommProperty.RootedCollectiveBytesAreAsymmetric.
  std::uint64_t fewer_ranks_total = 0;
  for (const int ranks : {2, 3}) {
    const auto snap = train_snapshot(make_shallow(sc::HeadType::kBcpnn),
                                     {.ranks = ranks});
    EXPECT_EQ(snap.report.total_bytes,
              snap.report.bytes_per_rank * static_cast<std::uint64_t>(ranks));
    EXPECT_EQ(snap.report.ranks, ranks);
    // More ranks -> more total traffic.
    EXPECT_GT(snap.report.total_bytes, fewer_ranks_total);
    fewer_ranks_total = snap.report.total_bytes;
  }
}

TEST(Distributed, ReportSplitsRankZeroTimeIntoComputePackAndExchange) {
  const auto snap =
      train_snapshot(make_shallow(sc::HeadType::kSgd), {.ranks = 2});
  const auto& report = snap.report;
  EXPECT_GT(report.compute_s, 0.0);
  EXPECT_GT(report.pack_s, 0.0);
  EXPECT_GT(report.exchange_s, 0.0);
  EXPECT_LE(report.compute_s + report.pack_s + report.exchange_s,
            report.seconds);
}

TEST(Distributed, SingleRankSendsNothing) {
  const auto snap =
      train_snapshot(make_shallow(sc::HeadType::kBcpnn), {.ranks = 1});
  EXPECT_EQ(snap.report.ranks, 1);
  EXPECT_EQ(snap.report.bytes_per_rank, 0u);
  EXPECT_EQ(snap.report.total_bytes, 0u);
  EXPECT_GT(snap.report.sync_count, 0u);  // reductions still scheduled
}

TEST(Distributed, TrainedModelActuallyLearns) {
  const FixtureData& data = fixture();
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 24, 0.4)
      .classifier(2, sc::HeadType::kSgd)
      .set_option("epochs", 3)
      .set_option("head_epochs", 16)
      .set_option("batch_size", 32)
      .compile("simd", /*seed=*/11);
  const auto report =
      sc::fit_distributed(model, data.x_train, data.y_train, {.ranks = 4});
  EXPECT_GT(report.bytes_per_rank, 0u);
  EXPECT_GT(model.evaluate(data.x_train, data.y_train), 0.6);
}

TEST(Distributed, PruneCadenceMatchesSerialScheduleAtEveryRankCount) {
  // Model::fit re-selects the hidden layer's and the head's magnitude
  // keep-masks on the prune cadence; the distributed schedule ends its
  // epochs with the same step. Traces are rank-identical at epoch end,
  // so the masks (and every learned bit) agree across rank counts.
  const FixtureData& data = fixture();
  for (const auto head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    std::vector<std::vector<float>> states;
    std::vector<std::vector<std::uint8_t>> masks;
    for (const int ranks : {1, 2, 3}) {
      sc::Model model;
      model.input(28, 10)
          .hidden(1, 20, 0.4)
          .classifier(2, head)
          .set_option("epochs", 2)
          .set_option("head_epochs", 2)
          .set_option("batch_size", 32)
          .set_option("prune_density", 0.2)
          .set_option("prune_cadence", 1)
          .compile("simd", /*seed=*/11);
      sc::fit_distributed(model, data.x_train, data.y_train, {.ranks = ranks});
      const sc::Network& net = model.network();
      const std::string what = "ranks=" + std::to_string(ranks);
      EXPECT_LE(net.hidden().weight_density(), 0.2 + 1e-3) << what;
      const double head_density = net.sgd_head() != nullptr
                                      ? net.sgd_head()->weight_density()
                                      : net.bcpnn_head()->weight_density();
      EXPECT_LE(head_density, 0.2 + 1e-3) << what;
      states.push_back(state_vector(model));
      masks.push_back(net.hidden().prune_mask());
    }
    for (std::size_t i = 1; i < states.size(); ++i) {
      EXPECT_EQ(states[i], states[0]) << "rank count #" << i;
      EXPECT_EQ(masks[i], masks[0]) << "rank count #" << i;
    }
  }
}

TEST(Distributed, CheckpointRoundTripAfterDistributedFit) {
  const FixtureData& data = fixture();
  sc::Model model = make_shallow(sc::HeadType::kBcpnn);
  sc::fit_distributed(model, data.x_train, data.y_train, {.ranks = 2});
  sc::Model clone = sc::clone_model(model);
  EXPECT_EQ(clone.predict(data.x_test), model.predict(data.x_test));
}

TEST(Distributed, ValidatesOptionsAndInputs) {
  EXPECT_THROW(sc::DistributedTrainer({.ranks = 0}), std::invalid_argument);
  EXPECT_THROW(sc::DistributedTrainer({.virtual_shards = 0}),
               std::invalid_argument);

  const FixtureData& data = fixture();
  sc::Model uncompiled;
  uncompiled.input(28, 10).hidden(1, 8, 0.4);
  EXPECT_THROW(
      sc::fit_distributed(uncompiled, data.x_train, data.y_train, {}),
      std::logic_error);

  sc::Model model = make_shallow(sc::HeadType::kBcpnn);
  std::vector<int> short_labels(data.y_train.begin(),
                                data.y_train.end() - 1);
  EXPECT_THROW(sc::fit_distributed(model, data.x_train, short_labels, {}),
               std::invalid_argument);
}
