#include "core/distributed.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/classifier.hpp"
#include "core/deep.hpp"
#include "core/network.hpp"
#include "core/schedule.hpp"
#include "core/serialization.hpp"
#include "core/sgd_head.hpp"
#include "data/dataset.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace streambrain::core {

namespace {

// ---------------------------------------------------------------------------
// Rank-invariant building blocks. Everything here is a function of the
// data, the schedule, and the fixed virtual-shard decomposition — never of
// the rank count — which is what makes N-rank training bit-identical to
// 1-rank training (see distributed.hpp).

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (0x9E3779B97F4A7C15ULL * (b + 1));
  return util::splitmix64(s);
}

/// Deterministic per-(phase, epoch, batch, shard) noise stream: the noise
/// a virtual shard's rows receive depends only on the shard identity, so
/// it is identical whichever rank owns the shard.
util::Rng shard_noise_rng(std::uint64_t stream, std::size_t epoch,
                          std::size_t batch, std::size_t shard) {
  return util::Rng(mix(mix(mix(stream, epoch), batch), shard));
}

/// p[i] += alpha * (sums[i] * inv - p[i]), the engine's trace EMA
/// replayed from externally combined batch statistics, identically on
/// every rank.
void ema_from_sums(const float* sums, float inv, float alpha, float* p,
                   std::size_t n) {
  // Elementwise, so any split gives the same bits; the paper's 280 x 300
  // traces run inline.
  constexpr std::size_t kMinPerBlock = std::size_t{1} << 18;
  parallel::for_blocks(n, kMinPerBlock, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      p[i] += alpha * (sums[i] * inv - p[i]);
    }
  });
}

/// Gather the rows of batch positions [start, end) of `order` into `out`
/// shard by shard (position i -> shard (i - start) % shards, in position
/// order within a shard); shard v ends at row seg_end[v].
void pack_batch_by_shard(const tensor::MatrixF& src,
                         const std::vector<std::size_t>& order,
                         std::size_t start, std::size_t end,
                         std::size_t shards, tensor::MatrixF& out,
                         std::vector<std::size_t>& seg_end) {
  out.resize_uninitialized(end - start, src.cols());
  seg_end.resize(shards);
  std::size_t row = 0;
  for (std::size_t v = 0; v < shards; ++v) {
    for (std::size_t i = start + v; i < end; i += shards) {
      std::copy_n(src.row(order[i]), src.cols(), out.row(row++));
    }
    seg_end[v] = row;
  }
}

/// sums[c] = the column sums of the `cols`-wide window at `m` (leading
/// dimension ld), per shard in row order as tensor::col_sums adds them,
/// then over the shards in shard order: the per-shard statistics and
/// their fixed-order combine.
void segmented_col_sums(const float* m, std::size_t ld, std::size_t cols,
                        const std::vector<std::size_t>& seg_end,
                        std::vector<float>& part, float* sums) {
  std::fill_n(sums, cols, 0.0f);
  part.resize(cols);
  std::size_t row = 0;
  for (const std::size_t end : seg_end) {
    if (row == end) continue;  // a short last batch leaves a shard empty
    std::fill(part.begin(), part.end(), 0.0f);
    for (; row < end; ++row) {
      tensor::axpy(1.0f, m + row * ld, part.data(), cols);
    }
    for (std::size_t c = 0; c < cols; ++c) sums[c] += part[c];
  }
}

/// The trace EMA of one batch (hidden layers and the BCPNN head). The
/// batch's rows `x` are grouped by shard, shard v ending at row
/// seg_end[v]; its activations are the `width`-wide window at `a`
/// (leading dimension lda). Each statistic (col-sums of x, col-sums of
/// a, x^T a) is summed per shard and the shards added in shard order.
struct TraceUpdate {
  std::vector<float> part;
  std::vector<float> sum_pi;
  std::vector<float> sum_pj;
  std::vector<float> sum_pij;

  void apply(const tensor::MatrixF& x, const float* a, std::size_t lda,
             std::size_t width, const std::vector<std::size_t>& seg_end,
             float alpha, float* pi, float* pj, float* pij) {
    const std::size_t n_in = x.cols();
    sum_pi.resize(n_in);
    sum_pj.resize(width);
    sum_pij.resize(n_in * width);
    segmented_col_sums(x.data(), n_in, n_in, seg_end, part, sum_pi.data());
    segmented_col_sums(a, lda, width, seg_end, part, sum_pj.data());
    tensor::segmented_gemm_tn(x, a, lda, width, seg_end, sum_pij.data(),
                              width);
    const float inv = 1.0f / static_cast<float>(x.rows());
    ema_from_sums(sum_pi.data(), inv, alpha, pi, n_in);
    ema_from_sums(sum_pj.data(), inv, alpha, pj, width);
    ema_from_sums(sum_pij.data(), inv, alpha, pij, n_in * width);
  }
};

// --- The batch loop every phase shares --------------------------------------

/// Rank-local account of a training run: hidden-layer batch exchanges
/// issued and where the phase loops spent their wall time.
struct RankLedger {
  std::size_t syncs = 0;
  double compute_s = 0.0;   ///< support, statistics, updates, epoch ends
  double pack_s = 0.0;      ///< gathering shard rows
  double exchange_s = 0.0;  ///< collectives, waits, unpacking
};

/// Run `step` and add its wall time to `seconds`.
template <typename Step>
void timed(double& seconds, Step&& step) {
  const util::Stopwatch watch;
  step();
  seconds += watch.seconds();
}

/// One batch of a phase: its rows, and for a head their targets, grouped
/// by virtual shard; shard v ends at row seg_end[v].
struct ShardedBatch {
  std::size_t epoch = 0;
  std::size_t index = 0;  ///< within the epoch
  tensor::MatrixF x;
  tensor::MatrixF t;  ///< empty in an unsupervised phase
  std::vector<std::size_t> seg_end;
};

/// All epochs of one phase over `x` (and `targets`, when not null): each
/// epoch reshuffles the row order from `stream`, cuts it into batches,
/// packs every batch shard by shard (timed as pack), hands it to `step`
/// and ends with end_epoch(epoch). The order depends only on the data,
/// the schedule and `stream`, never on the rank; `step` and `end_epoch`
/// time their own work.
template <typename Step, typename EndEpoch>
void run_batches(const tensor::MatrixF& x, const tensor::MatrixF* targets,
                 std::size_t epochs, std::size_t batch_size,
                 std::size_t shards, std::uint64_t stream, RankLedger& ledger,
                 Step&& step, EndEpoch&& end_epoch) {
  const std::size_t n = x.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng order_rng(mix(stream, 0x5A55C0DEULL));
  const std::size_t batches = (n + batch_size - 1) / batch_size;
  ShardedBatch batch;
  for (batch.epoch = 0; batch.epoch < epochs; ++batch.epoch) {
    order_rng.shuffle(order);
    for (batch.index = 0; batch.index < batches; ++batch.index) {
      const std::size_t start = batch.index * batch_size;
      const std::size_t end = std::min(start + batch_size, n);
      timed(ledger.pack_s, [&] {
        pack_batch_by_shard(x, order, start, end, shards, batch.x,
                            batch.seg_end);
        if (targets != nullptr) {
          pack_batch_by_shard(*targets, order, start, end, shards, batch.t,
                              batch.seg_end);
        }
      });
      step(batch);
    }
    end_epoch(batch.epoch);
  }
}

// --- Column-split hidden layers ---------------------------------------------
//
// Rank r owns a contiguous range of the layer's hidden-unit columns and
// keeps only their slice of p_j, p_ij, W and the bias; p_i is replicated.
// Per batch every rank computes the support of its columns for all rows,
// one allgather assembles the full support rows, every rank adds each
// virtual shard's noise and runs the softmax on full rows (replicated,
// O(batch * n_out)), and then accumulates the trace statistics, the EMA
// and the weights of its own columns only. Every engine computes each
// support and weight column independently of its neighbours, in every
// kernel tier (test_distributed's slice tests pin this), so the split
// needs no SIMD alignment and the bits match the whole-matrix update.

/// A rank's contiguous range of `n_out` hidden-unit columns: the first
/// n_out % world ranks own one column more. Ranks beyond n_out own none
/// but still join every collective.
struct ColumnRange {
  std::size_t begin = 0;
  std::size_t width = 0;
  std::size_t widest = 0;  ///< the widest rank's width: the exchange stride
};

ColumnRange column_range(std::size_t n_out, int rank, int world) {
  const auto r = static_cast<std::size_t>(rank);
  const auto p = static_cast<std::size_t>(world);
  const std::size_t base = n_out / p;
  const std::size_t extra = n_out % p;
  return {r * base + std::min(r, extra), base + (r < extra ? 1 : 0),
          base + (extra > 0 ? 1 : 0)};
}

/// Allgather every rank's `cols`-wide slice of a rows x n_out matrix:
/// `slice` (rows x own width, leading dimension `width`) is padded to the
/// widest rank's width so the equal-count allgather serves, and `full`
/// (leading dimension n_out) receives every rank's columns.
void allgather_column_slices(comm::Communicator& comm, std::size_t n_out,
                             std::size_t rows, const float* slice,
                             float* full, std::vector<float>& send,
                             std::vector<float>& gathered) {
  const int world = comm.size();
  const ColumnRange own = column_range(n_out, comm.rank(), world);
  const std::size_t stride = own.widest;
  send.assign(rows * stride, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(slice + r * own.width, own.width, send.data() + r * stride);
  }
  gathered.resize(static_cast<std::size_t>(world) * send.size());
  comm.allgather(send.data(), send.size(), gathered.data());
  for (int q = 0; q < world; ++q) {
    const ColumnRange theirs = column_range(n_out, q, world);
    const float* from =
        gathered.data() + static_cast<std::size_t>(q) * send.size();
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(from + r * stride, theirs.width,
                  full + r * n_out + theirs.begin);
    }
  }
}

/// The unsupervised phase of one hidden layer, split by columns. Its
/// schedule parameters all come from the layer's own config, so the same
/// code drives shallow networks and every layer of a deep stack. The layer
/// itself is brought up to date at every epoch end: its full traces are
/// gathered and its weights recomputed before the plasticity and prune
/// steps, so they decide identically on every rank.
void run_column_split_phase(comm::Communicator& comm, std::size_t shards,
                            parallel::Engine& engine, BcpnnLayer& layer,
                            const tensor::MatrixF& x, std::uint64_t stream,
                            RankLedger& ledger) {
  const BcpnnConfig& cfg = layer.config();
  const std::size_t n_in = x.cols();
  const std::size_t n_out = layer.hidden_units();
  const bool single = comm.size() == 1;
  const ColumnRange own = column_range(n_out, comm.rank(), comm.size());
  const std::uint64_t phase_stream = mix(cfg.seed, stream);

  // This rank's slice of the layer state.
  std::vector<float> pi = layer.traces().pi();
  std::vector<float> pj(own.width);
  tensor::MatrixF pij(n_in, own.width);
  tensor::MatrixF weights(n_in, own.width);
  std::vector<float> bias(own.width);
  const auto copy_columns = [&](const tensor::MatrixF& from,
                                tensor::MatrixF& to) {
    for (std::size_t i = 0; i < n_in; ++i) {
      std::copy_n(from.row(i) + own.begin, own.width, to.row(i));
    }
  };
  const auto load_weights = [&] {
    copy_columns(layer.weights(), weights);
    std::copy_n(layer.bias().data() + own.begin, own.width, bias.data());
  };
  std::copy_n(layer.traces().pj().data() + own.begin, own.width, pj.data());
  copy_columns(layer.traces().pij(), pij);
  load_weights();

  tensor::MatrixF support;
  tensor::MatrixF activations;
  std::vector<float> send;
  std::vector<float> gathered;
  TraceUpdate update;

  const auto step = [&](const ShardedBatch& batch) {
    const std::size_t rows = batch.x.rows();
    timed(ledger.compute_s, [&] {
      if (own.width == 0) return;
      engine.support(batch.x, weights, bias.data(), support);
      // Each shard's noise stream covers its full rows; this rank
      // transforms and adds only the draws of its own columns.
      const float noise_std = cfg.noise_at(batch.epoch);
      std::size_t row = 0;
      for (std::size_t v = 0; v < shards; ++v) {
        const std::size_t shard_rows = batch.seg_end[v] - row;
        if (noise_std > 0.0f && shard_rows > 0) {
          util::Rng noise_rng =
              shard_noise_rng(phase_stream, batch.epoch, batch.index, v);
          add_support_noise(noise_rng, noise_std, support.row(row),
                            shard_rows, n_out, own.begin, own.width);
        }
        row = batch.seg_end[v];
      }
    });
    // The noisy support slices are this batch's only exchange.
    timed(ledger.exchange_s, [&] {
      if (single) {
        std::swap(support, activations);
      } else {
        activations.resize_uninitialized(rows, n_out);
        allgather_column_slices(comm, n_out, rows, support.data(),
                                activations.data(), send, gathered);
      }
    });
    timed(ledger.compute_s, [&] {
      engine.softmax_hcu(activations, cfg.mcus, cfg.inverse_temperature);
      update.apply(batch.x, activations.data() + own.begin, n_out, own.width,
                   batch.seg_end, cfg.alpha, pi.data(), pj.data(),
                   pij.data());
      if (own.width > 0) {
        engine.recompute_weights(pi.data(), pj.data(), pij, cfg.eps,
                                 cfg.k_beta, weights, bias.data());
        apply_weight_masks(cfg, layer.masks(), layer.prune_mask(), own.begin,
                           weights);
      }
    });
    ++ledger.syncs;
  };

  // Epoch end: the full traces on every rank, then the serial path's
  // end-of-epoch steps, then this rank's slice of the new weights.
  const auto end_epoch = [&](std::size_t epoch) {
    ProbabilityTraces& traces = layer.mutable_traces();
    timed(ledger.exchange_s, [&] {
      allgather_column_slices(comm, n_out, 1, pj.data(),
                              traces.mutable_pj().data(), send, gathered);
      allgather_column_slices(comm, n_out, n_in, pij.data(),
                              traces.mutable_pij().data(), send, gathered);
    });
    timed(ledger.compute_s, [&] {
      traces.mutable_pi() = pi;
      layer.recompute_weights();
      end_hidden_epoch(layer, epoch);
      load_weights();
    });
  };

  run_batches(x, nullptr, cfg.epochs, cfg.batch_size, shards, phase_stream,
              ledger, step, end_epoch);
}

// --- Read-out heads, replicated ----------------------------------------------
//
// A head's statistics are only n_hidden x classes and every rank holds
// the full hidden code, so every rank trains the whole head on every
// batch, with no collective: the per-shard statistics in shard order
// keep the bits of the 1-rank fit.

/// Supervised BCPNN head phase (shallow kBcpnn head and deep heads): the
/// trace EMA over (hidden, targets), then the weights are rebuilt.
/// `prune` (null for a deep head) supplies the serial path's prune
/// cadence.
void run_bcpnn_head_phase(std::size_t shards, BcpnnClassifier& head,
                          const tensor::MatrixF& hidden,
                          const tensor::MatrixF& targets, std::size_t epochs,
                          std::size_t batch_size, std::uint64_t stream,
                          const BcpnnConfig* prune, RankLedger& ledger) {
  const std::size_t classes = targets.cols();
  TraceUpdate update;
  run_batches(
      hidden, &targets, epochs, batch_size, shards, stream, ledger,
      [&](const ShardedBatch& batch) {
        timed(ledger.compute_s, [&] {
          ProbabilityTraces& traces = head.mutable_traces();
          update.apply(batch.x, batch.t.data(), classes, classes,
                       batch.seg_end, head.alpha(),
                       traces.mutable_pi().data(), traces.mutable_pj().data(),
                       traces.mutable_pij().data());
          head.recompute_weights();
        });
      },
      [&](std::size_t epoch) {
        if (prune != nullptr) {
          timed(ledger.compute_s,
                [&] { prune_on_cadence(head, *prune, epoch); });
        }
      });
}

/// SGD head phase: the gradient X^T (p - t) / rows and its bias column
/// sums, per shard in shard order; each epoch ends with the learning-rate
/// decay and the serial path's prune cadence.
void run_sgd_head_phase(std::size_t shards, SgdHead& head,
                        const tensor::MatrixF& hidden,
                        const tensor::MatrixF& targets, const BcpnnConfig& cfg,
                        RankLedger& ledger) {
  const std::size_t classes = targets.cols();
  tensor::MatrixF probs;
  tensor::MatrixF grad(hidden.cols(), classes);
  std::vector<float> bias_grad(classes);
  std::vector<float> part;
  run_batches(
      hidden, &targets, cfg.head_epochs, cfg.batch_size, shards,
      mix(cfg.seed, /*stream=*/2), ledger,
      [&](const ShardedBatch& batch) {
        timed(ledger.compute_s, [&] {
          head.predict(batch.x, probs);
          for (std::size_t i = 0; i < probs.size(); ++i) {
            probs.data()[i] -= batch.t.data()[i];
          }
          tensor::segmented_gemm_tn(batch.x, probs.data(), classes, classes,
                                    batch.seg_end, grad.data(), classes);
          segmented_col_sums(probs.data(), classes, classes, batch.seg_end,
                             part, bias_grad.data());
          const float inv = 1.0f / static_cast<float>(batch.x.rows());
          tensor::scale(inv, grad.data(), grad.size());
          tensor::scale(inv, bias_grad.data(), classes);
          head.apply_gradient(grad, bias_grad);
        });
      },
      [&](std::size_t epoch) {
        timed(ledger.compute_s, [&] {
          head.end_epoch();
          prune_on_cadence(head, cfg, epoch);
        });
      });
}

// --- Replica plumbing ------------------------------------------------------

void train_replica(comm::Communicator& comm, const DistributedOptions& opts,
                   Model& replica, const tensor::MatrixF& x,
                   const std::vector<int>& labels, RankLedger& ledger) {
  const auto shards = static_cast<std::size_t>(opts.virtual_shards);
  if (replica.hidden_specs().size() == 1) {
    Network& net = replica.network();
    const BcpnnConfig& cfg = net.config().bcpnn;
    run_column_split_phase(comm, shards, net.engine(), net.mutable_hidden(),
                           x, /*stream=*/1, ledger);

    tensor::MatrixF hidden;
    net.mutable_hidden().forward(x, hidden);  // replicated, deterministic
    const tensor::MatrixF targets =
        data::one_hot_labels(labels, net.config().classes);
    if (SgdHead* head = net.sgd_head(); head != nullptr) {
      run_sgd_head_phase(shards, *head, hidden, targets, cfg, ledger);
    } else {
      run_bcpnn_head_phase(shards, *net.bcpnn_head(), hidden, targets,
                           cfg.head_epochs, cfg.batch_size,
                           mix(cfg.seed, /*stream=*/2), &cfg, ledger);
    }
  } else {
    DeepBcpnn& deep = replica.deep();
    const DeepBcpnnConfig& cfg = deep.config();
    tensor::MatrixF current = x;
    for (std::size_t l = 0; l < deep.depth(); ++l) {
      run_column_split_phase(comm, shards, deep.engine(),
                             deep.mutable_layer(l), current,
                             /*stream=*/16 + l, ledger);
      tensor::MatrixF next;
      deep.mutable_layer(l).forward(current, next);
      if (cfg.propagate_wta) {
        tensor::wta_blocks(next, cfg.layers[l].mcus);
      }
      current = std::move(next);
    }
    const tensor::MatrixF head_input = deep.transform(x);
    const tensor::MatrixF targets =
        data::one_hot_labels(labels, cfg.classes);
    run_bcpnn_head_phase(shards, deep.head(), head_input, targets,
                         cfg.head_epochs, cfg.batch_size,
                         mix(cfg.seed, /*stream=*/2), nullptr, ledger);
  }

  // Schedule-agreement invariant over the new uint64 collective: a rank
  // that desynchronized its reduction schedule would have deadlocked or
  // corrupted results — make the failure loud instead.
  std::uint64_t lo = ledger.syncs;
  std::uint64_t hi = ledger.syncs;
  comm.allreduce(&lo, 1, comm::ReduceOp::kMin);
  comm.allreduce(&hi, 1, comm::ReduceOp::kMax);
  if (lo != hi) {
    throw std::logic_error(
        "DistributedTrainer: ranks disagree on the sync schedule");
  }
}

/// Copy the trained state of `src` (a replica) into `dst` (the caller's
/// compiled model with identical topology), prune keep-masks included.
/// Each mask is adopted before the state, so the recompute applies it.
void adopt_state(const Model& src, Model& dst) {
  const auto adopt_layer = [](const BcpnnLayer& from, BcpnnLayer& to) {
    to.set_prune_mask(from.prune_mask());
    to.set_state(from.traces(), from.masks());
  };
  const auto adopt_head = [](const BcpnnClassifier& from,
                             BcpnnClassifier& to) {
    to.set_prune_mask(from.prune_mask());
    to.mutable_traces() = from.traces();
    to.recompute_weights();
  };
  if (src.hidden_specs().size() == 1) {
    const Network& from = src.network();
    Network& to = dst.network();
    adopt_layer(from.hidden(), to.mutable_hidden());
    if (from.sgd_head() != nullptr) {
      to.sgd_head()->set_prune_mask(from.sgd_head()->prune_mask());
      to.sgd_head()->set_state(from.sgd_head()->weights(),
                               from.sgd_head()->bias());
    } else {
      adopt_head(*from.bcpnn_head(), *to.bcpnn_head());
    }
  } else {
    const DeepBcpnn& from = src.deep();
    DeepBcpnn& to = dst.deep();
    for (std::size_t l = 0; l < from.depth(); ++l) {
      adopt_layer(from.layer(l), to.mutable_layer(l));
    }
    adopt_head(from.head(), to.head());
  }
}

}  // namespace

DistributedTrainer::DistributedTrainer(DistributedOptions options)
    : options_(options) {
  if (options_.ranks < 1) {
    throw std::invalid_argument("DistributedTrainer: ranks must be >= 1");
  }
  if (options_.virtual_shards < 1) {
    throw std::invalid_argument(
        "DistributedTrainer: virtual_shards must be >= 1");
  }
}

DistributedReport DistributedTrainer::fit(Model& model,
                                          const tensor::MatrixF& x,
                                          const std::vector<int>& labels) {
  if (!model.compiled()) {
    throw std::logic_error("DistributedTrainer::fit: model not compiled");
  }
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("DistributedTrainer::fit: rows != labels");
  }
  if (x.rows() == 0) {
    throw std::invalid_argument("DistributedTrainer::fit: empty dataset");
  }

  DistributedReport report;
  report.ranks = options_.ranks;
  report.backend = options_.backend;
  util::Stopwatch watch;

  // One independent replica per rank (own engine, identical initial
  // state); all ranks finish bit-identical, rank 0's state is adopted.
  std::vector<Model> replicas;
  replicas.reserve(static_cast<std::size_t>(options_.ranks));
  for (int r = 0; r < options_.ranks; ++r) {
    replicas.push_back(clone_model(model));
  }
  std::vector<RankLedger> ledgers(static_cast<std::size_t>(options_.ranks));

  const comm::RunStats stats = comm::run_transport(
      options_.backend, options_.ranks, [&](comm::Communicator& comm) {
        train_replica(comm, options_,
                      replicas[static_cast<std::size_t>(comm.rank())], x,
                      labels, ledgers[static_cast<std::size_t>(comm.rank())]);
      });

  adopt_state(replicas[0], model);
  report.seconds = watch.seconds();
  report.bytes_per_rank = stats.bytes_per_rank.empty()
                              ? 0
                              : stats.bytes_per_rank[0];
  report.total_bytes = stats.total_bytes;
  report.wire_bytes_per_rank = stats.wire_bytes_per_rank.empty()
                                   ? 0
                                   : stats.wire_bytes_per_rank[0];
  report.total_wire_bytes = stats.total_wire_bytes;
  report.sync_count = ledgers[0].syncs;
  report.compute_s = ledgers[0].compute_s;
  report.pack_s = ledgers[0].pack_s;
  report.exchange_s = ledgers[0].exchange_s;
  return report;
}

std::size_t DistributedTrainer::fit_rank(comm::Communicator& comm,
                                         Model& model,
                                         const tensor::MatrixF& x,
                                         const std::vector<int>& labels) {
  if (!model.compiled()) {
    throw std::logic_error("DistributedTrainer::fit_rank: model not compiled");
  }
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("DistributedTrainer::fit_rank: rows != labels");
  }
  if (x.rows() == 0) {
    throw std::invalid_argument("DistributedTrainer::fit_rank: empty dataset");
  }
  // Train a clone and adopt it, exactly like fit() does per rank, so the
  // multi-process path shares fit()'s state handling bit for bit.
  Model replica = clone_model(model);
  RankLedger ledger;
  train_replica(comm, options_, replica, x, labels, ledger);
  adopt_state(replica, model);
  return ledger.syncs;
}

DistributedReport fit_distributed(Model& model, const tensor::MatrixF& x,
                                  const std::vector<int>& labels,
                                  const DistributedOptions& options) {
  return DistributedTrainer(options).fit(model, x, labels);
}

}  // namespace streambrain::core
