#pragma once
// Data-parallel BCPNN training over the comm substrate — the pattern of
// StreamBrain's MPI backend. Because BCPNN learning is local, the only
// state that must be synchronized is the hidden layers' activations and
// probability traces; weights are recomputed locally from them, and the
// small read-out head is recomputed on every rank rather than synchronized.
// Section II-B's claim — "one can conceptually launch different BCPNN
// instances and scale horizontally without the limiting factor on
// communication" — is what bench_scaling measures with this trainer.
//
// DistributedTrainer trains *full* models (hidden BCPNN layer + BCPNN or
// SGD read-out head, and deep:: stacks) and is rank-count invariant by
// construction: every global batch is partitioned into a fixed number of
// *virtual shards* (independent of the rank count), the statistics of
// each shard are summed on their own and the shards are then added up in
// fixed shard order, and every rank applies the identical update. The
// result is bit-identical at 1, 2, 3, 4, ... ranks as long as
// `virtual_shards` stays fixed.
//
// A hidden layer is split by columns, the sub-lattice ownership of Lin &
// Zheng's parallel Swendsen-Wang: rank r owns a contiguous range of
// hidden units and keeps only their slice of p_j, p_ij, the weights and
// the bias (p_i is replicated). Per batch every rank computes and noises
// the support of its own columns for all rows, one allgather assembles
// the full support rows (the only per-batch exchange: batch x hidden
// floats in all), every rank runs the per-hypercolumn softmax on full
// rows, and then updates the traces and weights of its own columns only.
// At each epoch end one allgather of the trace slices brings every
// rank's layer up to date for structural plasticity and pruning. The
// read-out heads, whose statistics are only n_hidden x classes, are
// trained whole on every rank from the full hidden code with the same
// per-shard sums, and issue no collective at all.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "tensor/matrix.hpp"

namespace streambrain::core {

struct DistributedOptions {
  /// Rank threads when fit() runs the world itself.
  int ranks = 1;
  /// Transport the ranks communicate over. kInProcess (default) uses the
  /// original mailbox substrate; kShm and kTcp run the same schedules
  /// over a real shared-memory segment / loopback TCP mesh — results are
  /// bit-identical, only the wire (and wire_bytes accounting) changes.
  comm::Backend backend = comm::Backend::kInProcess;
  /// Fixed data decomposition width. Results are invariant to the rank
  /// count but NOT to this value; any rank count (including ranks >
  /// virtual_shards, or more ranks than hidden units) is supported. The
  /// traffic does not depend on it: only the hidden layers exchange, and
  /// per batch of b rows each rank sends its b x w support slice to the
  /// P - 1 others, with w = ceil(n_hidden / P) (narrower slices are
  /// padded), and per epoch its (1 + n_in) x w trace slice. The heads,
  /// replicated on every rank, send nothing.
  int virtual_shards = 8;
};

struct DistributedReport {
  int ranks = 1;
  comm::Backend backend = comm::Backend::kInProcess;
  double seconds = 0.0;
  std::uint64_t bytes_per_rank = 0;    ///< logical network traffic, rank 0
  std::uint64_t total_bytes = 0;       ///< true sum over all ranks
  std::uint64_t wire_bytes_per_rank = 0;  ///< bytes on the wire, rank 0
  std::uint64_t total_wire_bytes = 0;     ///< wire bytes, sum over ranks
  std::size_t sync_count = 0;          ///< hidden-layer batch exchanges, rank 0
  /// Rank 0's phase-loop wall time, split three ways (their sum is at
  /// most `seconds`, which also covers replica set-up and the forward
  /// passes between phases):
  double compute_s = 0.0;   ///< support, statistics, updates, epoch ends
  double pack_s = 0.0;      ///< grouping each batch's rows (and a head's
                            ///< targets) by shard
  double exchange_s = 0.0;  ///< collectives, waits, unpacking
};

/// Full-model data-parallel trainer. Equivalent to `model.fit(x, labels)`
/// in schedule shape (unsupervised hidden phase(s) with the same annealed
/// noise, plasticity and prune cadence, then the supervised head), but
/// sharded over `options.ranks` simulated ranks. The trained state is
/// bit-identical for every rank count.
class DistributedTrainer {
 public:
  explicit DistributedTrainer(DistributedOptions options = {});

  [[nodiscard]] const DistributedOptions& options() const noexcept {
    return options_;
  }

  /// Train `model` (compiled, shallow or deep, either head type) on the
  /// full dataset; on return the model holds the rank-synchronized state.
  DistributedReport fit(Model& model, const tensor::MatrixF& x,
                        const std::vector<int>& labels);

  /// Multi-process mode: train this process's rank of an already
  /// connected world (comm::connect_env(), as launched by
  /// tools/sb_launch). Every process passes the identically built model
  /// and the full dataset; `options().ranks` is ignored in favor of the
  /// communicator's world size. On return `model` holds the
  /// rank-synchronized state — bit-identical on every rank, and to a
  /// single-process fit() with the same options and rank count. Returns
  /// the number of hidden-layer batch exchanges this rank issued.
  std::size_t fit_rank(comm::Communicator& comm, Model& model,
                       const tensor::MatrixF& x,
                       const std::vector<int>& labels);

 private:
  DistributedOptions options_;
};

/// Convenience wrapper: DistributedTrainer(options).fit(model, x, labels).
DistributedReport fit_distributed(Model& model, const tensor::MatrixF& x,
                                  const std::vector<int>& labels,
                                  const DistributedOptions& options = {});

}  // namespace streambrain::core
