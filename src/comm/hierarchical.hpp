#pragma once
// Hierarchical (two-level) collectives: ranks on one host reduce over
// shared memory, one leader per host exchanges over the TCP ring, and
// the result fans back out intra-host. This is the topology a real
// multi-host BCPNN deployment uses — the expensive wire only carries one
// contribution per host instead of one per rank, so inter-host traffic
// shrinks by a factor of ranks_per_host.
//
// Exactness: the hierarchical sum associates (intra-host first, then
// across hosts), which differs from a global flat reduction by floating-
// point rounding in general — but is exact for min/max and for
// zero-padded payloads whose ranks fill disjoint slots, since every
// addition is then x + 0.

#include <cstddef>
#include <functional>

#include "comm/communicator.hpp"

namespace streambrain::comm {

struct HierarchicalOptions {
  int hosts = 2;
  int ranks_per_host = 2;
  /// Inter-host allreduce algorithm (the intra-host stage is always the
  /// deterministic flat reduction).
  AllreduceAlgorithm inter_algorithm = AllreduceAlgorithm::kRing;
  /// Seeds timeouts for both the shm worlds and the leader TCP mesh.
  TransportOptions base;
};

/// One global rank's view of a two-level world: an intra-host shm
/// communicator shared by the host's ranks, plus (leaders only) an
/// inter-host TCP communicator. Valid only inside run_hierarchical().
class HierarchicalComm {
 public:
  HierarchicalComm(Communicator& intra, Communicator* inter, int host,
                   int hosts)
      : intra_(&intra), inter_(inter), host_(host), hosts_(hosts) {}

  [[nodiscard]] int host() const noexcept { return host_; }
  [[nodiscard]] int hosts() const noexcept { return hosts_; }
  [[nodiscard]] int local_rank() const noexcept { return intra_->rank(); }
  [[nodiscard]] int ranks_per_host() const noexcept { return intra_->size(); }
  [[nodiscard]] int global_rank() const noexcept {
    return host_ * intra_->size() + intra_->rank();
  }
  [[nodiscard]] int world() const noexcept { return hosts_ * intra_->size(); }
  [[nodiscard]] bool is_leader() const noexcept { return inter_ != nullptr; }

  /// The intra-host (shm) communicator; every rank has one.
  [[nodiscard]] Communicator& intra() noexcept { return *intra_; }
  /// The inter-host (tcp) communicator; nullptr off the leader.
  [[nodiscard]] Communicator* inter() noexcept { return inter_; }

  /// Two-level allreduce: intra-host flat reduce (deterministic, shm),
  /// leaders allreduce across hosts (tcp, `inter_algorithm`), intra-host
  /// broadcast of the global result.
  void allreduce(float* data, std::size_t count, ReduceOp op,
                 AllreduceAlgorithm inter_algorithm = AllreduceAlgorithm::kRing);

  /// allreduce(kSum) divided by the global world size.
  void allreduce_mean(float* data, std::size_t count);

  /// Synchronize every rank on every host.
  void barrier();

 private:
  Communicator* intra_;
  Communicator* inter_;
  int host_;
  int hosts_;
};

/// Spawn hosts*ranks_per_host rank threads over real shm segments (one
/// per simulated host) and a real TCP loopback mesh between the leaders,
/// run `body` on each global rank, join, and return byte counters indexed
/// by global rank (host-major). A rank failure poisons both levels and
/// rethrows the original exception, exactly like run_transport.
RunStats run_hierarchical(const HierarchicalOptions& options,
                          const std::function<void(HierarchicalComm&)>& body);

}  // namespace streambrain::comm
