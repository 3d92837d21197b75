#pragma once
// The one parallel loop of the library. Every compute fan-out — dense
// GEMM, sparse and quantized support, softmax, weight recomputation,
// receptive-field masks, the MI map, pruning and the encoders — splits
// its range into contiguous blocks over parallel::global_pool() here.

#include <cstddef>
#include <functional>

namespace streambrain::parallel {

/// Upper bound on concurrent compute tasks for_blocks may fan out
/// (STREAMBRAIN_THREADS wins, then OMP_NUM_THREADS, then the global pool
/// size). Resolved once per process; set either variable to 1 for fully
/// serial runs.
std::size_t max_compute_tasks();

/// Invoke body(lo, hi) on contiguous blocks covering [0, n), on at most
/// min(pool size, max_compute_tasks(), n / min_per_task) threads: the
/// caller and tasks on global_pool(). There are at most four blocks per
/// thread and at most n / min_per_task blocks; each thread claims the
/// next unclaimed block until none is left, so the caller runs every block
/// that no worker has started and waits only for blocks already running.
/// Runs body(0, n) inline when one block remains or
/// when already on a pool worker (nested fan-out could deadlock a
/// single-worker pool). An exception from any block reaches the caller
/// after every block has finished. Bodies must write disjoint outputs, so
/// results never depend on the split.
void for_blocks(std::size_t n, std::size_t min_per_task,
                const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace streambrain::parallel
