#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <cstdlib>
#include <future>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace streambrain::parallel {

std::size_t max_compute_tasks() {
  static const std::size_t limit = [] {
    for (const char* name : {"STREAMBRAIN_THREADS", "OMP_NUM_THREADS"}) {
      if (const char* env = std::getenv(name)) {
        const long value = std::atol(env);
        if (value > 0) return static_cast<std::size_t>(value);
      }
    }
    return global_pool().size();
  }();
  return limit;
}

void for_blocks(std::size_t n, std::size_t min_per_task,
                const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  ThreadPool& pool = global_pool();
  const std::size_t max_tasks = std::max<std::size_t>(
      1, std::min({pool.size(), max_compute_tasks(),
                   n / std::max<std::size_t>(1, min_per_task)}));
  if (max_tasks <= 1 || ThreadPool::in_worker()) {
    body(0, n);
    return;
  }

  const std::size_t per_task = (n + max_tasks - 1) / max_tasks;
  std::vector<std::future<void>> tasks;
  tasks.reserve(max_tasks - 1);
  for (std::size_t lo = per_task; lo < n; lo += per_task) {
    const std::size_t hi = std::min(lo + per_task, n);
    tasks.push_back(pool.submit([&body, lo, hi] { body(lo, hi); }));
  }
  // First block on the calling thread, overlapping the pool workers. The
  // queued blocks reference `body`, so they finish before anything leaves.
  try {
    body(0, std::min(per_task, n));
  } catch (...) {
    for (auto& task : tasks) task.wait();
    throw;
  }
  for (auto& task : tasks) task.wait();
  for (auto& task : tasks) task.get();
}

}  // namespace streambrain::parallel
