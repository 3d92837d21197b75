#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "parallel/thread_pool.hpp"
#include "util/annotated_mutex.hpp"

namespace streambrain::parallel {

namespace {

// Blocks per fan-out task. A worker that wakes late or loses its core
// then leaves its share to the threads that are running, instead of
// holding up the caller.
constexpr std::size_t kBlocksPerTask = 4;

// The blocks of one for_blocks call, claimed in ascending order by
// whichever thread asks next. Pool tasks share ownership, so one that
// starts after every block was claimed finds nothing to do and never
// touches `body`, which may be gone by then.
class Blocks {
 public:
  Blocks(std::size_t n, std::size_t count,
         const std::function<void(std::size_t, std::size_t)>& body)
      : n_(n), count_(count), per_block_((n + count - 1) / count),
        body_(&body) {}

  // Run blocks until none is left to claim.
  void drain() {
    for (std::size_t b = next_.fetch_add(1, std::memory_order_relaxed);
         b < count_; b = next_.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = b * per_block_;
      try {
        if (lo < n_) (*body_)(lo, std::min(lo + per_block_, n_));
      } catch (...) {
        if (!failed_.exchange(true, std::memory_order_relaxed)) {
          error_ = std::current_exception();
        }
      }
      if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
        const sb::MutexLock lock(mutex_);
        done_.notify_all();
      }
    }
  }

  // Block until every block has run, then rethrow the first exception.
  void wait() {
    if (finished_.load(std::memory_order_acquire) != count_) {
      const sb::MutexLock lock(mutex_);
      while (finished_.load(std::memory_order_acquire) != count_) {
        done_.wait(mutex_);
      }
    }
    if (failed_.load(std::memory_order_relaxed)) {
      std::rethrow_exception(error_);
    }
  }

 private:
  const std::size_t n_;
  const std::size_t count_;
  const std::size_t per_block_;
  const std::function<void(std::size_t, std::size_t)>* body_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> finished_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // set once, before its block counts finished
  sb::Mutex mutex_;
  sb::CondVar done_;
};

}  // namespace

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
  const std::size_t most_blocks = n / std::max<std::size_t>(1, min_per_task);
  const std::size_t max_tasks = std::max<std::size_t>(
      1, std::min({pool.size(), max_compute_tasks(), most_blocks}));
  if (max_tasks <= 1 || ThreadPool::in_worker()) {
    body(0, n);
    return;
  }

  const auto blocks = std::make_shared<Blocks>(
      n, std::min(most_blocks, max_tasks * kBlocksPerTask), body);
  for (std::size_t t = 1; t < max_tasks; ++t) {
    pool.post([blocks] { blocks->drain(); });
  }
  // The caller claims blocks as well, so it never waits on a block that
  // no thread has started.
  blocks->drain();
  blocks->wait();
}

}  // namespace streambrain::parallel
