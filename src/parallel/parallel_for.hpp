#pragma once
// Grain-controlled parallel loop over the ThreadPool (usable inside an
// OpenMP region, where OpenMP nesting is usually disabled).

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace streambrain::parallel {

/// Invoke body(lo, hi) on contiguous chunks of `grain` iterations on
/// `pool`; blocks until every chunk completes.
void parallel_for_pool(ThreadPool& pool, std::size_t begin, std::size_t end,
                       std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace streambrain::parallel
