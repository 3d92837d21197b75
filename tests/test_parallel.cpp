// Tests for src/parallel: thread pool, for_blocks, and cross-engine
// agreement of the BCPNN compute primitives (every engine must produce
// the same numbers as the naive reference, to float tolerance).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/engine_registry.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

// --------------------------------------------------------- thread pool ----

TEST(ThreadPool, ExecutesSubmittedTasks) {
  sp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  sp::ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  sp::ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  sp::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  sp::ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

// ---------------------------------------------------------- for_blocks ----

TEST(ForBlocks, CoversEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 31u, 321u}) {
    std::vector<std::atomic<int>> hits(n);
    sp::for_blocks(n, 4, [&](std::size_t lo, std::size_t hi) {
      EXPECT_LT(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ForBlocks, ExceptionFromALaterBlockReachesTheCaller) {
  sp::global_pool().grow(2);
  if (std::min(sp::global_pool().size(), sp::max_compute_tasks()) < 2) {
    GTEST_SKIP() << "compute fan-out is pinned to one task";
  }
  std::atomic<int> blocks{0};
  EXPECT_THROW(sp::for_blocks(64, 1,
                              [&](std::size_t lo, std::size_t) {
                                ++blocks;
                                if (lo != 0) throw std::runtime_error("late");
                              }),
               std::runtime_error);
  EXPECT_GE(blocks.load(), 2);
}

TEST(ForBlocks, CallerRunsTheBlocksNoWorkerHasStarted) {
  sp::ThreadPool& pool = sp::global_pool();
  pool.grow(2);
  if (std::min(pool.size(), sp::max_compute_tasks()) < 2) {
    GTEST_SKIP() << "compute fan-out is pinned to one task";
  }
  // Hold every worker, as a busy host might, until for_blocks is done.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<std::size_t> holding{0};
  const std::size_t workers = pool.size();
  for (std::size_t w = 0; w < workers; ++w) {
    pool.post([&holding, released] {
      ++holding;
      released.wait_for(std::chrono::seconds(30));
    });
  }
  while (holding.load() < workers) std::this_thread::yield();

  const auto caller = std::this_thread::get_id();
  std::atomic<bool> all_on_caller{true};
  std::vector<int> hits(321, 0);
  const auto start = std::chrono::steady_clock::now();
  sp::for_blocks(hits.size(), 4, [&](std::size_t lo, std::size_t hi) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  release.set_value();
  pool.wait_idle();

  EXPECT_TRUE(all_on_caller.load());
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  for (const int hit : hits) EXPECT_EQ(hit, 1);
}

TEST(ForBlocks, RunsAsOneInlineBlockOnAPoolWorker) {
  const std::size_t n = 321;
  const auto blocks =
      sp::global_pool()
          .submit([n] {
            std::vector<std::pair<std::size_t, std::size_t>> seen;
            sp::for_blocks(n, 1, [&](std::size_t lo, std::size_t hi) {
              seen.emplace_back(lo, hi);
            });
            return seen;
          })
          .get();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], std::make_pair(std::size_t{0}, n));
}

// ------------------------------------------------------------- engines ----

namespace {

struct EngineFixture {
  std::size_t batch = 13;
  std::size_t n_in = 30;    // 3 hypercolumns x 10 bins
  std::size_t n_out = 12;   // 3 HCUs x 4 MCUs
  std::size_t mcus = 4;
  st::MatrixF x;
  st::MatrixF w;
  std::vector<float> bias;
  st::MatrixF a;

  EngineFixture() {
    su::Rng rng(2024);
    x = st::MatrixF(batch, n_in, 0.0f);
    // One-hot inputs: one active unit per input hypercolumn of 10.
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t hc = 0; hc < 3; ++hc) {
        x(r, hc * 10 + rng.uniform_index(10)) = 1.0f;
      }
    }
    w = st::MatrixF(n_in, n_out);
    for (float& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    bias.resize(n_out);
    for (float& v : bias) v = static_cast<float>(rng.uniform(-0.2, 0.2));
    a = st::MatrixF(batch, n_out);
    for (float& v : a) v = static_cast<float>(rng.uniform(0.0, 1.0));
  }
};

}  // namespace

class EngineAgreement : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineAgreement, SupportMatchesNaive) {
  EngineFixture fx;
  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create(GetParam());
  st::MatrixF s_ref;
  st::MatrixF s;
  reference->support(fx.x, fx.w, fx.bias.data(), s_ref);
  engine->support(fx.x, fx.w, fx.bias.data(), s);
  ASSERT_EQ(s.rows(), s_ref.rows());
  ASSERT_EQ(s.cols(), s_ref.cols());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s.data()[i], s_ref.data()[i], 1e-4f);
  }
}

TEST_P(EngineAgreement, SoftmaxMatchesNaive) {
  EngineFixture fx;
  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create(GetParam());
  st::MatrixF s_ref = fx.a;
  st::MatrixF s = fx.a;
  reference->softmax_hcu(s_ref, fx.mcus, 1.5f);
  engine->softmax_hcu(s, fx.mcus, 1.5f);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s.data()[i], s_ref.data()[i], 1e-5f);
  }
}

TEST_P(EngineAgreement, TraceUpdateMatchesNaive) {
  EngineFixture fx;
  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create(GetParam());
  std::vector<float> pi_ref(fx.n_in, 0.1f);
  std::vector<float> pj_ref(fx.n_out, 0.25f);
  st::MatrixF pij_ref(fx.n_in, fx.n_out, 0.025f);
  auto pi = pi_ref;
  auto pj = pj_ref;
  st::MatrixF pij = pij_ref;
  reference->update_traces(fx.x, fx.a, 0.07f, pi_ref.data(), pj_ref.data(),
                           pij_ref);
  engine->update_traces(fx.x, fx.a, 0.07f, pi.data(), pj.data(), pij);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(pi[i], pi_ref[i], 1e-5f);
  }
  for (std::size_t j = 0; j < pj.size(); ++j) {
    EXPECT_NEAR(pj[j], pj_ref[j], 1e-5f);
  }
  for (std::size_t i = 0; i < pij.size(); ++i) {
    EXPECT_NEAR(pij.data()[i], pij_ref.data()[i], 1e-5f);
  }
}

TEST_P(EngineAgreement, WeightRecomputeMatchesNaive) {
  EngineFixture fx;
  su::Rng rng(5);
  std::vector<float> pi(fx.n_in);
  std::vector<float> pj(fx.n_out);
  st::MatrixF pij(fx.n_in, fx.n_out);
  for (auto& v : pi) v = static_cast<float>(rng.uniform(0.0, 0.3));
  for (auto& v : pj) v = static_cast<float>(rng.uniform(0.0, 0.3));
  for (auto& v : pij) v = static_cast<float>(rng.uniform(0.0, 0.1));

  auto reference = sp::EngineRegistry::instance().create("naive");
  auto engine = sp::EngineRegistry::instance().create(GetParam());
  st::MatrixF w_ref;
  st::MatrixF w;
  std::vector<float> b_ref(fx.n_out);
  std::vector<float> b(fx.n_out);
  reference->recompute_weights(pi.data(), pj.data(), pij, 1e-4f, 1.0f, w_ref,
                               b_ref.data());
  engine->recompute_weights(pi.data(), pj.data(), pij, 1e-4f, 1.0f, w,
                            b.data());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w.data()[i], w_ref.data()[i],
                1e-4f * (1.0f + std::abs(w_ref.data()[i])));
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_NEAR(b[j], b_ref[j], 1e-4f * (1.0f + std::abs(b_ref[j])));
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineAgreement,
                         ::testing::Values("simd", "device_sim"));

TEST(Engines, FactoryRejectsUnknownName) {
  EXPECT_THROW((void)sp::EngineRegistry::instance().create("cuda"),
               std::invalid_argument);
}

TEST(Engines, AllRegisteredNamesConstruct) {
  for (const auto& name : sp::EngineRegistry::instance().names()) {
    const auto engine = sp::EngineRegistry::instance().create(name);
    EXPECT_EQ(engine->name(), name);
  }
}

TEST(Engines, HostEnginesReportZeroTransfers) {
  EngineFixture fx;
  for (const std::string name : {"naive", "simd"}) {
    auto engine = sp::EngineRegistry::instance().create(name);
    st::MatrixF s;
    engine->support(fx.x, fx.w, fx.bias.data(), s);
    EXPECT_EQ(engine->transfer_bytes(), 0u) << name;
  }
}

TEST(Engines, DeviceSimAccountsTransfers) {
  EngineFixture fx;
  auto engine = sp::EngineRegistry::instance().create("device_sim");
  st::MatrixF s;
  engine->support(fx.x, fx.w, fx.bias.data(), s);
  const std::uint64_t expected =
      (fx.x.size() + fx.batch * fx.n_out) * sizeof(float);
  EXPECT_EQ(engine->transfer_bytes(), expected);
  // Device-side ops move nothing further.
  engine->softmax_hcu(s, fx.mcus, 1.0f);
  std::vector<float> pi(fx.n_in, 0.1f);
  std::vector<float> pj(fx.n_out, 0.1f);
  st::MatrixF pij(fx.n_in, fx.n_out, 0.01f);
  engine->update_traces(fx.x, fx.a, 0.1f, pi.data(), pj.data(), pij);
  EXPECT_EQ(engine->transfer_bytes(), expected);
}

TEST(Engines, SoftmaxRejectsBadBlocks) {
  for (const auto& name : sp::EngineRegistry::instance().names()) {
    auto engine = sp::EngineRegistry::instance().create(name);
    st::MatrixF s(2, 5);
    EXPECT_THROW(engine->softmax_hcu(s, 2, 1.0f), std::invalid_argument)
        << name;
  }
}
