// Tests for the comm substrate: MPI-semantics collectives over
// threads-as-ranks, determinism, byte accounting, point-to-point,
// world-poisoning fault semantics, and real multi-process transports
// (fork + shm / TCP).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <numeric>
#include <string>

#include "comm/communicator.hpp"
#include "util/rng.hpp"

// fork() inside a ThreadSanitizer'd gtest binary trips TSan's
// fork-with-threads machinery; the multi-process death tests are
// single-process-visible hangs anyway, so skip them under TSan only.
#if defined(__SANITIZE_THREAD__)
#define STREAMBRAIN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STREAMBRAIN_TSAN_BUILD 1
#endif
#endif

namespace sc = streambrain::comm;
namespace su = streambrain::util;

TEST(Comm, RunInvokesEveryRank) {
  std::vector<std::atomic<int>> visited(4);
  sc::run(4, [&](sc::Communicator& comm) {
    ++visited[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(comm.size(), 4);
  });
  for (const auto& v : visited) EXPECT_EQ(v.load(), 1);
}

TEST(Comm, RunRejectsNonPositiveSize) {
  EXPECT_THROW(sc::run(0, [](sc::Communicator&) {}), std::invalid_argument);
}

TEST(Comm, RunPropagatesRankExceptions) {
  // Unlike real MPI, a dying rank does NOT strand its peers: the failure
  // poisons the world, every blocked collective aborts with CommError,
  // and run() rethrows the original exception (see the fault-semantics
  // tests below for the collective-in-flight cases).
  EXPECT_THROW(sc::run(3,
                       [](sc::Communicator& comm) {
                         if (comm.rank() == 1) {
                           throw std::runtime_error("rank 1 failed");
                         }
                       }),
               std::runtime_error);
}

TEST(Comm, AllreduceSumFloat) {
  sc::run(4, [](sc::Communicator& comm) {
    std::vector<float> data = {static_cast<float>(comm.rank() + 1), 10.0f};
    comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    EXPECT_FLOAT_EQ(data[0], 10.0f);  // 1+2+3+4
    EXPECT_FLOAT_EQ(data[1], 40.0f);
  });
}

TEST(Comm, AllreduceMinMax) {
  sc::run(3, [](sc::Communicator& comm) {
    std::vector<double> lo = {static_cast<double>(comm.rank())};
    std::vector<double> hi = {static_cast<double>(comm.rank())};
    comm.allreduce(lo.data(), 1, sc::ReduceOp::kMin);
    comm.allreduce(hi.data(), 1, sc::ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(lo[0], 0.0);
    EXPECT_DOUBLE_EQ(hi[0], 2.0);
  });
}

TEST(Comm, AllreduceMeanAveragesContributions) {
  sc::run(5, [](sc::Communicator& comm) {
    std::vector<float> data = {static_cast<float>(10 * comm.rank())};
    comm.allreduce_mean(data.data(), 1);
    EXPECT_FLOAT_EQ(data[0], 20.0f);  // mean of 0,10,20,30,40
  });
}

TEST(Comm, AllreduceIsDeterministicAcrossRepeats) {
  // Sum of irrational-ish floats in fixed rank order must be bitwise
  // repeatable run-to-run (this is what makes distributed BCPNN training
  // deterministic).
  std::vector<float> first;
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::vector<float> result(8);
    sc::run(4, [&](sc::Communicator& comm) {
      su::Rng rng(1000 + comm.rank());
      std::vector<float> data(8);
      for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
      if (comm.rank() == 0) result = data;
    });
    if (repeat == 0) {
      first = result;
    } else {
      for (std::size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i], first[i]);  // bitwise
      }
    }
  }
}

TEST(Comm, AllRanksGetIdenticalAllreduceResult) {
  std::vector<std::vector<float>> per_rank(4);
  sc::run(4, [&](sc::Communicator& comm) {
    su::Rng rng(7 + comm.rank());
    std::vector<float> data(16);
    for (auto& v : data) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    per_rank[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(per_rank[0], per_rank[static_cast<std::size_t>(r)]);
  }
}

TEST(Comm, BroadcastFromEveryRoot) {
  for (int root = 0; root < 3; ++root) {
    sc::run(3, [root](sc::Communicator& comm) {
      std::vector<float> data(4, comm.rank() == root ? 42.0f : -1.0f);
      comm.broadcast(data.data(), data.size(), root);
      for (float v : data) EXPECT_FLOAT_EQ(v, 42.0f);
    });
  }
}

TEST(Comm, AllgatherConcatenatesInRankOrder) {
  sc::run(4, [](sc::Communicator& comm) {
    const float mine[2] = {static_cast<float>(comm.rank()),
                           static_cast<float>(comm.rank() * 10)};
    std::vector<float> all(8);
    comm.allgather(mine, 2, all.data());
    for (int r = 0; r < 4; ++r) {
      EXPECT_FLOAT_EQ(all[static_cast<std::size_t>(2 * r)], r);
      EXPECT_FLOAT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * 10);
    }
  });
}

TEST(Comm, GatherCollectsOnRootOnly) {
  for (int root = 0; root < 3; ++root) {
    sc::run(3, [root](sc::Communicator& comm) {
      const float mine = static_cast<float>(100 + comm.rank());
      std::vector<float> out(3, -1.0f);
      comm.gather(&mine, 1, out.data(), root);
      if (comm.rank() == root) {
        EXPECT_FLOAT_EQ(out[0], 100.0f);
        EXPECT_FLOAT_EQ(out[1], 101.0f);
        EXPECT_FLOAT_EQ(out[2], 102.0f);
      } else {
        EXPECT_FLOAT_EQ(out[0], -1.0f);  // untouched off-root
      }
    });
  }
}

TEST(Comm, ScatterDistributesBlocks) {
  sc::run(4, [](sc::Communicator& comm) {
    std::vector<float> source;
    if (comm.rank() == 2) {
      for (int i = 0; i < 8; ++i) source.push_back(static_cast<float>(i));
    } else {
      source.assign(8, -1.0f);  // non-root buffers are ignored
    }
    float mine[2] = {};
    comm.scatter(source.data(), 2, mine, /*root=*/2);
    EXPECT_FLOAT_EQ(mine[0], static_cast<float>(2 * comm.rank()));
    EXPECT_FLOAT_EQ(mine[1], static_cast<float>(2 * comm.rank() + 1));
  });
}

TEST(Comm, ReduceScatterSumsAndSplits) {
  sc::run(3, [](sc::Communicator& comm) {
    // Every rank contributes [rank, rank, ..., rank] of length 6.
    std::vector<float> contribution(6, static_cast<float>(comm.rank() + 1));
    float mine[2] = {};
    comm.reduce_scatter(contribution.data(), 2, mine);
    // Sum across ranks = 1+2+3 = 6 in every slot; each rank gets 2 slots.
    EXPECT_FLOAT_EQ(mine[0], 6.0f);
    EXPECT_FLOAT_EQ(mine[1], 6.0f);
  });
}

TEST(Comm, ReduceScatterMatchesAllreducePlusSlice) {
  sc::run(4, [](sc::Communicator& comm) {
    su::Rng rng(500 + comm.rank());
    std::vector<float> data(12);
    for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> reference = data;
    comm.allreduce(reference.data(), reference.size(), sc::ReduceOp::kSum);
    float mine[3] = {};
    comm.reduce_scatter(data.data(), 3, mine);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_FLOAT_EQ(mine[i],
                      reference[static_cast<std::size_t>(comm.rank()) * 3 + i]);
    }
  });
}

TEST(Comm, SendRecvPointToPoint) {
  sc::run(2, [](sc::Communicator& comm) {
    if (comm.rank() == 0) {
      const float payload[3] = {1.0f, 2.0f, 3.0f};
      comm.send(payload, 3, 1, 7);
    } else {
      float received[3] = {};
      comm.recv(received, 3, 0, 7);
      EXPECT_FLOAT_EQ(received[0], 1.0f);
      EXPECT_FLOAT_EQ(received[2], 3.0f);
    }
  });
}

TEST(Comm, SendRecvTagsAreIndependentChannels) {
  sc::run(2, [](sc::Communicator& comm) {
    if (comm.rank() == 0) {
      const float a = 1.0f;
      const float b = 2.0f;
      comm.send(&a, 1, 1, /*tag=*/100);
      comm.send(&b, 1, 1, /*tag=*/200);
    } else {
      float b = 0.0f;
      float a = 0.0f;
      comm.recv(&b, 1, 0, 200);  // out of send order, matched by tag
      comm.recv(&a, 1, 0, 100);
      EXPECT_FLOAT_EQ(a, 1.0f);
      EXPECT_FLOAT_EQ(b, 2.0f);
    }
  });
}

TEST(Comm, RecvSizeMismatchThrows) {
  EXPECT_THROW(sc::run(2,
                       [](sc::Communicator& comm) {
                         if (comm.rank() == 0) {
                           const float v = 1.0f;
                           comm.send(&v, 1, 1, 0);
                         } else {
                           float two[2];
                           comm.recv(two, 2, 0, 0);
                         }
                       }),
               std::runtime_error);
}

TEST(Comm, ByteAccountingGrowsWithTraffic) {
  std::uint64_t bytes_small = 0;
  std::uint64_t bytes_large = 0;
  sc::run(4, [&](sc::Communicator& comm) {
    std::vector<float> small(10, 1.0f);
    comm.allreduce(small.data(), small.size(), sc::ReduceOp::kSum);
    if (comm.rank() == 0) bytes_small = comm.bytes_sent();
  });
  sc::run(4, [&](sc::Communicator& comm) {
    std::vector<float> large(1000, 1.0f);
    comm.allreduce(large.data(), large.size(), sc::ReduceOp::kSum);
    if (comm.rank() == 0) bytes_large = comm.bytes_sent();
  });
  EXPECT_GT(bytes_large, bytes_small * 50);
}

TEST(Comm, SingleRankCollectivesAreLocal) {
  sc::run(1, [](sc::Communicator& comm) {
    std::vector<float> data = {3.0f};
    comm.allreduce_mean(data.data(), 1);
    EXPECT_FLOAT_EQ(data[0], 3.0f);
    comm.broadcast(data.data(), 1, 0);
    EXPECT_FLOAT_EQ(data[0], 3.0f);
    comm.barrier();
  });
}

TEST(Comm, ManyBarriersDoNotDeadlock) {
  sc::run(6, [](sc::Communicator& comm) {
    for (int i = 0; i < 200; ++i) comm.barrier();
  });
  SUCCEED();
}

// --- Fault semantics: rank failures must never hang the world ---------------

TEST(Comm, RankExceptionBeforeBarrierPoisonsWorldAndReturns) {
  // The original bug: rank 1 dies before the barrier, ranks 0 and 2 are
  // already inside it, and run() never returns. Now the failure poisons
  // the world: the barrier aborts with CommError naming rank 1 on every
  // survivor, and run() rethrows rank 1's original exception.
  std::atomic<int> survivors_aborted{0};
  try {
    sc::run(3, [&](sc::Communicator& comm) {
      if (comm.rank() == 1) {
        throw std::runtime_error("rank 1 failed before the barrier");
      }
      try {
        comm.barrier();
      } catch (const sc::CommError& error) {
        EXPECT_EQ(error.failed_rank(), 1);
        EXPECT_NE(std::string(error.what()).find("rank 1"), std::string::npos);
        ++survivors_aborted;
        throw;
      }
    });
    FAIL() << "run() swallowed the rank failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "rank 1 failed before the barrier");
  }
  EXPECT_EQ(survivors_aborted.load(), 2);
}

TEST(Comm, NegativeUserTagsAreRejected) {
  // Negative tags are reserved for the transports' internal traffic
  // (collective payloads, barrier tokens); user code must not forge them.
  sc::run(2, [](sc::Communicator& comm) {
    float v = 0.0f;
    EXPECT_THROW(comm.send(&v, 1, /*dest=*/1 - comm.rank(), /*tag=*/-1),
                 std::invalid_argument);
    EXPECT_THROW(comm.recv(&v, 1, /*source=*/1 - comm.rank(), /*tag=*/-2),
                 std::invalid_argument);
  });
}

TEST(Comm, OutOfRangePeersAreRejected) {
  sc::run(2, [](sc::Communicator& comm) {
    float v = 0.0f;
    EXPECT_THROW(comm.send(&v, 1, /*dest=*/2, /*tag=*/0),
                 std::invalid_argument);
    EXPECT_THROW(comm.recv(&v, 1, /*source=*/-1, /*tag=*/0),
                 std::invalid_argument);
  });
}

// --- Real multi-process transports (fork + shm / TCP) -----------------------

#ifndef STREAMBRAIN_TSAN_BUILD

namespace {

/// Bind port 0 on loopback and return the kernel-assigned port.
int pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = static_cast<int>(ntohs(addr.sin_port));
  ::close(fd);
  return port;
}

}  // namespace

TEST(Comm, ShmTwoProcessAllreduce) {
  sc::TransportOptions options;
  options.backend = sc::Backend::kShm;
  options.world = 2;
  options.session = "sb_test_shm_" + std::to_string(::getpid());
  options.op_timeout_ms = 20000;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = rank 1: contribute and verify; any failure exits nonzero.
    options.rank = 1;
    int code = 1;
    try {
      sc::Endpoint endpoint(options);
      std::vector<float> data = {1.0f, 10.0f};
      endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
      code = (data[0] == 2.0f && data[1] == 30.0f) ? 0 : 2;
    } catch (...) {
    }
    std::_Exit(code);
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data = {1.0f, 20.0f};
  endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
  EXPECT_FLOAT_EQ(data[0], 2.0f);
  EXPECT_FLOAT_EQ(data[1], 30.0f);
  EXPECT_GT(endpoint.comm().wire_bytes_sent(),
            endpoint.comm().bytes_sent());  // frame headers on a real wire
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(Comm, ShmPeerProcessDeathPoisonsSurvivor) {
  sc::TransportOptions options;
  options.backend = sc::Backend::kShm;
  options.world = 2;
  options.session = "sb_test_shm_death_" + std::to_string(::getpid());
  options.op_timeout_ms = 1500;  // the survivor's escape hatch

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = rank 1: join the world, then die without a word.
    options.rank = 1;
    try {
      sc::Endpoint endpoint(options);
    } catch (...) {
      std::_Exit(1);
    }
    std::_Exit(0);
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data(16, 1.0f);
  try {
    endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    FAIL() << "allreduce with a dead shm peer did not fail";
  } catch (const sc::CommError& error) {
    EXPECT_EQ(error.failed_rank(), 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
}

TEST(Comm, TcpTwoProcessAllreduce) {
  sc::TransportOptions options;
  options.backend = sc::Backend::kTcp;
  options.world = 2;
  options.ports = {pick_free_port(), pick_free_port()};
  options.connect_timeout_ms = 20000;
  options.op_timeout_ms = 20000;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    options.rank = 1;
    int code = 1;
    try {
      sc::Endpoint endpoint(options);
      std::vector<float> data = {3.0f};
      endpoint.comm().allreduce(data.data(), 1, sc::ReduceOp::kSum);
      code = data[0] == 7.0f ? 0 : 2;
    } catch (...) {
    }
    std::_Exit(code);
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data = {4.0f};
  endpoint.comm().allreduce(data.data(), 1, sc::ReduceOp::kSum);
  EXPECT_FLOAT_EQ(data[0], 7.0f);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(Comm, TcpPeerProcessDeathPoisonsSurvivor) {
  // The killed peer's sockets close, the survivor reads EOF the moment
  // it needs that rank, and the op aborts with CommError — no waiting
  // for the op timeout.
  sc::TransportOptions options;
  options.backend = sc::Backend::kTcp;
  options.world = 2;
  options.ports = {pick_free_port(), pick_free_port()};
  options.connect_timeout_ms = 20000;
  options.op_timeout_ms = 20000;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    options.rank = 1;
    try {
      sc::Endpoint endpoint(options);
    } catch (...) {
      std::_Exit(1);
    }
    std::_Exit(0);  // sockets close; rank 0 sees EOF mid-collective
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data(16, 1.0f);
  try {
    endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    FAIL() << "allreduce with a dead tcp peer did not fail";
  } catch (const sc::CommError& error) {
    EXPECT_EQ(error.failed_rank(), 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
}

#endif  // !STREAMBRAIN_TSAN_BUILD
