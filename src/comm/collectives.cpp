// Backend-independent half of comm::: the collective algorithms, byte
// cost model, rank runners, and the transport factory. Everything here
// speaks only Transport::send/recv/barrier, so the flat/ring schedules
// (and therefore the floating-point associations and the logical byte
// charges) are identical on every backend — the property the per-backend
// conformance suite pins down.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "comm/communicator.hpp"
#include "comm/transport_internal.hpp"

namespace streambrain::comm {

const char* algorithm_name(AllreduceAlgorithm algorithm) noexcept {
  switch (algorithm) {
    case AllreduceAlgorithm::kFlat:
      return "flat";
    case AllreduceAlgorithm::kRing:
      return "ring";
  }
  return "?";
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kInProcess:
      return "inproc";
    case Backend::kShm:
      return "shm";
    case Backend::kTcp:
      return "tcp";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// PoisonState

bool PoisonState::try_set(int failed_rank, const std::string& reason) noexcept {
  const sb::MutexLock lock(mutex_);
  if (set_.load(std::memory_order_acquire)) return false;
  try {
    reason_ = reason;
  } catch (...) {
    // Allocation failure: poison with an empty reason rather than not at
    // all — fail-fast beats a descriptive hang.
  }
  failed_rank_.store(failed_rank, std::memory_order_relaxed);
  set_.store(true, std::memory_order_release);
  return true;
}

std::string PoisonState::reason() const {
  const sb::MutexLock lock(mutex_);
  return reason_;
}

// ---------------------------------------------------------------------------
// Transport base

Transport::Transport(int rank, int size, std::shared_ptr<PoisonState> poison)
    : rank_(rank), size_(size), poison_(std::move(poison)) {}

void Transport::send(int dest, int tag, const void* data, std::size_t bytes) {
  check_healthy();
  check_peer(dest, "send");
  do_send(dest, tag, data, bytes);
}

void Transport::recv(int source, int tag, void* data,
                     std::size_t expected_bytes) {
  check_healthy();
  check_peer(source, "recv");
  do_recv(source, tag, data, expected_bytes);
}

void Transport::poison(int failed_rank, const std::string& reason) noexcept {
  if (poison_->try_set(failed_rank, reason)) {
    announce_poison(failed_rank, reason);
  }
}

void Transport::throw_poisoned() const {
  const int failed = poison_->failed_rank();
  std::ostringstream msg;
  msg << "communication aborted on rank " << rank_ << ": world poisoned";
  if (failed >= 0) msg << " by rank " << failed;
  const std::string why = poison_->reason();
  if (!why.empty()) msg << ": " << why;
  throw CommError(failed, msg.str());
}

void Transport::check_healthy() const {
  if (poison_->poisoned()) throw_poisoned();
}

void Transport::check_peer(int peer, const char* op) const {
  if (peer < 0 || peer >= size_) {
    std::ostringstream msg;
    msg << op << ": peer rank " << peer << " out of range [0, " << size_
        << ")";
    throw std::invalid_argument(msg.str());
  }
}

// ---------------------------------------------------------------------------
// Environment contract (the language tools/sb_launch speaks)

namespace {

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    throw std::invalid_argument(std::string(name) + ": '" + value +
                                "' is not an integer");
  }
  return static_cast<int>(parsed);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = (comma == std::string::npos) ? text.size() : comma;
    if (end > begin) out.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

Backend parse_backend(const std::string& name) {
  if (name == "inproc") return Backend::kInProcess;
  if (name == "shm") return Backend::kShm;
  if (name == "tcp") return Backend::kTcp;
  throw std::invalid_argument("unknown comm backend '" + name +
                              "' (expected inproc, shm, or tcp)");
}

}  // namespace

TransportOptions options_from_env() {
  TransportOptions options;
  options.rank = env_int("SB_COMM_RANK", 0);
  options.world = env_int("SB_COMM_WORLD", 1);
  if (const char* backend = std::getenv("SB_COMM_BACKEND")) {
    options.backend = parse_backend(backend);
  } else {
    options.backend = Backend::kShm;
  }
  if (const char* session = std::getenv("SB_COMM_SESSION")) {
    options.session = session;
  }
  if (const char* hosts = std::getenv("SB_COMM_HOSTS")) {
    options.hosts = split_csv(hosts);
  }
  if (const char* ports = std::getenv("SB_COMM_PORTS")) {
    for (const std::string& port : split_csv(ports)) {
      std::size_t parsed = 0;
      const int value = std::stoi(port, &parsed);
      if (parsed != port.size()) {
        throw std::invalid_argument("SB_COMM_PORTS: '" + port +
                                    "' is not an integer");
      }
      options.ports.push_back(value);
    }
  }
  options.base_port = env_int("SB_COMM_BASE_PORT", options.base_port);
  options.connect_timeout_ms =
      env_int("SB_COMM_CONNECT_TIMEOUT_MS", options.connect_timeout_ms);
  options.op_timeout_ms =
      env_int("SB_COMM_OP_TIMEOUT_MS", options.op_timeout_ms);
  return options;
}

bool env_world_configured() noexcept {
  return std::getenv("SB_COMM_WORLD") != nullptr &&
         std::getenv("SB_COMM_RANK") != nullptr;
}

namespace detail {

std::string generate_session() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Factory

namespace {

std::vector<std::unique_ptr<Transport>> make_world(
    Backend backend, int size, const TransportOptions& base) {
  switch (backend) {
    case Backend::kInProcess:
      return detail::make_inproc_world(size, base);
    case Backend::kShm:
      return detail::make_shm_world(size, base);
    case Backend::kTcp:
      return detail::make_tcp_world(size, base);
  }
  throw std::invalid_argument("make_world: unknown backend");
}

}  // namespace

std::unique_ptr<Transport> make_transport(const TransportOptions& options) {
  if (options.world <= 0) {
    throw std::invalid_argument("make_transport: world size must be positive");
  }
  if (options.rank < 0 || options.rank >= options.world) {
    throw std::invalid_argument("make_transport: rank out of range");
  }
  switch (options.backend) {
    case Backend::kInProcess:
      if (options.world != 1) {
        throw std::invalid_argument(
            "make_transport: the in-process backend cannot span processes; "
            "use run()/run_transport() for threads-as-ranks worlds");
      }
      return std::move(detail::make_inproc_world(1, options)[0]);
    case Backend::kShm:
      return detail::make_shm_transport(options);
    case Backend::kTcp:
      return detail::make_tcp_transport(options);
  }
  throw std::invalid_argument("make_transport: unknown backend");
}

// ---------------------------------------------------------------------------
// Collectives

namespace {

template <typename T>
void apply_reduce(T* acc, const T* other, std::size_t count,
                  ReduceOp op) noexcept {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < count; ++i) acc[i] += other[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < count; ++i) {
        acc[i] = std::min(acc[i], other[i]);
      }
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < count; ++i) {
        acc[i] = std::max(acc[i], other[i]);
      }
      break;
  }
}

// Flat allreduce: pairwise exchange (round s: send to rank+s, receive
// from rank-s), then every rank reduces the P contributions in rank
// order into a private accumulator — rank 0's values first, so the
// result is bitwise equal to a serial left-to-right reduction and
// identical on every rank. Cost: (P-1)*n elements sent per rank.
template <typename T>
void allreduce_flat(Transport& t, T* data, std::size_t count, ReduceOp op) {
  const int rank = t.rank();
  const int size = t.size();
  if (size == 1) return;
  if (count == 0) {
    t.barrier();  // stay collective even with nothing to move
    return;
  }
  const std::size_t bytes = count * sizeof(T);
  std::vector<T> slots(static_cast<std::size_t>(size) * count);
  std::copy(data, data + count,
            slots.begin() + static_cast<std::size_t>(rank) * count);
  for (int s = 1; s < size; ++s) {
    const int dest = (rank + s) % size;
    const int src = (rank - s + size) % size;
    t.send(dest, detail::kCollTag, data, bytes);
    t.recv(src, detail::kCollTag,
           slots.data() + static_cast<std::size_t>(src) * count, bytes);
  }
  std::copy(slots.begin(), slots.begin() + count, data);
  for (int r = 1; r < size; ++r) {
    apply_reduce(data, slots.data() + static_cast<std::size_t>(r) * count,
                 count, op);
  }
  t.add_logical_bytes(static_cast<std::uint64_t>(count * sizeof(T)) *
                      static_cast<std::uint64_t>(size - 1));
}

// Ring allreduce: chunked reduce-scatter (step s: push the chunk
// accumulated last step to the next rank, fold the chunk arriving from
// the previous rank) followed by a ring allgather of the completed
// chunks. After the reduce-scatter, rank r owns the fully reduced chunk
// (r+1) mod P. The schedule is fixed, so the per-element association is
// deterministic (it differs from kFlat by rounding only). Cost:
// 2*(P-1)/P*n elements per rank.
template <typename T>
void allreduce_ring(Transport& t, T* data, std::size_t count, ReduceOp op) {
  const int rank = t.rank();
  const int size = t.size();
  if (size == 1) return;
  const int next = (rank + 1) % size;
  const int prev = (rank - 1 + size) % size;
  const auto chunk_begin = [count, size](int c) {
    return count * static_cast<std::size_t>(c) / static_cast<std::size_t>(size);
  };
  const auto wrap = [size](int c) { return ((c % size) + size) % size; };

  std::vector<T> work(data, data + count);
  std::vector<T> incoming(count);

  for (int s = 1; s < size; ++s) {
    const int send_chunk = wrap(rank - s + 1);
    const int recv_chunk = wrap(rank - s);
    const std::size_t s0 = chunk_begin(send_chunk);
    const std::size_t s1 = chunk_begin(send_chunk + 1);
    const std::size_t r0 = chunk_begin(recv_chunk);
    const std::size_t r1 = chunk_begin(recv_chunk + 1);
    if (s1 > s0) {
      t.send(next, detail::kCollTag, work.data() + s0, (s1 - s0) * sizeof(T));
    }
    if (r1 > r0) {
      t.recv(prev, detail::kCollTag, incoming.data(), (r1 - r0) * sizeof(T));
      apply_reduce(work.data() + r0, incoming.data(), r1 - r0, op);
    }
  }
  for (int s = 1; s < size; ++s) {
    const int send_chunk = wrap(rank + 2 - s);
    const int recv_chunk = wrap(rank + 1 - s);
    const std::size_t s0 = chunk_begin(send_chunk);
    const std::size_t s1 = chunk_begin(send_chunk + 1);
    const std::size_t r0 = chunk_begin(recv_chunk);
    const std::size_t r1 = chunk_begin(recv_chunk + 1);
    if (s1 > s0) {
      t.send(next, detail::kCollTag, work.data() + s0, (s1 - s0) * sizeof(T));
    }
    if (r1 > r0) {
      t.recv(prev, detail::kCollTag, work.data() + r0, (r1 - r0) * sizeof(T));
    }
  }
  std::copy(work.begin(), work.end(), data);

  t.add_logical_bytes(static_cast<std::uint64_t>(
      2.0 * (size - 1) / static_cast<double>(size) *
      static_cast<double>(count * sizeof(T))));
}

}  // namespace

void Communicator::barrier() { transport_->barrier(); }

template <typename T>
void Communicator::allreduce_dispatch(T* data, std::size_t count, ReduceOp op,
                                      AllreduceAlgorithm algorithm) {
  if (algorithm == AllreduceAlgorithm::kRing) {
    allreduce_ring(*transport_, data, count, op);
  } else {
    allreduce_flat(*transport_, data, count, op);
  }
}

void Communicator::allreduce(float* data, std::size_t count, ReduceOp op,
                             AllreduceAlgorithm algorithm) {
  allreduce_dispatch(data, count, op, algorithm);
}

void Communicator::allreduce(double* data, std::size_t count, ReduceOp op,
                             AllreduceAlgorithm algorithm) {
  allreduce_dispatch(data, count, op, algorithm);
}

void Communicator::allreduce(std::uint64_t* data, std::size_t count,
                             ReduceOp op, AllreduceAlgorithm algorithm) {
  allreduce_dispatch(data, count, op, algorithm);
}

void Communicator::allreduce_mean(float* data, std::size_t count,
                                  AllreduceAlgorithm algorithm) {
  allreduce(data, count, ReduceOp::kSum, algorithm);
  const float inv = 1.0f / static_cast<float>(size());
  for (std::size_t i = 0; i < count; ++i) data[i] *= inv;
}

void Communicator::allreduce_mean(double* data, std::size_t count,
                                  AllreduceAlgorithm algorithm) {
  allreduce(data, count, ReduceOp::kSum, algorithm);
  const double inv = 1.0 / static_cast<double>(size());
  for (std::size_t i = 0; i < count; ++i) data[i] *= inv;
}

void Communicator::broadcast(float* data, std::size_t count, int root) {
  const int rank = this->rank();
  const int size = this->size();
  if (size == 1 || count == 0) return;
  const std::size_t bytes = count * sizeof(float);
  if (rank == root) {
    for (int r = 0; r < size; ++r) {
      if (r != root) transport_->send(r, detail::kCollTag, data, bytes);
    }
    transport_->add_logical_bytes(static_cast<std::uint64_t>(bytes) *
                                  static_cast<std::uint64_t>(size - 1));
  } else {
    transport_->recv(root, detail::kCollTag, data, bytes);
  }
}

void Communicator::allgather(const float* data, std::size_t count,
                             float* out) {
  const int rank = this->rank();
  const int size = this->size();
  if (count == 0) return;
  std::copy(data, data + count, out + static_cast<std::size_t>(rank) * count);
  const std::size_t bytes = count * sizeof(float);
  for (int s = 1; s < size; ++s) {
    const int dest = (rank + s) % size;
    const int src = (rank - s + size) % size;
    transport_->send(dest, detail::kCollTag, data, bytes);
    transport_->recv(src, detail::kCollTag,
                     out + static_cast<std::size_t>(src) * count, bytes);
  }
  transport_->add_logical_bytes(static_cast<std::uint64_t>(bytes) *
                                static_cast<std::uint64_t>(size - 1));
}

void Communicator::gather(const float* data, std::size_t count, float* out,
                          int root) {
  const int rank = this->rank();
  const int size = this->size();
  if (count == 0) return;
  const std::size_t bytes = count * sizeof(float);
  if (rank == root) {
    std::copy(data, data + count,
              out + static_cast<std::size_t>(root) * count);
    for (int r = 0; r < size; ++r) {
      if (r == root) continue;
      transport_->recv(r, detail::kCollTag,
                       out + static_cast<std::size_t>(r) * count, bytes);
    }
  } else {
    transport_->send(root, detail::kCollTag, data, bytes);
    transport_->add_logical_bytes(bytes);
  }
}

void Communicator::scatter(const float* data, std::size_t count, float* out,
                           int root) {
  const int rank = this->rank();
  const int size = this->size();
  if (count == 0) return;
  const std::size_t bytes = count * sizeof(float);
  if (rank == root) {
    for (int r = 0; r < size; ++r) {
      if (r == root) continue;
      transport_->send(r, detail::kCollTag,
                       data + static_cast<std::size_t>(r) * count, bytes);
    }
    std::copy(data + static_cast<std::size_t>(root) * count,
              data + static_cast<std::size_t>(root + 1) * count, out);
    transport_->add_logical_bytes(static_cast<std::uint64_t>(bytes) *
                                  static_cast<std::uint64_t>(size - 1));
  } else {
    transport_->recv(root, detail::kCollTag, out, bytes);
  }
}

void Communicator::reduce_scatter(const float* data, std::size_t count,
                                  float* out) {
  const int rank = this->rank();
  const int size = this->size();
  if (count == 0) return;
  if (size == 1) {
    std::copy(data, data + count, out);
    return;
  }
  const std::size_t bytes = count * sizeof(float);
  // All-to-all of destination blocks, then every rank reduces its own
  // block in rank order (deterministic, rank 0's values first — the same
  // association as allreduce-then-slice).
  std::vector<float> slots(static_cast<std::size_t>(size) * count);
  std::copy(data + static_cast<std::size_t>(rank) * count,
            data + static_cast<std::size_t>(rank + 1) * count,
            slots.begin() + static_cast<std::size_t>(rank) * count);
  for (int s = 1; s < size; ++s) {
    const int dest = (rank + s) % size;
    const int src = (rank - s + size) % size;
    transport_->send(dest, detail::kCollTag,
                     data + static_cast<std::size_t>(dest) * count, bytes);
    transport_->recv(src, detail::kCollTag,
                     slots.data() + static_cast<std::size_t>(src) * count,
                     bytes);
  }
  std::copy(slots.begin(), slots.begin() + count, out);
  for (int r = 1; r < size; ++r) {
    const float* block = slots.data() + static_cast<std::size_t>(r) * count;
    for (std::size_t i = 0; i < count; ++i) out[i] += block[i];
  }
  transport_->add_logical_bytes(static_cast<std::uint64_t>(
      static_cast<double>(size - 1) / size * static_cast<double>(count) *
      static_cast<double>(size) * sizeof(float)));
}

void Communicator::send(const float* data, std::size_t count, int dest,
                        int tag) {
  if (tag < 0) {
    throw std::invalid_argument(
        "send: user tags must be non-negative (negative tags are reserved "
        "for collectives)");
  }
  transport_->send(dest, tag, data, count * sizeof(float));
  transport_->add_logical_bytes(
      static_cast<std::uint64_t>(count * sizeof(float)));
}

void Communicator::recv(float* data, std::size_t count, int source, int tag) {
  if (tag < 0) {
    throw std::invalid_argument(
        "recv: user tags must be non-negative (negative tags are reserved "
        "for collectives)");
  }
  transport_->recv(source, tag, data, count * sizeof(float));
}

// ---------------------------------------------------------------------------
// Runners

RunStats run_transport(Backend backend, int size,
                       const std::function<void(Communicator&)>& body,
                       const TransportOptions& base) {
  if (size <= 0) {
    throw std::invalid_argument("comm::run: world size must be positive");
  }
  auto ranks = make_world(backend, size, base);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size));
  threads.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    Transport* transport = ranks[static_cast<std::size_t>(r)].get();
    threads.emplace_back([transport, &body, &errors, r] {
      try {
        transport->establish();
        Communicator comm(*transport);
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        std::string reason = "rank " + std::to_string(r) + " failed: ";
        try {
          throw;
        } catch (const std::exception& e) {
          reason += e.what();
        } catch (...) {
          reason += "unknown exception";
        }
        // Poisoning wakes every peer blocked in a collective; they abort
        // with CommError, so join() below always returns.
        transport->poison(r, reason);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Surface the origin failure, not a survivor's secondary CommError: the
  // poison record names the first rank to fail, and its own exception is
  // the one worth reading.
  const int origin = ranks.front()->poisoned_rank();
  if (origin >= 0 && origin < size && errors[static_cast<std::size_t>(origin)]) {
    std::rethrow_exception(errors[static_cast<std::size_t>(origin)]);
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  if (ranks.front()->poisoned()) {
    // Poisoned without any rank throwing (e.g. a pending Request dropped
    // by a body that then returned normally).
    ranks.front()->throw_poisoned();
  }

  RunStats stats;
  stats.bytes_per_rank.reserve(static_cast<std::size_t>(size));
  stats.wire_bytes_per_rank.reserve(static_cast<std::size_t>(size));
  for (const auto& transport : ranks) {
    stats.bytes_per_rank.push_back(transport->logical_bytes_sent());
    stats.wire_bytes_per_rank.push_back(transport->wire_bytes_sent());
    stats.total_bytes += transport->logical_bytes_sent();
    stats.total_wire_bytes += transport->wire_bytes_sent();
  }
  return stats;
}

RunStats run_reported(int size,
                      const std::function<void(Communicator&)>& body) {
  return run_transport(Backend::kInProcess, size, body);
}

void run(int size, const std::function<void(Communicator&)>& body) {
  (void)run_transport(Backend::kInProcess, size, body);
}

// ---------------------------------------------------------------------------
// Multi-process endpoints

Endpoint::Endpoint(const TransportOptions& options)
    : transport_(make_transport(options)),
      comm_(std::make_unique<Communicator>(*transport_)) {
  transport_->establish();
}

Endpoint connect(const TransportOptions& options) { return Endpoint(options); }

Endpoint connect_env() { return connect(options_from_env()); }

}  // namespace streambrain::comm
