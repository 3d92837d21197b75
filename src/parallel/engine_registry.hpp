#pragma once
// Open, thread-safe registry of compute engines — the one place engines
// are created by name. The three built-in engines (naive / simd /
// device_sim) self-register with capability metadata; user code can plug
// in custom engines and resolve them anywhere an engine name is accepted
// (Model::compile, NetworkConfig, the bench and example drivers):
//
//   parallel::EngineRegistry::instance().register_engine(
//       {.name = "my_engine", .description = "...", .simd_width = 8},
//       [] { return std::make_unique<MyEngine>(); });
//   model.compile("my_engine");

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "parallel/engine.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::parallel {

/// Capability metadata an engine registers alongside its factory. The
/// registry hands this to schedulers and bench drivers so they can pick
/// or describe backends without instantiating them.
struct EngineInfo {
  std::string name;         ///< registry key, unique, non-empty
  std::string description;  ///< one-line human description
  /// Logical float lanes the engine's inner loops are written for
  /// (1 = scalar). Purely descriptive; used by bench reporting.
  std::size_t simd_width = 1;
  /// True for engines that model (or run on) an offload device whose
  /// state lives across a host/device boundary.
  bool offload = false;
  /// True when Engine::transfer_bytes() reports meaningful numbers.
  bool counts_transfers = false;
  /// Kernel dispatch tier the engine's math runs on ("scalar" / "sse42"
  /// / "avx2" for engines built on tensor::KernelSet, empty for engines
  /// with their own loops). Reflects the runtime CPUID selection and the
  /// STREAMBRAIN_DISPATCH override, so it is honest per process.
  std::string dispatch;
};

class EngineRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Engine>()>;

  /// The process-wide registry, with the built-in engines pre-registered.
  static EngineRegistry& instance();

  /// Register a new engine. Throws std::invalid_argument on an empty or
  /// duplicate name.
  void register_engine(EngineInfo info, Factory factory)
      EXCLUDES(mutex_);

  /// Remove an engine (built-ins included — tests use this to restore a
  /// clean slate). Returns false when the name was not registered.
  bool unregister_engine(const std::string& name) EXCLUDES(mutex_);

  /// Instantiate an engine by name. Throws std::invalid_argument naming
  /// the unknown key and the registered set.
  [[nodiscard]] std::unique_ptr<Engine> create(const std::string& name) const
      EXCLUDES(mutex_);

  [[nodiscard]] bool contains(const std::string& name) const
      EXCLUDES(mutex_);

  /// Metadata for a registered engine; throws std::invalid_argument for
  /// unknown names.
  [[nodiscard]] EngineInfo info(const std::string& name) const
      EXCLUDES(mutex_);

  /// All registered names, in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> names() const EXCLUDES(mutex_);

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

 private:
  EngineRegistry();

  [[nodiscard]] std::string known_names_locked() const REQUIRES(mutex_);

  mutable sb::Mutex mutex_;
  std::vector<std::pair<EngineInfo, Factory>> entries_ GUARDED_BY(mutex_);
};

namespace detail {
/// Defined in engines.cpp next to the engine implementations; called once
/// by EngineRegistry's constructor so the built-ins are always present no
/// matter which translation units the linker kept.
void register_builtin_engines(EngineRegistry& registry);
}  // namespace detail

}  // namespace streambrain::parallel
