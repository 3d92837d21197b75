// EngineRegistry: the three built-ins must be pre-registered with sane
// capability metadata, unknown names must fail loudly, and a custom
// engine registered at runtime must be resolvable everywhere an engine
// name is accepted — including training a Model end-to-end through it.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/model.hpp"
#include "core/serialization.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/kernel_set.hpp"

namespace sp = streambrain::parallel;
namespace sc = streambrain::core;
namespace st = streambrain::tensor;

namespace {

std::atomic<int> g_custom_support_calls{0};

/// Custom engine that delegates all math to the naive reference engine
/// but counts invocations, proving the registry actually routed work
/// through it.
class CountingEngine final : public sp::Engine {
 public:
  CountingEngine() : inner_(sp::EngineRegistry::instance().create("naive")) {}

  [[nodiscard]] std::string name() const override { return "counting"; }

  void support(const st::MatrixF& x, const st::MatrixF& w, const float* bias,
               st::MatrixF& s) override {
    g_custom_support_calls.fetch_add(1, std::memory_order_relaxed);
    inner_->support(x, w, bias, s);
  }

  void softmax_hcu(st::MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    inner_->softmax_hcu(s, mcus_per_hcu, inverse_temperature);
  }

  void update_traces(const st::MatrixF& x, const st::MatrixF& a, float alpha,
                     float* pi, float* pj, st::MatrixF& pij) override {
    inner_->update_traces(x, a, alpha, pi, pj, pij);
  }

  void recompute_weights(const float* pi, const float* pj,
                         const st::MatrixF& pij, float eps, float k_beta,
                         st::MatrixF& w, float* bias) override {
    inner_->recompute_weights(pi, pj, pij, eps, k_beta, w, bias);
  }

 private:
  std::unique_ptr<sp::Engine> inner_;
};

/// RAII registration so a failing test cannot leak the entry into later
/// tests in the same process.
struct ScopedEngine {
  ScopedEngine(sp::EngineInfo info, sp::EngineRegistry::Factory factory)
      : name(info.name) {
    sp::EngineRegistry::instance().register_engine(std::move(info),
                                                   std::move(factory));
  }
  ~ScopedEngine() { sp::EngineRegistry::instance().unregister_engine(name); }
  std::string name;
};

}  // namespace

TEST(EngineRegistry, BuiltinsAreRegisteredInOrder) {
  auto& registry = sp::EngineRegistry::instance();
  const auto names = registry.names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], "naive");
  EXPECT_EQ(names[1], "simd");
  EXPECT_EQ(names[2], "device_sim");
  for (const char* name : {"naive", "simd", "device_sim"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const auto engine = registry.create(name);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
  }
}

TEST(EngineRegistry, BuiltinCapabilityMetadata) {
  auto& registry = sp::EngineRegistry::instance();
  const sp::EngineInfo naive = registry.info("naive");
  EXPECT_EQ(naive.simd_width, 1u);
  EXPECT_FALSE(naive.offload);
  EXPECT_TRUE(naive.dispatch.empty());  // hand loops, not KernelSet-backed
  const sp::EngineInfo device = registry.info("device_sim");
  EXPECT_TRUE(device.offload);
  EXPECT_TRUE(device.counts_transfers);
  EXPECT_FALSE(device.description.empty());
}

TEST(EngineRegistry, SimdEngineMetadataIsHonestAboutRuntimeDispatch) {
  // The "simd" engine routes through the runtime-dispatched KernelSet,
  // so its registered capabilities must mirror what the dispatcher
  // actually selected on this host (CPUID + STREAMBRAIN_DISPATCH) — not
  // the widest tier the binary happens to contain. Under a forced
  // scalar dispatch the honest width is 1.
  const streambrain::tensor::KernelSet& kernels =
      streambrain::tensor::startup_kernels();
  const sp::EngineInfo simd = sp::EngineRegistry::instance().info("simd");
  EXPECT_EQ(simd.simd_width, kernels.simd_width);
  EXPECT_EQ(simd.dispatch, kernels.name);
  EXPECT_NE(simd.description.find(kernels.name), std::string::npos)
      << "description should name the active tier: " << simd.description;
  EXPECT_FALSE(simd.offload);
  // device_sim delegates its math to the same kernels.
  const sp::EngineInfo device = sp::EngineRegistry::instance().info(
      "device_sim");
  EXPECT_EQ(device.simd_width, kernels.simd_width);
  EXPECT_EQ(device.dispatch, kernels.name);
  // The dispatch tag is a real tier name and never exceeds the host.
  EXPECT_NO_THROW({
    const auto level = streambrain::tensor::parse_dispatch_level(simd.dispatch);
    EXPECT_LE(level, streambrain::tensor::max_supported_dispatch());
  });
}

TEST(EngineRegistry, UnknownNameFailsNamingTheRegisteredSet) {
  auto& registry = sp::EngineRegistry::instance();
  EXPECT_FALSE(registry.contains("cuda"));
  try {
    (void)registry.create("cuda");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("cuda"), std::string::npos);
    EXPECT_NE(message.find("simd"), std::string::npos);
  }
  EXPECT_THROW((void)registry.info("cuda"), std::invalid_argument);
}

TEST(EngineRegistry, RejectsDuplicateAndInvalidRegistrations) {
  auto& registry = sp::EngineRegistry::instance();
  EXPECT_THROW(registry.register_engine(
                   {"simd", "dup", 1, false, false, ""},
                   [] { return std::unique_ptr<sp::Engine>(); }),
               std::invalid_argument);
  EXPECT_THROW(registry.register_engine({"", "anonymous", 1, false, false, ""},
                                        [] {
                                          return std::unique_ptr<sp::Engine>();
                                        }),
               std::invalid_argument);
  EXPECT_THROW(
      registry.register_engine({"null_factory", "", 1, false, false, ""}, nullptr),
      std::invalid_argument);
  EXPECT_FALSE(registry.unregister_engine("never_registered"));
}

TEST(EngineRegistry, CustomEngineTrainsAModelEndToEnd) {
  const ScopedEngine guard(
      {"counting", "naive delegate that counts support() calls",
       /*simd_width=*/1, /*offload=*/false, /*counts_transfers=*/false,
       /*dispatch=*/""},
      [] { return std::make_unique<CountingEngine>(); });
  auto& registry = sp::EngineRegistry::instance();
  ASSERT_TRUE(registry.contains("counting"));
  EXPECT_EQ(registry.create("counting")->name(), "counting");

  streambrain::data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(900);
  streambrain::data::HiggsGeneratorOptions opts;
  opts.seed = 777;
  streambrain::data::SyntheticHiggsGenerator test_generator(opts);
  const auto test = test_generator.generate(300);
  streambrain::encode::OneHotEncoder encoder(10);
  const st::MatrixF x_train = encoder.fit_transform(train.features);
  const st::MatrixF x_test = encoder.transform(test.features);

  g_custom_support_calls.store(0);
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 40, 0.4)
      .classifier(2)
      .set_option("epochs", 4)
      .compile("counting", 42);
  model.fit(x_train, train.labels);
  EXPECT_GT(model.evaluate(x_test, test.labels), 0.52);
  EXPECT_GT(g_custom_support_calls.load(), 0);
}

TEST(EngineRegistry, CheckpointNamingTheRemovedOpenmpEngineFailsToLoad) {
  // A checkpoint records its engine by name. Write one under "openmp" (the
  // removed built-in) through a stand-in, then load it without that name.
  std::stringstream checkpoint;
  {
    const ScopedEngine openmp(
        {"openmp", "stand-in for the removed built-in", 1, false, false, ""},
        [] { return std::make_unique<CountingEngine>(); });
    streambrain::data::SyntheticHiggsGenerator generator;
    const auto train = generator.generate(200);
    streambrain::encode::OneHotEncoder encoder(10);
    sc::Model model;
    model.input(28, 10)
        .hidden(1, 10, 0.4)
        .classifier(2)
        .set_option("epochs", 1)
        .compile("openmp", 7);
    model.fit(encoder.fit_transform(train.features), train.labels);
    sc::save_model(checkpoint, model);
  }
  ASSERT_FALSE(sp::EngineRegistry::instance().contains("openmp"));
  sc::Model restored;
  try {
    sc::load_model(checkpoint, restored);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("unknown engine 'openmp'"),
              std::string::npos)
        << error.what();
  }
}
