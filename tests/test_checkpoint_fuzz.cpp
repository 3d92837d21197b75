// Checkpoint fuzzing: structured mutations of REAL checkpoint bytes in
// every readable format version — v1 / v2 layer files (down-converted
// from real current-version bytes the same way test_serialization keeps
// the compat path honest), dense / sparse model files, and v4 QUANTIZED
// model files (quant-dense and prune -> sparsify -> quantize) — must
// always end in a clean std::exception (or a successful load), never a
// crash, hang, or runaway allocation. The asan/ubsan CI job runs this
// suite, so an out-of-bounds read or overflow in the parser fails
// loudly.
//
// Mutation classes:
//   - truncation at many prefix lengths (torn writes, short downloads)
//   - 4-byte 0xFF / 0x00 stomps at every aligned offset (flipped or
//     overflowed u32/u64 count and geometry fields)
//   - seeded random single-byte flips (bit rot)

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/pruning.hpp"
#include "core/serialization.hpp"
#include "parallel/engine_registry.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

// Small but real: every section type present, a few KB of bytes so the
// aligned-stomp sweep touches every field class quickly even under asan.
constexpr std::size_t kInputHc = 6;
constexpr std::size_t kBins = 4;
constexpr std::size_t kMcus = 8;

sc::BcpnnConfig layer_config() {
  sc::BcpnnConfig config;
  config.input_hypercolumns = kInputHc;
  config.input_bins = kBins;
  config.hcus = 1;
  config.mcus = kMcus;
  config.receptive_field = 0.5;
  config.epochs = 2;
  config.seed = 11;
  return config;
}

st::MatrixF encoded_events(std::size_t rows, std::uint64_t seed) {
  su::Rng rng(seed);
  st::MatrixF x(rows, kInputHc * kBins, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t h = 0; h < kInputHc; ++h) {
      const auto bin = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<long long>(kBins) - 1));
      x(r, h * kBins + bin) = 1.0f;
    }
  }
  return x;
}

// Layer bytes at the current writer version. The layer payload has been
// byte-identical since v3 (v4 only added model-level quantized section
// tags), so the v2/v1 down-converters below stay valid.
std::string current_layer_bytes(bool pruned) {
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(7);
  sc::BcpnnLayer layer(config, *engine, rng);
  const auto x = encoded_events(60, 5);
  for (int step = 0; step < 4; ++step) layer.train_batch(x, 1.0f);
  if (pruned) layer.prune_to_density(0.2);
  std::ostringstream out(std::ios::binary);
  // save_layer has no stream overload; route through a temp file.
  const std::string path = ::testing::TempDir() + "fuzz_corpus_layer.ckpt";
  sc::save_layer(path, layer);
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// v3 -> v2 layer bytes: drop the trailing prune-mask field (one 0 flag
/// byte for an unpruned layer) and patch the version word.
std::string downconvert_layer_to_v2(std::string bytes) {
  bytes.pop_back();
  const std::uint32_t version = 2;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  return bytes;
}

/// v2 -> v1 layer bytes: float-array counts u64 -> u32 (mirrors the
/// down-converter in test_serialization).
std::string downconvert_layer_to_v1(const std::string& bytes) {
  auto read_u64_at = [&](std::size_t pos) {
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + pos, sizeof(value));
    return value;
  };
  std::string v1;
  auto append_u32 = [&](std::uint32_t value) {
    v1.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  v1.append(bytes, 0, 4);  // magic
  append_u32(1);           // version
  std::size_t pos = 8;
  v1.append(bytes, pos, 20);  // section tag + 4 geometry fields
  pos += 20;
  for (int array = 0; array < 3; ++array) {  // pi, pj, pij
    const std::uint64_t count = read_u64_at(pos);
    pos += sizeof(std::uint64_t);
    append_u32(static_cast<std::uint32_t>(count));
    v1.append(bytes, pos, count * sizeof(float));
    pos += count * sizeof(float);
  }
  v1.append(bytes, pos, std::string::npos);  // masks
  return v1;
}

sc::Model trained_model(sc::HeadType head) {
  sc::Model model;
  model.input(kInputHc, kBins)
      .hidden(1, kMcus, 0.5)
      .classifier(2, head)
      .set_option("epochs", 2)
      .compile("simd", /*seed=*/11);
  const auto x = encoded_events(60, 5);
  std::vector<int> labels(x.rows());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 2);
  }
  model.fit(x, labels);
  sc::prune_model(model, 0.3);
  return model;
}

std::string model_bytes(const sc::Model& model) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  sc::save_model(buffer, model);
  return buffer.str();
}

/// Offset of the first u64 pair (a, b) in `bytes` — locates a payload
/// header (rows directly followed by cols) for targeted field stomps.
std::size_t find_u64_pair(const std::string& bytes, std::uint64_t a,
                          std::uint64_t b) {
  for (std::size_t i = 0; i + 16 <= bytes.size(); ++i) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::memcpy(&lo, bytes.data() + i, 8);
    std::memcpy(&hi, bytes.data() + i + 8, 8);
    if (lo == a && hi == b) return i;
  }
  return std::string::npos;
}

enum class Kind { kLayer, kModel };

/// The property under test: any mutation either loads cleanly or throws
/// a std::exception — never crashes (the sanitizer jobs catch the UB
/// class of failure) and never wedges on a runaway loop or allocation.
void try_load(Kind kind, const std::string& bytes) {
  std::stringstream in(std::string(bytes.data(), bytes.size()),
                       std::ios::in | std::ios::binary);
  try {
    if (kind == Kind::kModel) {
      sc::Model target;
      sc::load_model(in, target);
    } else {
      const auto config = layer_config();
      auto engine = sp::EngineRegistry::instance().create("simd");
      su::Rng rng(3);
      sc::BcpnnLayer target(config, *engine, rng);
      const std::string path =
          ::testing::TempDir() + "fuzz_mutated_layer.ckpt";
      {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      sc::load_layer(path, target);
    }
  } catch (const std::exception&) {
    // Clean rejection — the expected outcome for most mutations.
  }
}

void fuzz_corpus(Kind kind, const std::string& bytes,
                 const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_GT(bytes.size(), 16u);

  // Truncations: every prefix for small files, ~128 sampled otherwise.
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 128);
  for (std::size_t len = 0; len < bytes.size(); len += stride) {
    try_load(kind, bytes.substr(0, len));
  }

  // Aligned 4-byte stomps: force every count/geometry field through its
  // overflow and zero paths.
  for (const unsigned char fill : {0xFFu, 0x00u}) {
    for (std::size_t offset = 0; offset + 4 <= bytes.size(); offset += 4) {
      std::string mutated = bytes;
      std::memset(mutated.data() + offset, static_cast<int>(fill), 4);
      try_load(kind, mutated);
    }
  }

  // Seeded random single-byte flips.
  su::Rng rng(0xF002 + bytes.size());
  for (int i = 0; i < 400; ++i) {
    std::string mutated = bytes;
    const auto offset = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<long long>(bytes.size()) - 1));
    mutated[offset] = static_cast<char>(rng.uniform_int(0, 255));
    try_load(kind, mutated);
  }
}

}  // namespace

TEST(CheckpointFuzz, PristineCorporaLoadCleanly) {
  // Sanity: the unmutated corpus bytes are real, loadable checkpoints.
  {
    std::stringstream in(model_bytes(trained_model(sc::HeadType::kSgd)),
                         std::ios::in | std::ios::binary);
    sc::Model target;
    sc::load_model(in, target);
    EXPECT_TRUE(target.compiled());
  }
  {
    sc::Model sparse = trained_model(sc::HeadType::kBcpnn).sparsify();
    std::stringstream in(model_bytes(sparse),
                         std::ios::in | std::ios::binary);
    sc::Model target;
    sc::load_model(in, target);
    EXPECT_TRUE(target.sparse());
  }
  {
    sc::Model quant = trained_model(sc::HeadType::kSgd).quantize();
    std::stringstream in(model_bytes(quant),
                         std::ios::in | std::ios::binary);
    sc::Model target;
    sc::load_model(in, target);
    EXPECT_TRUE(target.quantized());
  }
  {
    sc::Model quant_sparse =
        trained_model(sc::HeadType::kBcpnn).sparsify().quantize();
    std::stringstream in(model_bytes(quant_sparse),
                         std::ios::in | std::ios::binary);
    sc::Model target;
    sc::load_model(in, target);
    EXPECT_TRUE(target.quantized());
    EXPECT_TRUE(target.sparse());
  }
}

TEST(CheckpointFuzz, V1LayerBytesNeverCrash) {
  fuzz_corpus(Kind::kLayer,
              downconvert_layer_to_v1(
                  downconvert_layer_to_v2(current_layer_bytes(false))),
              "layer v1");
}

TEST(CheckpointFuzz, V2LayerBytesNeverCrash) {
  fuzz_corpus(Kind::kLayer, downconvert_layer_to_v2(current_layer_bytes(false)),
              "layer v2");
}

TEST(CheckpointFuzz, CurrentPrunedLayerBytesNeverCrash) {
  fuzz_corpus(Kind::kLayer, current_layer_bytes(true), "layer current pruned");
}

TEST(CheckpointFuzz, DenseModelBytesNeverCrash) {
  fuzz_corpus(Kind::kModel, model_bytes(trained_model(sc::HeadType::kSgd)),
              "model dense sgd");
  fuzz_corpus(Kind::kModel, model_bytes(trained_model(sc::HeadType::kBcpnn)),
              "model dense bcpnn");
}

TEST(CheckpointFuzz, SparseModelBytesNeverCrash) {
  sc::Model sparse = trained_model(sc::HeadType::kSgd).sparsify();
  fuzz_corpus(Kind::kModel, model_bytes(sparse), "model sparse");
}

TEST(CheckpointFuzz, V4QuantDenseModelBytesNeverCrash) {
  fuzz_corpus(Kind::kModel,
              model_bytes(trained_model(sc::HeadType::kSgd).quantize()),
              "model v4 quant dense sgd");
  fuzz_corpus(Kind::kModel,
              model_bytes(trained_model(sc::HeadType::kBcpnn).quantize()),
              "model v4 quant dense bcpnn");
}

TEST(CheckpointFuzz, V4QuantSparseModelBytesNeverCrash) {
  sc::Model quant_sparse =
      trained_model(sc::HeadType::kSgd).sparsify().quantize();
  fuzz_corpus(Kind::kModel, model_bytes(quant_sparse),
              "model v4 quant sparse");
}

TEST(CheckpointFuzz, TargetedQuantFieldMutationsAreRejected) {
  // Surgical quantized-payload mutations: an implausible block_size and
  // a blown-up quant-CSR nnz must both be rejected before the reader
  // sizes any allocation from them.
  const std::uint64_t rows = kMcus;
  const std::uint64_t cols = kInputHc * kBins;

  // Quant-dense payload header is u64 rows|cols|block_size.
  {
    std::string bytes =
        model_bytes(trained_model(sc::HeadType::kSgd).quantize());
    const std::size_t pos = find_u64_pair(bytes, rows, cols);
    ASSERT_NE(pos, std::string::npos) << "quant header not found";
    const std::uint64_t huge_block = ~std::uint64_t{0} / 2;
    std::memcpy(bytes.data() + pos + 16, &huge_block, sizeof(huge_block));
    std::stringstream in(bytes, std::ios::in | std::ios::binary);
    sc::Model target;
    EXPECT_THROW(sc::load_model(in, target), std::runtime_error);
  }
  // Quant-sparse payload header is u64 rows|cols|nnz; nnz past
  // rows*cols is structurally impossible.
  {
    std::string bytes = model_bytes(
        trained_model(sc::HeadType::kSgd).sparsify().quantize());
    const std::size_t pos = find_u64_pair(bytes, rows, cols);
    ASSERT_NE(pos, std::string::npos) << "quant CSR header not found";
    const std::uint64_t huge_nnz = ~std::uint64_t{0} / 2;
    std::memcpy(bytes.data() + pos + 16, &huge_nnz, sizeof(huge_nnz));
    std::stringstream in(bytes, std::ios::in | std::ios::binary);
    sc::Model target;
    EXPECT_THROW(sc::load_model(in, target), std::runtime_error);
  }
}

TEST(CheckpointFuzz, TargetedCountOverflowsAreRejected) {
  // Surgical versions of the historical failure modes: huge u64 float
  // counts, huge sparse nnz, oversized depth/options. Each must throw.
  const std::string bytes = model_bytes(trained_model(sc::HeadType::kSgd));

  // Version word -> unsupported.
  {
    std::string mutated = bytes;
    const std::uint32_t version = 99;
    std::memcpy(mutated.data() + 4, &version, sizeof(version));
    std::stringstream in(mutated, std::ios::in | std::ios::binary);
    sc::Model target;
    EXPECT_THROW(sc::load_model(in, target), std::runtime_error);
  }
  // Geometry field (input hypercolumns, right after the model tag) ->
  // implausibly huge: must be rejected before any allocation.
  {
    std::string mutated = bytes;
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(mutated.data() + 12, &huge, sizeof(huge));
    std::stringstream in(mutated, std::ios::in | std::ios::binary);
    sc::Model target;
    EXPECT_THROW(sc::load_model(in, target), std::runtime_error);
  }
  // Sparse nnz blown up past rows*cols.
  {
    sc::Model sparse = trained_model(sc::HeadType::kSgd).sparsify();
    std::string sbytes = model_bytes(sparse);
    // Find the layer CSR header: rows == hidden units as a u64 directly
    // followed by cols == input units.
    const std::uint64_t rows = kMcus;
    const std::uint64_t cols = kInputHc * kBins;
    std::size_t pos = std::string::npos;
    for (std::size_t i = 0; i + 24 <= sbytes.size(); ++i) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      std::memcpy(&a, sbytes.data() + i, 8);
      std::memcpy(&b, sbytes.data() + i + 8, 8);
      if (a == rows && b == cols) {
        pos = i;
        break;
      }
    }
    ASSERT_NE(pos, std::string::npos) << "CSR header not found";
    const std::uint64_t huge_nnz = ~std::uint64_t{0} / 2;
    std::memcpy(sbytes.data() + pos + 16, &huge_nnz, sizeof(huge_nnz));
    std::stringstream in(sbytes, std::ios::in | std::ios::binary);
    sc::Model target;
    EXPECT_THROW(sc::load_model(in, target), std::runtime_error);
  }
}
