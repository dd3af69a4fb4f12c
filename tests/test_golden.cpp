// Golden-output regression suite: every engine's full-precision output
// on seeded synthetic workloads is digested (FNV-1a over the raw float
// bit patterns plus the output shape) and compared against checked-in
// golden digests. Any change to kernel order-of-operations, conversion
// arithmetic, or engine plumbing that perturbs even one output bit
// fails here — before it can masquerade as a performance win.
//
// Every engine runs once per forced spMM arm (gather, gather_simd,
// gather_threaded, scatter, scatter_simd) against the SAME golden keys:
// the arms differ in loop order and blocking, never in per-element
// accumulation order, so digests are a pure function of (workload seed,
// engine algorithm), not of the kernel, the host's core count or its
// SIMD width. A refresh stores a digest only when all arms agree.
//
// Refreshing after an *intentional* numerical change:
//
//   ./tests/test_golden --update-golden        # or SNICIT_UPDATE_GOLDEN=1
//
// rewrites tests/golden/engine_digests.txt with the digests of the
// current build (merging over any entries whose tests were filtered
// out); commit the diff alongside the change that explains it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/bf2019.hpp"
#include "baselines/serial.hpp"
#include "baselines/snig2020.hpp"
#include "baselines/xy2021.hpp"
#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/engine.hpp"
#include "snicit/warm_cache.hpp"

namespace snicit {
namespace {

bool g_update_golden = false;

const char* golden_path() {
  return SNICIT_GOLDEN_DIR "/engine_digests.txt";
}

/// FNV-1a over raw bytes; seeded with the basis offset.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t digest_output(const dnn::DenseMatrix& output) {
  const std::uint64_t rows = output.rows();
  const std::uint64_t cols = output.cols();
  std::uint64_t hash = fnv1a(&rows, sizeof(rows));
  hash = fnv1a(&cols, sizeof(cols), hash);
  // Column-major float bits; bit-identity is the contract, so the digest
  // covers the exact IEEE representation including signed zeros.
  for (std::uint64_t j = 0; j < cols; ++j) {
    hash = fnv1a(output.col(j), rows * sizeof(float), hash);
  }
  return hash;
}

struct GoldenConfig {
  std::string name;
  sparse::Index neurons;
  int layers;
  std::size_t batch;
  std::uint64_t seed;
};

const std::vector<GoldenConfig>& configs() {
  static const std::vector<GoldenConfig> kConfigs = {
      {"sdgc-256x24-b64", 256, 24, 64, 7},
      {"sdgc-256x48-b32", 256, 48, 32, 11},
      {"sdgc-512x24-b48", 512, 24, 48, 13},
  };
  return kConfigs;
}

/// Digests computed by the tests of this process run; flushed to the
/// golden file by main() when --update-golden is set.
std::map<std::string, std::uint64_t>& computed() {
  static std::map<std::string, std::uint64_t> map;
  return map;
}

std::map<std::string, std::uint64_t> load_golden() {
  std::map<std::string, std::uint64_t> golden;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hex;
    if (fields >> key >> hex) {
      golden[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return golden;
}

std::string hex_digest(std::uint64_t digest) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return hex;
}

bool store_golden(const std::map<std::string, std::uint64_t>& golden) {
  std::ofstream out(golden_path());
  out << "# Golden engine-output digests (FNV-1a over shape + float "
         "bits).\n"
      << "# Regenerate with: test_golden --update-golden (see file "
         "header comment).\n";
  for (const auto& [key, value] : golden) {
    out << key << " " << hex_digest(value) << "\n";
  }
  return out.good();
}

std::unique_ptr<dnn::InferenceEngine> make_engine(
    const std::string& name, int layers, const sparse::SpmmPolicy& policy) {
  if (name == "reference") return std::make_unique<dnn::ReferenceEngine>();
  if (name == "bf2019") {
    return std::make_unique<baselines::Bf2019Engine>(0, policy);
  }
  if (name == "snig2020") {
    return std::make_unique<baselines::Snig2020Engine>(0, 4, policy);
  }
  if (name == "xy2021") {
    baselines::Xy2021Options opt;
    opt.policy = policy;
    return std::make_unique<baselines::Xy2021Engine>(opt);
  }
  core::SnicitParams params;
  params.threshold_layer = layers / 2;
  params.sample_size = 16;
  params.downsample_dim = 16;
  params.spmm = policy;
  if (name == "snicit") {
    return std::make_unique<core::SnicitEngine>(params);
  }
  if (name == "snicit-warm") {
    return std::make_unique<core::WarmSnicitEngine>(params);
  }
  return nullptr;
}

/// Runs `engine_name` `runs` times on each config, once per forced spMM
/// arm, and digests the output of the LAST run. With runs = 1 this is the
/// classic cold digest; with runs = 2 it pins the warm path of
/// cache-carrying engines (WarmSnicitEngine's first run establishes the
/// centroid cache, the second serves from it — the serving steady state),
/// so a regression that only corrupts cache reuse cannot hide behind a
/// clean cold run.
void check_engine(
    const std::string& engine_name, int runs = 1,
    sparse::SpmmEpilogue epilogue = sparse::SpmmEpilogue::kFused) {
  const auto golden = load_golden();
  for (const auto& config : configs()) {
    radixnet::RadixNetOptions net_opt;
    net_opt.neurons = config.neurons;
    net_opt.layers = config.layers;
    net_opt.fanin = 16;
    net_opt.seed = config.seed;
    const auto net = radixnet::make_radixnet(net_opt);
    net.ensure_csc();
    data::SdgcInputOptions in_opt;
    in_opt.neurons = static_cast<std::size_t>(config.neurons);
    in_opt.batch = config.batch;
    in_opt.seed = config.seed + 1;
    const auto input = data::make_sdgc_input(in_opt).features;

    const std::string key =
        runs > 1 ? config.name + "/" + engine_name + "@run" +
                       std::to_string(runs)
                 : config.name + "/" + engine_name;
    const auto expected = golden.find(key);
    if (!g_update_golden) {
      ASSERT_NE(expected, golden.end())
          << "no golden digest for " << key
          << " — run test_golden --update-golden and commit "
          << golden_path();
    }
    std::uint64_t first_digest = 0;
    for (int v = 0; v < sparse::kNumSpmmVariants; ++v) {
      sparse::SpmmPolicy policy;
      policy.variant = static_cast<sparse::SpmmVariant>(v);
      policy.epilogue = epilogue;
      auto engine = make_engine(engine_name, config.layers, policy);
      ASSERT_NE(engine, nullptr) << engine_name;
      auto result = engine->run(net, input);
      for (int r = 1; r < runs; ++r) result = engine->run(net, input);
      const std::uint64_t digest = digest_output(result.output);
      if (v == 0) first_digest = digest;
      // A refresh checks the arms against each other; main() writes it
      // only when every check passed, i.e. when all arms agree.
      const std::uint64_t want =
          g_update_golden ? first_digest : expected->second;
      EXPECT_EQ(digest, want)
          << key << " [" << sparse::to_string(policy.variant)
          << "]: output digest " << hex_digest(digest) << " != "
          << (g_update_golden ? "the gather arm's " : "golden ")
          << hex_digest(want)
          << " — engine outputs changed bit-for-bit; if intentional, "
          << "refresh with test_golden --update-golden";
    }
    computed()[key] = first_digest;
  }
}

TEST(GoldenOutputs, Reference) { check_engine("reference"); }
TEST(GoldenOutputs, Bf2019) { check_engine("bf2019"); }
TEST(GoldenOutputs, Snig2020) { check_engine("snig2020"); }
TEST(GoldenOutputs, Xy2021) { check_engine("xy2021"); }
TEST(GoldenOutputs, Snicit) { check_engine("snicit"); }
// Warm engine, cold first run: digest must match the run-1 contract.
TEST(GoldenOutputs, SnicitWarmFirstRun) { check_engine("snicit-warm"); }
// Warm engine, second run served from the centroid cache.
TEST(GoldenOutputs, SnicitWarmSecondRun) {
  check_engine("snicit-warm", /*runs=*/2);
}

// The fused-epilogue contract at system scale: forcing the split A/B arm
// (spMM then a separate apply_bias_activation pass) must reproduce the
// fused-default digests bit-for-bit — the SAME golden keys, no separate
// entries. A divergence here means a fused kernel changed an
// accumulation order somewhere in an engine's layer loop.
TEST(GoldenOutputs, Bf2019SplitEpilogueSameDigests) {
  check_engine("bf2019", 1, sparse::SpmmEpilogue::kSplit);
}
TEST(GoldenOutputs, Snig2020SplitEpilogueSameDigests) {
  check_engine("snig2020", 1, sparse::SpmmEpilogue::kSplit);
}
TEST(GoldenOutputs, Xy2021SplitEpilogueSameDigests) {
  check_engine("xy2021", 1, sparse::SpmmEpilogue::kSplit);
}
TEST(GoldenOutputs, SnicitSplitEpilogueSameDigests) {
  check_engine("snicit", 1, sparse::SpmmEpilogue::kSplit);
}
TEST(GoldenOutputs, SnicitWarmSplitEpilogueSameDigests) {
  check_engine("snicit-warm", 2, sparse::SpmmEpilogue::kSplit);
}

}  // namespace
}  // namespace snicit

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      snicit::g_update_golden = true;
    }
  }
  const char* env = std::getenv("SNICIT_UPDATE_GOLDEN");
  if (env != nullptr && std::string(env) == "1") {
    snicit::g_update_golden = true;
  }
  const int rc = RUN_ALL_TESTS();
  if (snicit::g_update_golden && rc == 0) {
    // Merge over existing entries so a filtered refresh (--gtest_filter)
    // does not drop digests it never recomputed.
    auto merged = snicit::load_golden();
    for (const auto& [key, value] : snicit::computed()) {
      merged[key] = value;
    }
    if (!snicit::store_golden(merged)) {
      std::fprintf(stderr, "failed to write %s\n", snicit::golden_path());
      return 1;
    }
    std::printf("wrote %zu golden digest(s) to %s\n", merged.size(),
                snicit::golden_path());
  }
  return rc;
}
