// Binary MLP format: a saved model reloads bit for bit, and corrupt files
// fail with kBadModelFile instead of loading.
#include "train/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

namespace snicit::train {
namespace {

using platform::ErrorCode;

MlpOptions tiny_options() {
  MlpOptions opt;
  opt.in_dim = 6;
  opt.hidden = 8;
  opt.sparse_layers = 2;
  opt.classes = 3;
  opt.density = 0.5;
  opt.seed = 7;
  return opt;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "snicit_serialize_" + name + ".mlp";
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ErrorCode load_code(const SparseMlp& mlp, const std::string& name) {
  const std::string path = temp_path(name);
  save_mlp(mlp, path);
  return try_load_mlp(path).code();
}

TEST(Serialize, RoundTripIsBitExact) {
  const SparseMlp mlp(tiny_options());
  const std::string first = temp_path("first");
  const std::string second = temp_path("second");
  save_mlp(mlp, first);
  const auto loaded = try_load_mlp(first);
  ASSERT_TRUE(loaded.ok());
  save_mlp(loaded.value(), second);
  // The file holds the options and every layer's weights, mask and bias.
  EXPECT_EQ(read_file(first), read_file(second));
}

TEST(Serialize, BadMagicIsRejected) {
  const std::string path = temp_path("magic");
  save_mlp(SparseMlp(tiny_options()), path);
  auto bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  EXPECT_EQ(try_load_mlp(path).code(), ErrorCode::kBadModelFile);
}

TEST(Serialize, TruncatedFileIsRejected) {
  const std::string path = temp_path("truncated");
  save_mlp(SparseMlp(tiny_options()), path);
  auto bytes = read_file(path);
  bytes.resize(bytes.size() - 5);
  write_file(path, bytes);
  EXPECT_EQ(try_load_mlp(path).code(), ErrorCode::kBadModelFile);
}

TEST(Serialize, NonFiniteValuesAreRejected) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  SparseMlp mlp(tiny_options());
  SparseLinear& layer = mlp.hidden_layers()[0];
  const auto& mask = layer.mask();
  const auto kept = static_cast<std::size_t>(
      std::find(mask.begin(), mask.end(), 1) - mask.begin());
  const auto masked = static_cast<std::size_t>(
      std::find(mask.begin(), mask.end(), 0) - mask.begin());
  ASSERT_LT(kept, mask.size());
  ASSERT_LT(masked, mask.size());

  // A masked-out weight is zeroed on load, so it cannot reach inference.
  layer.weights()[masked] = nan;
  EXPECT_EQ(load_code(mlp, "masked_nan"), ErrorCode::kOk);
  layer.weights()[masked] = 0.0f;

  layer.weights()[kept] = nan;
  EXPECT_EQ(load_code(mlp, "weight_nan"), ErrorCode::kBadModelFile);
  layer.weights()[kept] = 0.0f;

  layer.bias()[0] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(load_code(mlp, "bias_inf"), ErrorCode::kBadModelFile);
  layer.bias()[0] = 0.0f;

  MlpOptions bad_clip = tiny_options();
  bad_clip.ymax = nan;
  EXPECT_EQ(load_code(SparseMlp(bad_clip), "ymax_nan"),
            ErrorCode::kBadModelFile);
}

}  // namespace
}  // namespace snicit::train
