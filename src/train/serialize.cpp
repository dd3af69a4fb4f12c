#include "train/serialize.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace snicit::train {

namespace {

using platform::ErrorCode;
using platform::ErrorException;
using platform::Result;

constexpr char kMagic[8] = {'S', 'N', 'I', 'C', 'M', 'L', 'P', '1'};

/// Plausibility bounds for header dimensions: a hostile header drives the
/// SparseMlp constructor's allocations, so dims are capped before any
/// buffer is sized from them.
constexpr std::uint64_t kMaxDim = 1ULL << 20;        // per-dimension
constexpr std::uint64_t kMaxLayerElems = 1ULL << 31; // per weight matrix

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_bytes(std::FILE* f, const void* data, std::size_t size) {
  if (std::fwrite(data, 1, size, f) != size) {
    throw ErrorException(ErrorCode::kBadModelFile,
                         "short write while saving model");
  }
}

void read_bytes(std::FILE* f, void* data, std::size_t size) {
  if (std::fread(data, 1, size, f) != size) {
    throw ErrorException(ErrorCode::kBadModelFile,
                         "short read while loading model");
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& v) {
  write_bytes(f, &v, sizeof(T));
}

template <typename T>
T read_pod(std::FILE* f) {
  T v{};
  read_bytes(f, &v, sizeof(T));
  return v;
}

template <typename T>
void write_vec(std::FILE* f, const std::vector<T>& v) {
  write_pod<std::uint64_t>(f, v.size());
  write_bytes(f, v.data(), v.size() * sizeof(T));
}

/// Reads a length-prefixed vector whose size is already known from the
/// layer shape: a mismatched prefix means a corrupt file, and checking it
/// here keeps the bytes from ever reaching SparseLinear::restore's
/// aborting invariant.
template <typename T>
std::vector<T> read_vec_expect(std::FILE* f, std::uint64_t expected,
                               const char* what) {
  const auto size = read_pod<std::uint64_t>(f);
  if (size != expected) {
    throw ErrorException(ErrorCode::kBadModelFile,
                         std::string("corrupt model file: ") + what +
                             " size mismatch");
  }
  std::vector<T> v(static_cast<std::size_t>(size));
  read_bytes(f, v.data(), v.size() * sizeof(T));
  return v;
}

/// A NaN or infinity in a value inference reads would poison every
/// output it reaches, so the loader rejects it, as the TSV loader does.
void require_finite(float v, const char* what) {
  if (!std::isfinite(v)) {
    throw ErrorException(ErrorCode::kBadModelFile,
                         std::string("corrupt model file: non-finite ") +
                             what);
  }
}

void write_layer(std::FILE* f, const SparseLinear& layer) {
  write_pod<std::uint64_t>(f, layer.in_dim());
  write_pod<std::uint64_t>(f, layer.out_dim());
  write_vec(f, layer.weights());
  write_vec(f, layer.mask());
  write_vec(f, layer.bias());
}

void read_layer_into(std::FILE* f, SparseLinear& layer) {
  const auto in = read_pod<std::uint64_t>(f);
  const auto out = read_pod<std::uint64_t>(f);
  if (in != layer.in_dim() || out != layer.out_dim()) {
    throw ErrorException(ErrorCode::kBadModelFile,
                         "corrupt model file: layer shape mismatch");
  }
  const std::uint64_t elems = in * out;  // dims pre-capped: no overflow
  auto w = read_vec_expect<float>(f, elems, "weights");
  auto m = read_vec_expect<std::uint8_t>(f, elems, "mask");
  auto b = read_vec_expect<float>(f, out, "bias");
  // restore() zeroes masked-out weights, so only kept ones must be finite.
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (m[i] != 0) require_finite(w[i], "weight");
  }
  for (const float v : b) require_finite(v, "bias");
  layer.restore(std::move(w), std::move(m), std::move(b));
}

std::uint64_t checked_dim(std::FILE* f, const char* what) {
  const auto v = read_pod<std::uint64_t>(f);
  if (v < 1 || v > kMaxDim) {
    throw ErrorException(ErrorCode::kBadModelFile,
                         std::string("corrupt model file: implausible ") +
                             what);
  }
  return v;
}

}  // namespace

void save_mlp(const SparseMlp& mlp, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    throw ErrorException(ErrorCode::kBadModelFile,
                         "cannot open for write: " + path);
  }
  write_bytes(f.get(), kMagic, sizeof(kMagic));
  const auto& opt = mlp.options();
  write_pod<std::uint64_t>(f.get(), opt.in_dim);
  write_pod<std::uint64_t>(f.get(), opt.hidden);
  write_pod<std::uint64_t>(f.get(), opt.sparse_layers);
  write_pod<std::uint64_t>(f.get(), opt.classes);
  write_pod<double>(f.get(), opt.density);
  write_pod<float>(f.get(), opt.ymax);
  write_pod<std::uint64_t>(f.get(), opt.seed);
  write_layer(f.get(), mlp.input_layer());
  for (const auto& layer : mlp.hidden_layers()) {
    write_layer(f.get(), layer);
  }
  write_layer(f.get(), mlp.output_layer());
}

platform::Result<SparseMlp> try_load_mlp(const std::string& path) {
  try {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) {
      throw ErrorException(ErrorCode::kBadModelFile,
                           "cannot open for read: " + path);
    }
    char magic[8];
    read_bytes(f.get(), magic, sizeof(magic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      throw ErrorException(ErrorCode::kBadModelFile,
                           "not a SNICIT model file: " + path);
    }
    MlpOptions opt;
    opt.in_dim =
        static_cast<std::size_t>(checked_dim(f.get(), "in_dim"));
    opt.hidden =
        static_cast<std::size_t>(checked_dim(f.get(), "hidden"));
    opt.sparse_layers =
        static_cast<std::size_t>(read_pod<std::uint64_t>(f.get()));
    opt.classes =
        static_cast<std::size_t>(checked_dim(f.get(), "classes"));
    opt.density = read_pod<double>(f.get());
    opt.ymax = read_pod<float>(f.get());
    require_finite(opt.ymax, "ymax");
    opt.seed = read_pod<std::uint64_t>(f.get());
    if (opt.sparse_layers > kMaxDim) {
      throw ErrorException(ErrorCode::kBadModelFile,
                           "corrupt model file: implausible sparse_layers");
    }
    const std::uint64_t hidden = opt.hidden;
    if (static_cast<std::uint64_t>(opt.in_dim) * hidden > kMaxLayerElems ||
        hidden * hidden > kMaxLayerElems ||
        hidden * static_cast<std::uint64_t>(opt.classes) > kMaxLayerElems) {
      throw ErrorException(ErrorCode::kBadModelFile,
                           "corrupt model file: implausible layer size");
    }

    SparseMlp mlp(opt);
    read_layer_into(f.get(), mlp.input_layer());
    for (auto& layer : mlp.hidden_layers()) {
      read_layer_into(f.get(), layer);
    }
    read_layer_into(f.get(), mlp.output_layer());
    if (std::fgetc(f.get()) != EOF) {
      throw ErrorException(ErrorCode::kBadModelFile,
                           "trailing bytes after model payload in " + path);
    }
    return Result<SparseMlp>(std::move(mlp));
  } catch (const ErrorException& e) {
    return Result<SparseMlp>(e.error());
  }
}

SparseMlp load_mlp(const std::string& path) {
  return try_load_mlp(path).value_or_throw();
}

}  // namespace snicit::train
