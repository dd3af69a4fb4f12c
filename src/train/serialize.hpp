// Binary (de)serialization of trained SparseMlp models, so benchmark
// harnesses can train networks A-D once and reload them across runs and
// binaries (the paper trains its four networks offline in PyTorch).
#pragma once

#include <string>

#include "platform/error.hpp"
#include "train/mlp.hpp"

namespace snicit::train {

/// Writes the full model (options + every layer's weights/mask/bias) to
/// `path`. Throws platform::ErrorException (a std::runtime_error) on I/O
/// failure.
void save_mlp(const SparseMlp& mlp, const std::string& path);

/// Reads a model written by save_mlp. Fails with kBadModelFile on I/O or
/// format errors: bad magic, implausible dimensions, truncated or
/// size-inconsistent layer payloads, a non-finite kept weight, bias or
/// ymax, trailing bytes after the last layer.
/// Every check runs before the bytes reach SparseLinear::restore, whose
/// size contract is an internal invariant (SNICIT_CHECK aborts).
platform::Result<SparseMlp> try_load_mlp(const std::string& path);

/// Throwing wrapper around try_load_mlp.
SparseMlp load_mlp(const std::string& path);

/// Access to layer internals needed by save/load (kept out of the public
/// SparseMlp interface).
struct MlpSerializer;

}  // namespace snicit::train
