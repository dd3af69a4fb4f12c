// Test fixture: fluent construction of SparseDnn models from per-layer
// specifications (random Erdős–Rényi layers, banded layers, explicit
// triplets), for suites that need hand-made topologies rather than the
// Radix-Net generator or a trained MLP.
#pragma once

#include <cstdint>
#include <vector>

#include "dnn/sparse_dnn.hpp"
#include "sparse/coo.hpp"

namespace snicit::dnn {

class DnnBuilder {
 public:
  /// `neurons` — width of every layer; `ymax` — activation clip.
  explicit DnnBuilder(Index neurons, float ymax = 32.0f);

  /// Uniform random layer: each of the neurons*neurons entries kept with
  /// probability `density`, value uniform in [w_lo, w_hi].
  DnnBuilder& add_random_layer(double density, float w_lo, float w_hi,
                               std::uint64_t seed);

  /// Banded layer: neuron j connects to j-halfwidth..j+halfwidth (mod N)
  /// with the given constant weight.
  DnnBuilder& add_banded_layer(int halfwidth, float weight);

  /// Explicit layer from triplets (duplicates are summed).
  DnnBuilder& add_layer(const std::vector<sparse::Triplet>& entries);

  /// Sets the bias of the most recently added layer (constant). Layers
  /// default to bias 0.
  DnnBuilder& with_bias(float bias);

  /// Sets a full bias vector on the most recently added layer.
  DnnBuilder& with_bias(std::vector<float> bias);

  DnnBuilder& with_name(std::string name);

  std::size_t num_layers() const { return weights_.size(); }

  /// Finalizes the model; the builder is left empty and reusable.
  SparseDnn build();

 private:
  Index neurons_;
  float ymax_;
  std::string name_ = "built-dnn";
  std::vector<sparse::CsrMatrix> weights_;
  std::vector<std::vector<float>> biases_;
};

}  // namespace snicit::dnn
