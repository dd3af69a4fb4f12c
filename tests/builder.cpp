#include "builder.hpp"

#include "platform/common.hpp"
#include "platform/rng.hpp"

namespace snicit::dnn {

DnnBuilder::DnnBuilder(Index neurons, float ymax)
    : neurons_(neurons), ymax_(ymax) {
  SNICIT_CHECK(neurons_ > 0, "neurons must be positive");
}

DnnBuilder& DnnBuilder::add_random_layer(double density, float w_lo,
                                         float w_hi, std::uint64_t seed) {
  SNICIT_CHECK(density > 0.0 && density <= 1.0,
               "density must be in (0, 1]");
  SNICIT_CHECK(w_lo <= w_hi, "invalid weight range");
  platform::Rng rng(seed);
  sparse::CooMatrix coo(neurons_, neurons_);
  for (Index r = 0; r < neurons_; ++r) {
    for (Index c = 0; c < neurons_; ++c) {
      if (rng.next_bool(density)) {
        coo.add(r, c, rng.uniform(w_lo, w_hi));
      }
    }
  }
  weights_.push_back(sparse::CsrMatrix::from_coo(coo));
  biases_.emplace_back(static_cast<std::size_t>(neurons_), 0.0f);
  return *this;
}

DnnBuilder& DnnBuilder::add_banded_layer(int halfwidth, float weight) {
  SNICIT_CHECK(halfwidth >= 0 && 2 * halfwidth + 1 <= neurons_,
               "band does not fit the layer");
  sparse::CooMatrix coo(neurons_, neurons_);
  for (Index r = 0; r < neurons_; ++r) {
    for (int d = -halfwidth; d <= halfwidth; ++d) {
      const Index c = static_cast<Index>(
          (static_cast<std::int64_t>(r) + d + neurons_) % neurons_);
      coo.add(r, c, weight);
    }
  }
  coo.coalesce();
  weights_.push_back(sparse::CsrMatrix::from_coo(coo));
  biases_.emplace_back(static_cast<std::size_t>(neurons_), 0.0f);
  return *this;
}

DnnBuilder& DnnBuilder::add_layer(
    const std::vector<sparse::Triplet>& entries) {
  sparse::CooMatrix coo(neurons_, neurons_);
  for (const auto& t : entries) {
    coo.add(t.row, t.col, t.value);
  }
  weights_.push_back(sparse::CsrMatrix::from_coo(coo));
  biases_.emplace_back(static_cast<std::size_t>(neurons_), 0.0f);
  return *this;
}

DnnBuilder& DnnBuilder::with_bias(float bias) {
  SNICIT_CHECK(!biases_.empty(), "with_bias before any layer");
  std::fill(biases_.back().begin(), biases_.back().end(), bias);
  return *this;
}

DnnBuilder& DnnBuilder::with_bias(std::vector<float> bias) {
  SNICIT_CHECK(!biases_.empty(), "with_bias before any layer");
  SNICIT_CHECK(bias.size() == static_cast<std::size_t>(neurons_),
               "bias vector size mismatch");
  biases_.back() = std::move(bias);
  return *this;
}

DnnBuilder& DnnBuilder::with_name(std::string name) {
  name_ = std::move(name);
  return *this;
}

SparseDnn DnnBuilder::build() {
  SNICIT_CHECK(!weights_.empty(), "build() with no layers");
  SparseDnn net(neurons_, std::move(weights_), std::move(biases_), ymax_,
                name_);
  weights_.clear();
  biases_.clear();
  return net;
}

}  // namespace snicit::dnn
