#include "dnn/reference.hpp"

#include "platform/common.hpp"
#include "platform/trace.hpp"
#include "sparse/spmm.hpp"

namespace snicit::dnn {

DenseMatrix reference_forward(const SparseDnn& net, const DenseMatrix& input,
                              std::size_t first, std::size_t last) {
  SNICIT_CHECK(first <= last && last <= net.num_layers(),
               "layer range out of bounds");
  SNICIT_CHECK(input.rows() == static_cast<std::size_t>(net.neurons()),
               "input row count must equal neuron count");
  DenseMatrix cur = input;
  DenseMatrix next(input.rows(), input.cols());
  for (std::size_t i = first; i < last; ++i) {
    sparse::spmm_gather(net.weight(i), cur, next);
    sparse::apply_bias_activation(next, {net.bias(i), 0.0f, net.ymax()});
    std::swap(cur, next);
  }
  return cur;
}

DenseMatrix reference_forward(const SparseDnn& net, const DenseMatrix& input) {
  return reference_forward(net, input, 0, net.num_layers());
}

RunResult ReferenceEngine::run(const SparseDnn& net,
                               const DenseMatrix& input) {
  SNICIT_TRACE_SPAN("reference.run", "engine");
  RunResult result;
  result.layer_ms.reserve(net.num_layers());
  DenseMatrix cur = input;
  DenseMatrix next(input.rows(), input.cols());
  platform::Stopwatch total;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    platform::Stopwatch layer;
    sparse::spmm_gather(net.weight(i), cur, next);
    sparse::apply_bias_activation(next, {net.bias(i), 0.0f, net.ymax()});
    std::swap(cur, next);
    result.layer_ms.push_back(layer.elapsed_ms());
  }
  result.stages.add("feed-forward", total.elapsed_ms());
  result.output = std::move(cur);
  return result;
}

}  // namespace snicit::dnn
