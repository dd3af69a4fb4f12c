#include "baselines/serial.hpp"

#include <algorithm>

#include "platform/timer.hpp"
#include "platform/trace.hpp"

namespace snicit::baselines {

dnn::RunResult SerialEngine::run(const dnn::SparseDnn& net,
                                 const dnn::DenseMatrix& input) {
  dnn::RunResult result;
  run_into(net, input, ws_, result);
  return result;
}

void SerialEngine::run_into(const dnn::SparseDnn& net,
                            const dnn::DenseMatrix& input,
                            platform::Workspace& ws,
                            dnn::RunResult& result) {
  SNICIT_TRACE_SPAN("serial.run", "engine");
  result.begin_run();
  const std::size_t rows = input.rows();
  const std::size_t batch = input.cols();
  const std::size_t layers = net.num_layers();
  result.layer_ms.reserve(layers);

  platform::Stopwatch total;
  if (layers == 0) {
    result.output.reset(rows, batch, sparse::ZeroFill::kNo);
    std::copy_n(input.data(), rows * batch, result.output.data());
    result.stages.add("feed-forward", total.elapsed_ms());
    ws.mark_warm();
    return;
  }

  auto& ping =
      ws.mat(platform::Workspace::kPing, rows, batch, sparse::ZeroFill::kNo);
  std::copy_n(input.data(), rows * batch, ping.data());
  auto& pong =
      ws.mat(platform::Workspace::kPong, rows, batch, sparse::ZeroFill::kNo);
  dnn::DenseMatrix* cur = &ping;
  dnn::DenseMatrix* nxt = &pong;
  for (std::size_t layer = 0; layer < layers; ++layer) {
    SNICIT_TRACE_SPAN("serial_layer", "serial");
    platform::Stopwatch lt;
    const auto& w = net.weight(layer);
    const auto& bias = net.bias(layer);
    // The last layer writes straight into the caller's result, skipping
    // the final buffer copy.
    dnn::DenseMatrix* dst = nxt;
    if (layer + 1 == layers) {
      result.output.reset(rows, batch, sparse::ZeroFill::kNo);
      dst = &result.output;
    }
    // Deliberately naive: single thread, no activation-sparsity skipping,
    // no blocking — the shape of the challenge's reference code. The row
    // sum starts at zero and the bias is added after it, in the
    // reference's order, so the output equals reference_forward bit for
    // bit (starting the sum at the bias rounds differently).
    for (std::size_t j = 0; j < cur->cols(); ++j) {
      const float* in = cur->col(j);
      float* out = dst->col(j);
      for (dnn::Index r = 0; r < w.rows(); ++r) {
        const auto cols = w.row_cols(r);
        const auto vals = w.row_vals(r);
        float acc = 0.0f;
        for (std::size_t k = 0; k < cols.size(); ++k) {
          acc += vals[k] * in[cols[k]];
        }
        out[r] = std::min(std::max(acc + bias[static_cast<std::size_t>(r)],
                                   0.0f),
                          net.ymax());
      }
    }
    if (layer + 1 < layers) std::swap(cur, nxt);
    result.layer_ms.push_back(lt.elapsed_ms());
  }
  result.stages.add("feed-forward", total.elapsed_ms());
  ws.mark_warm();
}

}  // namespace snicit::baselines
