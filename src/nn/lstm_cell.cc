#include "nn/lstm_cell.h"

#include "nn/init.h"
#include "num/activations.h"
#include "num/kernels.h"

namespace zss::nn {

void lstm_pointwise(std::span<float> gates, std::span<const float> c_prev,
                    std::span<float> c, std::span<float> tanh_c,
                    std::span<float> h) {
  const std::size_t n = c.size();
  ZSS_EXPECTS(gates.size() == 4 * n && c_prev.size() == n &&
              tanh_c.size() == n && h.size() == n);
  num::sigmoid(gates.first(3 * n), gates.first(3 * n));
  num::tanh_act(gates.subspan(3 * n), gates.subspan(3 * n));
  const float* f = gates.data();
  const float* i = f + n;
  const float* o = i + n;
  const float* g = o + n;
  // One madd, so no compiler contraction can change the rounding.
  for (std::size_t j = 0; j < n; ++j) {
    c[j] = num::madd(f[j], c_prev[j], i[j] * g[j]);
  }
  num::tanh_act(c, tanh_c);
  for (std::size_t j = 0; j < n; ++j) h[j] = o[j] * tanh_c[j];
}

LstmCell::LstmCell(num::Index input_dim, num::Index hidden_dim, num::Rng& rng,
                   float forget_bias)
    : dx_(input_dim),
      dh_(hidden_dim),
      wx_("lstm.wx", 4 * hidden_dim, input_dim),
      wh_("lstm.wh", 4 * hidden_dim, hidden_dim),
      b_("lstm.b", 1, 4 * hidden_dim) {
  ZSS_EXPECTS(input_dim > 0 && hidden_dim > 0);
  xavier_uniform(wx_.value, input_dim, hidden_dim, rng);
  xavier_uniform(wh_.value, hidden_dim, hidden_dim, rng);
  lstm_bias_init(b_.value, hidden_dim, forget_bias);
}

LstmStepOutput LstmCell::forward(const num::Matrix& x,
                                 const num::Matrix& h_prev,
                                 const num::Matrix& c_prev,
                                 LstmStepCache* cache) const {
  LstmStepOutput out;
  forward(x, h_prev, c_prev, cache, out.h, out.c);
  return out;
}

void LstmCell::forward(const num::Matrix& x, const num::Matrix& h_prev,
                       const num::Matrix& c_prev, LstmStepCache* cache,
                       num::Matrix& h_out, num::Matrix& c_out) const {
  const num::Index batch = x.rows();
  ZSS_EXPECTS(x.cols() == dx_);
  ZSS_EXPECTS(h_prev.rows() == batch && h_prev.cols() == dh_);
  ZSS_EXPECTS(c_prev.rows() == batch && c_prev.cols() == dh_);

  // Pre-activations: (B x 4dh) = x Wx^T + h_prev Wh^T + b. Training
  // (cache set) computes them straight into the cache's gate buffer;
  // inference draws from the workspace.
  num::Matrix& pre =
      cache != nullptr ? cache->gates : ws_.uninit(kPre, batch, 4 * dh_);
  num::gemm_a_bt(x, wx_.value, pre);
  num::Matrix& pre_h = ws_.uninit(kPreH, batch, 4 * dh_);
  num::gemm_a_bt(h_prev, wh_.value, pre_h);
  // pre += pre_h through the backend axpy: fma(1, x, y) rounds exactly
  // like x + y, so this matches the previous elementwise add bit for bit.
  num::axpy(1.0f, pre_h.flat(), pre.flat());
  num::add_bias_rows(pre, b_.value.flat());

  // Snapshot the step inputs before the elementwise update can overwrite
  // an aliased previous state.
  if (cache != nullptr) {
    cache->x = x;
    cache->h_prev = h_prev;
    cache->c_prev = c_prev;
  }

  // Resize only on a shape change: an output that aliases its previous
  // state (the in-place stepping pattern) is already shaped and must not
  // be cleared before the elementwise update reads it.
  if (c_out.rows() != batch || c_out.cols() != dh_) c_out.resize(batch, dh_);
  if (h_out.rows() != batch || h_out.cols() != dh_) h_out.resize(batch, dh_);
  num::Matrix& tanh_c =
      cache != nullptr ? cache->tanh_c : ws_.uninit(kTanhC, batch, dh_);
  if (cache != nullptr) tanh_c.resize(batch, dh_);
  // Activates the gates in place (training caches them activated).
  for (num::Index r = 0; r < batch; ++r) {
    lstm_pointwise(pre.row(r), c_prev.row(r), c_out.row(r), tanh_c.row(r),
                   h_out.row(r));
  }

  if (cache != nullptr) cache->c = c_out;
}

LstmStepGrads LstmCell::backward(const LstmStepCache& cache,
                                 const num::Matrix& dh,
                                 const num::Matrix& dc) {
  const num::Index batch = cache.x.rows();
  ZSS_EXPECTS(dh.rows() == batch && dh.cols() == dh_);
  ZSS_EXPECTS(dc.rows() == batch && dc.cols() == dh_);

  // Gradient on pre-activations, packed (B x 4dh) in [f, i, o, g] order.
  num::Matrix dpre(batch, 4 * dh_);
  LstmStepGrads grads;
  grads.dc_prev.resize(batch, dh_);

  for (num::Index r = 0; r < batch; ++r) {
    auto gates = cache.gates.row(r);
    auto cp = cache.c_prev.row(r);
    auto tc = cache.tanh_c.row(r);
    auto dh_row = dh.row(r);
    auto dc_row = dc.row(r);
    auto dpre_row = dpre.row(r);
    auto dcp = grads.dc_prev.row(r);
    for (num::Index j = 0; j < dh_; ++j) {
      const float f = gates[static_cast<std::size_t>(j)];
      const float i = gates[static_cast<std::size_t>(dh_ + j)];
      const float o = gates[static_cast<std::size_t>(2 * dh_ + j)];
      const float g = gates[static_cast<std::size_t>(3 * dh_ + j)];
      const float t = tc[static_cast<std::size_t>(j)];

      // h = o * tanh(c): gradient into o and into c (through tanh),
      // plus the incoming dc from the step after this one.
      const float dhj = dh_row[static_cast<std::size_t>(j)];
      const float dcj = dhj * o * num::dtanh_from_y(t) +
                        dc_row[static_cast<std::size_t>(j)];

      dpre_row[static_cast<std::size_t>(j)] =
          dcj * cp[static_cast<std::size_t>(j)] * num::dsigmoid_from_y(f);
      dpre_row[static_cast<std::size_t>(dh_ + j)] =
          dcj * g * num::dsigmoid_from_y(i);
      dpre_row[static_cast<std::size_t>(2 * dh_ + j)] =
          dhj * t * num::dsigmoid_from_y(o);
      dpre_row[static_cast<std::size_t>(3 * dh_ + j)] =
          dcj * i * num::dtanh_from_y(g);
      dcp[static_cast<std::size_t>(j)] = dcj * f;
    }
  }

  // Parameter gradients: dWx += dpre^T x, dWh += dpre^T h_prev,
  // db += column sums of dpre.
  num::gemm_at_b_accum(dpre, cache.x, wx_.grad);
  num::gemm_at_b_accum(dpre, cache.h_prev, wh_.grad);
  auto bgrad = b_.grad.flat();
  for (num::Index r = 0; r < batch; ++r) {
    auto row = dpre.row(r);
    for (num::Index j = 0; j < 4 * dh_; ++j) {
      bgrad[static_cast<std::size_t>(j)] += row[static_cast<std::size_t>(j)];
    }
  }

  // Input gradients: dx = dpre Wx, dh_prev = dpre Wh.
  num::gemm(dpre, wx_.value, grads.dx);
  num::gemm(dpre, wh_.value, grads.dh_prev);
  return grads;
}

std::vector<Parameter*> LstmCell::parameters() {
  return {&wx_, &wh_, &b_};
}

}  // namespace zss::nn
