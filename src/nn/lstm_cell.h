// Batched LSTM cell with exact backpropagation through time.
//
// Implements the paper's Eq. (1)-(3) with gate order [f, i, o, g]:
//   [f;i;o;g] = [sigma;sigma;sigma;tanh](Wh h_{t-1} + Wx x_t + b)
//   c_t = f (*) c_{t-1} + i (*) g
//   h_t = o (*) tanh(c_t)
//
// The cell itself is pruning-agnostic: callers pass the (possibly pruned)
// previous hidden state h^p_{t-1} (Eq. 4) and the straight-through
// estimator of Eq. (6) falls out naturally because backward() returns the
// gradient with respect to *that* input, which the trainer routes onto
// the dense state.
#pragma once

#include <span>
#include <vector>

#include "nn/parameter.h"
#include "num/matrix.h"
#include "num/rng.h"
#include "num/types.h"
#include "num/workspace.h"

namespace zss::nn {

/// Activations cached by one forward step, consumed by backward.
struct LstmStepCache {
  num::Matrix x;        // (B x dx) input
  num::Matrix h_prev;   // (B x dh) hidden actually used (pruned or dense)
  num::Matrix c_prev;   // (B x dh)
  num::Matrix gates;    // (B x 4dh) post-activation [f, i, o, g]
  num::Matrix c;        // (B x dh) new cell state
  num::Matrix tanh_c;   // (B x dh)
};

/// The elementwise half of one step for one batch row, shared by
/// training (LstmCell::forward) and inference
/// (core::SparseLstmEngine): activates the pre-activations `gates` =
/// [f | i | o | g] in place through the backend activation slots
/// (sigmoid x3, tanh), then c = madd(f, c_prev, i * g),
/// tanh_c = tanh(c), h = o * tanh_c. c may alias c_prev and tanh_c may
/// alias h (element j is read before it is written).
void lstm_pointwise(std::span<float> gates, std::span<const float> c_prev,
                    std::span<float> c, std::span<float> tanh_c,
                    std::span<float> h);

/// Result of one forward step.
struct LstmStepOutput {
  num::Matrix h;  // (B x dh)
  num::Matrix c;  // (B x dh)
};

/// Gradients returned by one backward step.
struct LstmStepGrads {
  num::Matrix dx;       // (B x dx)
  num::Matrix dh_prev;  // (B x dh), w.r.t. the hidden the step consumed
  num::Matrix dc_prev;  // (B x dh)
};

class LstmCell {
 public:
  LstmCell(num::Index input_dim, num::Index hidden_dim, num::Rng& rng,
           float forget_bias = 1.0f);

  num::Index input_dim() const { return dx_; }
  num::Index hidden_dim() const { return dh_; }

  /// One timestep. `h_prev` is whatever state representation the caller
  /// wants the recurrence to see (dense, or pruned per Eq. 4/5).
  ///
  /// Not reentrant: forward() draws scratch from a per-cell workspace,
  /// so concurrent forward() calls on ONE cell need external
  /// synchronization (or one cell instance per thread). Distinct cells
  /// are independent.
  LstmStepOutput forward(const num::Matrix& x, const num::Matrix& h_prev,
                         const num::Matrix& c_prev,
                         LstmStepCache* cache) const;

  /// In-place variant: writes the new state into `h_out` / `c_out`
  /// instead of returning fresh matrices, and draws scratch from the
  /// cell's workspace — zero heap allocations once warm when the outputs
  /// are already shaped (B x dh). `c_out` may alias `c_prev` and `h_out`
  /// may alias `h_prev` (each element is read before it is overwritten);
  /// the outputs must not alias `x` or each other.
  void forward(const num::Matrix& x, const num::Matrix& h_prev,
               const num::Matrix& c_prev, LstmStepCache* cache,
               num::Matrix& h_out, num::Matrix& c_out) const;

  /// Backward through one step. `dh` and `dc` are the gradients flowing
  /// into h_t and c_t; parameter gradients are accumulated in place.
  LstmStepGrads backward(const LstmStepCache& cache, const num::Matrix& dh,
                         const num::Matrix& dc);

  std::vector<Parameter*> parameters();

  Parameter& wx() { return wx_; }
  Parameter& wh() { return wh_; }
  Parameter& bias() { return b_; }
  const Parameter& wx() const { return wx_; }
  const Parameter& wh() const { return wh_; }
  const Parameter& bias() const { return b_; }

 private:
  enum Slot : std::size_t { kPre, kPreH, kTanhC };

  num::Index dx_;
  num::Index dh_;
  Parameter wx_;  // (4dh x dx)
  Parameter wh_;  // (4dh x dh)
  Parameter b_;   // (1 x 4dh)
  // Scratch for the inference-path forward (pre-activations, tanh(c)).
  // Mutable: reusing buffers does not change the cell's observable state.
  mutable num::Workspace ws_;
};

}  // namespace zss::nn
