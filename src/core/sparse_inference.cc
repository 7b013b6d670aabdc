#include "core/sparse_inference.h"

#include <algorithm>
#include <cmath>

#include "num/kernels.h"

namespace zss::core {

namespace {

// i32 pre-activation -> int8 LUT input. Round-to-nearest in double (an
// i32 accumulator exceeds float's 24-bit mantissa) then clamp to the
// symmetric ±127 range — the LUT saturates at its input endpoints
// anyway, so clipping only loses already-saturated tails.
std::int8_t requant_pre(std::int32_t v, double acc_to_pre) {
  const double q = std::nearbyint(static_cast<double>(v) * acc_to_pre);
  if (q >= 127.0) return 127;
  if (q <= -127.0) return -127;
  return static_cast<std::int8_t>(q);
}

// Sign-symmetric round-half-away-from-zero integer divide by a positive
// denominator — the quantized datapath's only division, used to bring
// products of two 1/127-grid values back onto the grid. Symmetric so
// negating every input negates every output exactly (the same property
// the symmetric ±127 range buys the quantizer).
std::int32_t rdiv(std::int32_t p, std::int32_t den) {
  return p >= 0 ? (p + den / 2) / den : -((-p + den / 2) / den);
}

std::int32_t clamp_i32(std::int32_t v, std::int32_t lo, std::int32_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

SparseLstmEngine::QuantState::QuantState(const nn::LstmCell& cell,
                                         const QuantConfig& cfg)
    : weights(nn::PackedLstmWeightsI8::pack(cell)),
      sigmoid(quant::Nonlinearity::kSigmoid,
              quant::QuantParams{cfg.pre_clip / 127.0f}),
      tanh_pre(quant::Nonlinearity::kTanh,
               quant::QuantParams{cfg.pre_clip / 127.0f}),
      tanh_c(quant::Nonlinearity::kTanh,
             quant::QuantParams{static_cast<float>(cfg.c_clip) / 127.0f}),
      acc_to_pre(static_cast<double>(weights.weight_scale.scale) /
                 static_cast<double>(cfg.pre_clip)) {}

SparseLstmEngine::SparseLstmEngine(const nn::LstmCell& cell,
                                   const StatePruner& pruner,
                                   sparse::EncoderConfig encoder,
                                   QuantConfig quant)
    : cell_(&cell),
      pruner_(&pruner),
      encoder_(encoder),
      quant_(quant),
      packed_(nn::PackedLstmWeights::pack(cell)) {
  if (quant_.enabled) {
    ZSS_EXPECTS(quant_.pre_clip > 0.0f && quant_.c_clip >= 1);
    q_.emplace(cell, quant_);
  }
  positions_.reserve(static_cast<std::size_t>(cell.hidden_dim()));
}

void SparseLstmEngine::reserve(num::Index max_batch) {
  ZSS_EXPECTS(max_batch >= 1);
  if (max_batch <= reserved_batch_) return;
  const num::Index dh = cell_->hidden_dim();
  ws_.mat(kPre, max_batch, 4 * dh);
  ws_.mat(kPreH, max_batch, 4 * dh);
  enc_.reserve(dh, max_batch);
  lanes_.reserve(dh, max_batch);
  prune_scratch_.reserve(static_cast<std::size_t>(max_batch * dh));
  if (q_) {
    // Integer twins of the workspace slots; reshape grows capacity
    // without the fill pass, matching the fp32 reserve discipline.
    q_->xq.reshape(max_batch, cell_->input_dim());
    q_->hq.reshape(max_batch, dh);
    q_->pre.reshape(max_batch, 4 * dh);
    q_->pre_h.reshape(max_batch, 4 * dh);
    q_->enc.reserve(dh, max_batch);
    q_->lanes.reserve(dh, max_batch);
  }
  reserved_batch_ = max_batch;
}

void SparseLstmEngine::compute_input_path(const num::Matrix& x,
                                          num::Matrix& pre) {
  // pre = x Wx^T + b over the packed layout (the input path is never
  // sparse-skipped, though gemm's exact-zero skip makes one-hot inputs
  // cost only their active rows — identically in step and step_dense).
  num::gemm(x, packed_.wxt, pre);
  num::add_bias_rows(pre, packed_.bias.span());
}

void SparseLstmEngine::finish_step(num::Matrix& pre,
                                   const num::Matrix& c_prev, num::Matrix& h,
                                   num::Matrix& c, num::Matrix* dense_h) {
  const num::Index B = pre.rows();
  const num::Index dh = cell_->hidden_dim();
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);
  ZSS_EXPECTS(c.rows() == B && c.cols() == dh);
  // c aliases c_prev on every call; tanh(c) is staged in h itself.
  for (num::Index r = 0; r < B; ++r) {
    nn::lstm_pointwise(pre.row(r), c_prev.row(r), c.row(r), h.row(r),
                       h.row(r));
  }
  // Tap the dense h before pruning: the stacked model feeds the next
  // layer (and the classifier) the unpruned state — only the recurrence
  // re-reads the pruned representation.
  if (dense_h != nullptr) {
    dense_h->reshape(B, dh);
    const auto src = h.flat();
    std::copy(src.begin(), src.end(), dense_h->flat().begin());
  }
  // Store the pruned representation — this is what the encoder writes to
  // DRAM and what the next step will skip over. The zero fraction the
  // pruner reports is the per-lane sparsity of the stored state — with
  // the per-lane skip path, exactly the sparsity the next step exploits
  // at any batch size.
  last_.lane_sparsity = pruner_->prune_inplace(h, prune_scratch_);
}

void SparseLstmEngine::step(const num::Matrix& x, num::Matrix& h,
                            num::Matrix& c, num::Matrix* dense_h) {
  if (q_) {
    step_quant(x, h, c, /*dense=*/false, dense_h);
    return;
  }
  const num::Index B = x.rows();
  const num::Index dh = cell_->hidden_dim();
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);
  ZSS_EXPECTS(c.rows() == B && c.cols() == dh);

  if (B > reserved_batch_) reserve(B);  // warm loop: a single compare

  num::Matrix& pre = ws_.uninit(kPre, B, 4 * dh);  // gemm zero-fills it
  compute_input_path(x, pre);
  stats_.input_macs += B * cell_->input_dim() * 4 * dh;

  // Sparse recurrent path: encode the stored state, then accumulate one
  // contiguous packed weight row per kept position (the SIMD backend
  // streams each row with lane-exact FMAs — num/simd/backend.h). The
  // partial sums are kept separate from `pre` and added once at the end
  // so the floating-point association matches step_dense() exactly
  // (zero-valued skipped terms are exact identities under IEEE
  // addition). This holds for any backend because every backend keeps
  // each output element's chain serial and in ascending position order.
  num::Index kept_union = 0;       // positions kept by >= 1 lane
  num::Index kept_lane_total = 0;  // effectual work of this step
  if (B == 1) {
    // Single sequence: the paper's offset encoding, one kept-position
    // list shared by the (only) lane.
    num::Matrix& pre_h = ws_.mat(kPreH, B, 4 * dh, 0.0f);
    sparse::encode_into(h, encoder_, enc_);
    positions_.clear();
    num::Index pos = 0;
    for (const auto& entry : enc_.entries) {
      pos += entry.offset;
      positions_.push_back(pos);
      ++pos;
    }
    num::sparse_accum_rows(packed_.wht, positions_, enc_.values, pre_h);
    kept_union = enc_.kept_positions();
    kept_lane_total = enc_.kept_positions();
    num::axpy(1.0f, pre_h.flat(), pre.flat());
  } else {
    // Batched: per-lane CSR lists, each lane accumulating exactly its
    // own kept rows — the skip survives batching instead of degrading
    // to the intersection of the batch's zero patterns. The overwrite
    // kernel flavour writes every element of the staging matrix (bit-
    // identical to a zero fill + accumulate), so no per-step fill of
    // the B x 4*dh buffer — 256 KB of stores saved at batch 8, dh 1000.
    num::Matrix& pre_h = ws_.uninit(kPreH, B, 4 * dh);
    sparse::encode_lanes_into(h, lanes_);
    num::sparse_accum_rows_multi_overwrite(packed_.wht, lanes_.positions,
                                           lanes_.row_start, lanes_.values,
                                           pre_h);
    kept_union = lanes_.union_kept();
    kept_lane_total = lanes_.total_kept();
    num::axpy(1.0f, pre_h.flat(), pre.flat());
  }

  stats_.state_macs_total += B * dh * 4 * dh;
  stats_.state_macs_effectual += kept_lane_total * 4 * dh;
  stats_.kept_positions += kept_union;
  stats_.positions += dh;
  stats_.lane_kept_positions += kept_lane_total;
  stats_.lane_positions += B * dh;
  ++stats_.steps;
  last_.batch = B;
  last_.kept_positions = kept_union;
  last_.positions = dh;
  last_.lane_kept_positions = kept_lane_total;

  finish_step(pre, c, h, c, dense_h);
}

void SparseLstmEngine::step_dense(const num::Matrix& x, num::Matrix& h,
                                  num::Matrix& c, num::Matrix* dense_h) {
  if (q_) {
    step_quant(x, h, c, /*dense=*/true, dense_h);
    return;
  }
  const num::Index B = x.rows();
  const num::Index dh = cell_->hidden_dim();
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);

  if (B > reserved_batch_) reserve(B);  // warm loop: a single compare

  num::Matrix& pre = ws_.uninit(kPre, B, 4 * dh);  // gemm zero-fills it
  compute_input_path(x, pre);
  // Dense recurrent baseline: full dot products over the gate-major
  // weights — every position's terms are accumulated, in the same
  // ascending-position order the sparse path uses for the kept ones.
  num::Matrix& pre_h = ws_.uninit(kPreH, B, 4 * dh);  // gemm_a_bt overwrites
  num::gemm_a_bt(h, cell_->wh().value, pre_h);
  num::axpy(1.0f, pre_h.flat(), pre.flat());

  stats_.input_macs += B * cell_->input_dim() * 4 * dh;
  stats_.state_macs_total += B * dh * 4 * dh;
  stats_.state_macs_effectual += B * dh * 4 * dh;
  stats_.kept_positions += dh;
  stats_.positions += dh;
  stats_.lane_kept_positions += B * dh;
  stats_.lane_positions += B * dh;
  ++stats_.steps;
  last_.batch = B;
  last_.kept_positions = dh;
  last_.positions = dh;
  last_.lane_kept_positions = B * dh;

  finish_step(pre, c, h, c, dense_h);
}

// Quantized step, shared by step() and step_dense() (`dense` picks the
// recurrent flavour). The exactness argument differs from fp32: every
// int8 x int8 product is exact in i32 and accumulation wraps mod 2^32,
// which is associative and commutative — so the sparse paths (which
// skip exactly the zero-valued products) and the dense path produce
// bit-identical pre-activations regardless of summation order, on every
// backend (docs/exactness.md "int8"). All scales are fixed at
// construction, so results are also independent of batch composition —
// the property the serving shard-determinism sweep checks.
void SparseLstmEngine::step_quant(const num::Matrix& x, num::Matrix& h,
                                  num::Matrix& c, bool dense,
                                  num::Matrix* dense_h) {
  const num::Index B = x.rows();
  const num::Index dh = cell_->hidden_dim();
  const num::Index dx = cell_->input_dim();
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);
  ZSS_EXPECTS(c.rows() == B && c.cols() == dh);

  if (B > reserved_batch_) reserve(B);  // warm loop: a single compare

  QuantState& q = *q_;
  const quant::QuantParams grid{nn::PackedLstmWeightsI8::kStateScale};

  // Input path: x onto the 1/127 grid (one-hot serving inputs are exact
  // on it), then the int8 GEMM and the pre-scaled bias — everything
  // lands on the shared accumulator scale weight_scale/127.
  q.xq.reshape(B, dx);
  quant::quantize(x.flat(), grid, q.xq.flat());
  num::gemm_a_bt_i8(q.xq, q.weights.wx, q.pre);
  const auto bq = q.weights.bias_q.span();
  for (num::Index r = 0; r < B; ++r) {
    auto row = q.pre.row(r);
    for (std::size_t j = 0; j < bq.size(); ++j) {
      row[j] = num::add_i32(row[j], bq[j]);
    }
  }
  stats_.input_macs += B * dx * 4 * dh;

  // Recurrent path over the quantized state. Both flavours multiply the
  // same q.hq — a zero element contributes an exactly-zero product to
  // the dense accumulator and is skipped by the sparse ones, so the
  // flavours agree bitwise.
  q.hq.reshape(B, dh);
  quant::quantize(h.flat(), grid, q.hq.flat());
  q.pre_h.reshape(B, 4 * dh);
  num::Index kept_union = 0;       // positions kept by >= 1 lane
  num::Index kept_lane_total = 0;  // effectual work of this step
  if (dense) {
    num::gemm_a_bt_i8(q.hq, q.weights.wh, q.pre_h);
    kept_union = dh;
    kept_lane_total = B * dh;
  } else if (B == 1) {
    // The paper's offset encoding over int8 values; the int8 sparse
    // kernels accumulate, so the staging matrix is zero-filled first
    // (i32 zero fill + accumulate has no fp32 signed-zero subtleties).
    q.pre_h.fill(0);
    sparse::encode_into(q.hq, encoder_, q.enc);
    positions_.clear();
    num::Index pos = 0;
    for (const auto& entry : q.enc.entries) {
      pos += entry.offset;
      positions_.push_back(pos);
      ++pos;
    }
    num::sparse_accum_rows_i8(q.weights.wht, positions_, q.enc.values,
                              q.pre_h);
    kept_union = q.enc.kept_positions();
    kept_lane_total = q.enc.kept_positions();
  } else {
    q.pre_h.fill(0);
    sparse::encode_lanes_into(q.hq, q.lanes);
    num::sparse_accum_rows_multi_i8(q.weights.wht, q.lanes.positions,
                                    q.lanes.row_start, q.lanes.values,
                                    q.pre_h);
    kept_union = q.lanes.union_kept();
    kept_lane_total = q.lanes.total_kept();
  }
  // Combine the two partials with the wrapping add — same scale, no
  // rescaling, order-free by modular associativity.
  {
    auto p = q.pre.flat();
    auto ph = q.pre_h.flat();
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = num::add_i32(p[i], ph[i]);
    }
  }

  stats_.state_macs_total += B * dh * 4 * dh;
  stats_.state_macs_effectual += kept_lane_total * 4 * dh;
  stats_.kept_positions += kept_union;
  stats_.positions += dh;
  stats_.lane_kept_positions += kept_lane_total;
  stats_.lane_positions += B * dh;
  ++stats_.steps;
  last_.batch = B;
  last_.kept_positions = kept_union;
  last_.positions = dh;
  last_.lane_kept_positions = kept_lane_total;

  finish_step_quant(B, h, c, dense_h);
}

// Integer gate/cell update: one requantize into the LUT domain, LUT
// activations, then a cell update whose only divisions are the
// sign-symmetric rdiv by 127 (grid renormalization after a grid x grid
// product) and by c_clip (folding the cell range into the tanh LUT's
// input span). h and c are written back as float multiples of
// kStateScale — the reference twin must use the identical expression
// (float(q) * kStateScale, not q / 127.0f) for bit-equality.
void SparseLstmEngine::finish_step_quant(num::Index batch, num::Matrix& h,
                                         num::Matrix& c,
                                         num::Matrix* dense_h) {
  QuantState& q = *q_;
  const num::Index dh = cell_->hidden_dim();
  const std::int32_t c_clip = static_cast<std::int32_t>(quant_.c_clip);
  const std::int32_t c_lim = 127 * c_clip;
  for (num::Index r = 0; r < batch; ++r) {
    auto row = q.pre.row(r);
    for (num::Index j = 0; j < dh; ++j) {
      const std::int8_t f =
          q.sigmoid.apply(requant_pre(row[static_cast<std::size_t>(j)],
                                      q.acc_to_pre));
      const std::int8_t i = q.sigmoid.apply(
          requant_pre(row[static_cast<std::size_t>(dh + j)], q.acc_to_pre));
      const std::int8_t o = q.sigmoid.apply(
          requant_pre(row[static_cast<std::size_t>(2 * dh + j)],
                      q.acc_to_pre));
      const std::int8_t g = q.tanh_pre.apply(
          requant_pre(row[static_cast<std::size_t>(3 * dh + j)],
                      q.acc_to_pre));
      // Previous c lies exactly on the 1/127 grid within ±c_clip (this
      // datapath wrote it); a caller-seeded float c is rounded onto it.
      std::int32_t cq = clamp_i32(
          static_cast<std::int32_t>(
              std::nearbyint(static_cast<double>(c(r, j)) * 127.0)),
          -c_lim, c_lim);
      cq = clamp_i32(rdiv(static_cast<std::int32_t>(f) * cq, 127) +
                         rdiv(static_cast<std::int32_t>(i) *
                                  static_cast<std::int32_t>(g),
                              127),
                     -c_lim, c_lim);
      // cq/c_clip maps [-c_lim, c_lim] onto the tanh LUT's ±127 input
      // span (whose grid is c_clip/127).
      const std::int8_t c8 = static_cast<std::int8_t>(rdiv(cq, c_clip));
      const std::int8_t tc = q.tanh_c.apply(c8);
      const std::int32_t hq = rdiv(
          static_cast<std::int32_t>(o) * static_cast<std::int32_t>(tc), 127);
      c(r, j) = static_cast<float>(cq) * nn::PackedLstmWeightsI8::kStateScale;
      h(r, j) = static_cast<float>(hq) * nn::PackedLstmWeightsI8::kStateScale;
    }
  }
  // Dense tap, then prune — same discipline as the fp32 finish_step.
  if (dense_h != nullptr) {
    const num::Index dh2 = cell_->hidden_dim();
    dense_h->reshape(batch, dh2);
    const auto src = h.flat();
    std::copy(src.begin(), src.end(), dense_h->flat().begin());
  }
  // Same pruning as the fp32 path: the stored h is pruned on the float
  // view; zeros survive requantization exactly, so the next step's skip
  // sees precisely the pruner's zero pattern.
  last_.lane_sparsity = pruner_->prune_inplace(h, prune_scratch_);
}

}  // namespace zss::core
