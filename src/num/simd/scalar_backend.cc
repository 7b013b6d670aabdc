// Portable fallback backend: the register-blocked loops of PR 1, which
// lean on autovectorization rather than explicit intrinsics. Blocking
// only interleaves independent accumulator chains — the additions that
// feed one output element always run in ascending position order
// through num::madd, which is the whole exactness contract
// (docs/exactness.md).
#include "num/activations.h"
#include "num/kernels.h"
#include "num/simd/backend.h"
#include "num/simd/multi_schedule.h"

namespace zss::num::simd {

namespace {

void gemm_rows_scalar(const float* __restrict a, const float* __restrict b,
                      float* __restrict c, Index m, Index k, Index n) {
  // i-k-j loop order: the inner loop streams both B's row and C's row,
  // which vectorizes well and is cache-friendly for row-major storage.
  for (Index i = 0; i < m; ++i) {
    float* __restrict crow = c + i * n;
    const float* __restrict arow = a + i * k;
    for (Index kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* __restrict brow = b + kk * n;
      for (Index j = 0; j < n; ++j) crow[j] = madd(av, brow[j], crow[j]);
    }
  }
}

// One row of A against a block-of-4 rows of B: four independent
// accumulator chains, each still summing in ascending k.
inline void abt_row_block4(const float* __restrict arow,
                           const float* __restrict b0,
                           const float* __restrict b1,
                           const float* __restrict b2,
                           const float* __restrict b3, Index k,
                           float* __restrict out) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  for (Index kk = 0; kk < k; ++kk) {
    const float av = arow[kk];
    s0 = madd(av, b0[kk], s0);
    s1 = madd(av, b1[kk], s1);
    s2 = madd(av, b2[kk], s2);
    s3 = madd(av, b3[kk], s3);
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

inline float abt_dot(const float* __restrict arow, const float* __restrict brow,
                     Index k) {
  float acc = 0.0f;
  for (Index kk = 0; kk < k; ++kk) acc = madd(arow[kk], brow[kk], acc);
  return acc;
}

void gemm_a_bt_rows_scalar(const float* __restrict a,
                           const float* __restrict b, float* __restrict c,
                           Index m, Index k, Index n) {
  // Register blocking 2 (rows of A) x 4 (rows of B): eight independent
  // FMA chains in flight and every loaded B element reused twice. The
  // per-output accumulation order stays ascending-k, so results match
  // the naive dot product chain for chain.
  Index i = 0;
  for (; i + 2 <= m; i += 2) {
    const float* __restrict a0 = a + i * k;
    const float* __restrict a1 = a0 + k;
    float* __restrict c0 = c + i * n;
    float* __restrict c1 = c0 + n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict b0 = b + j * k;
      const float* __restrict b1 = b0 + k;
      const float* __restrict b2 = b1 + k;
      const float* __restrict b3 = b2 + k;
      float s00 = 0.0f, s01 = 0.0f, s02 = 0.0f, s03 = 0.0f;
      float s10 = 0.0f, s11 = 0.0f, s12 = 0.0f, s13 = 0.0f;
      for (Index kk = 0; kk < k; ++kk) {
        const float av0 = a0[kk];
        const float av1 = a1[kk];
        const float bv0 = b0[kk];
        const float bv1 = b1[kk];
        const float bv2 = b2[kk];
        const float bv3 = b3[kk];
        s00 = madd(av0, bv0, s00);
        s01 = madd(av0, bv1, s01);
        s02 = madd(av0, bv2, s02);
        s03 = madd(av0, bv3, s03);
        s10 = madd(av1, bv0, s10);
        s11 = madd(av1, bv1, s11);
        s12 = madd(av1, bv2, s12);
        s13 = madd(av1, bv3, s13);
      }
      c0[j] = s00;
      c0[j + 1] = s01;
      c0[j + 2] = s02;
      c0[j + 3] = s03;
      c1[j] = s10;
      c1[j + 1] = s11;
      c1[j + 2] = s12;
      c1[j + 3] = s13;
    }
    for (; j < n; ++j) {
      const float* __restrict brow = b + j * k;
      c0[j] = abt_dot(a0, brow, k);
      c1[j] = abt_dot(a1, brow, k);
    }
  }
  for (; i < m; ++i) {
    const float* __restrict arow = a + i * k;
    float* __restrict crow = c + i * n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      abt_row_block4(arow, b + j * k, b + (j + 1) * k, b + (j + 2) * k,
                     b + (j + 3) * k, k, crow + j);
    }
    for (; j < n; ++j) crow[j] = abt_dot(arow, b + j * k, k);
  }
}

void gemv_scalar(const float* __restrict w, const float* __restrict x,
                 float* __restrict y, Index m, Index n) {
  // Four output rows at a time: each x element is loaded once and feeds
  // four independent accumulator chains, hiding FMA latency without
  // changing any row's accumulation order.
  Index i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* __restrict r0 = w + i * n;
    const float* __restrict r1 = r0 + n;
    const float* __restrict r2 = r1 + n;
    const float* __restrict r3 = r2 + n;
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    for (Index j = 0; j < n; ++j) {
      const float xv = x[j];
      a0 = madd(r0[j], xv, a0);
      a1 = madd(r1[j], xv, a1);
      a2 = madd(r2[j], xv, a2);
      a3 = madd(r3[j], xv, a3);
    }
    y[i] = a0;
    y[i + 1] = a1;
    y[i + 2] = a2;
    y[i + 3] = a3;
  }
  for (; i < m; ++i) {
    const float* __restrict row = w + i * n;
    float acc = 0.0f;
    for (Index j = 0; j < n; ++j) acc = madd(row[j], x[j], acc);
    y[i] = acc;
  }
}

void sparse_accum_rows_scalar(const float* __restrict packed,
                              const Index* __restrict positions,
                              std::size_t n_positions,
                              const float* __restrict values,
                              float* __restrict out, Index batch, Index n) {
  for (std::size_t e = 0; e < n_positions; ++e) {
    const float* __restrict row = packed + positions[e] * n;
    // All lanes of this kept position in one pass: the packed row is
    // streamed once into cache and reused by every lane.
    for (Index b = 0; b < batch; ++b) {
      const float v = values[e * static_cast<std::size_t>(batch) +
                             static_cast<std::size_t>(b)];
      if (v == 0.0f) continue;  // lane kept for another lane's sake
      float* __restrict yrow = out + b * n;
      for (Index j = 0; j < n; ++j) yrow[j] = madd(v, row[j], yrow[j]);
    }
  }
}

// One pass over y[jt..je) chaining C kept rows through madd (C is
// compile-time so the chain unrolls). The per-element order is the
// order the caller filled gr/gv — ascending positions — so chaining
// only amortizes out-row traffic, never reorders a chain. Ow starts
// the chain from +0.0f instead of y[j] (the overwrite flavour — see
// multi_schedule.h). Plugged into the shared position-major merge
// schedule of num/simd/multi_schedule.h.
struct ScalarMultiChainPass {
  template <int C, bool Ow>
  static inline void pass(float* __restrict y, Index jt, Index je,
                          const float* const* __restrict gr,
                          const float* __restrict gv) {
    const float* __restrict r0 = gr[0];
    const float* __restrict r1 = C > 1 ? gr[1] : gr[0];
    const float* __restrict r2 = C > 2 ? gr[2] : gr[0];
    const float* __restrict r3 = C > 3 ? gr[3] : gr[0];
    const float* __restrict r4 = C > 4 ? gr[4] : gr[0];
    const float* __restrict r5 = C > 5 ? gr[5] : gr[0];
    const float* __restrict r6 = C > 6 ? gr[6] : gr[0];
    const float* __restrict r7 = C > 7 ? gr[7] : gr[0];
    for (Index j = jt; j < je; ++j) {
      float a = Ow ? 0.0f : y[j];
      a = madd(gv[0], r0[j], a);
      if (C > 1) a = madd(gv[1], r1[j], a);
      if (C > 2) a = madd(gv[2], r2[j], a);
      if (C > 3) a = madd(gv[3], r3[j], a);
      if (C > 4) a = madd(gv[4], r4[j], a);
      if (C > 5) a = madd(gv[5], r5[j], a);
      if (C > 6) a = madd(gv[6], r6[j], a);
      if (C > 7) a = madd(gv[7], r7[j], a);
      y[j] = a;
    }
  }
};

void sparse_accum_rows_multi_scalar(const float* __restrict packed,
                                    const Index* __restrict positions,
                                    const Index* __restrict row_start,
                                    const float* __restrict values,
                                    float* __restrict out, Index batch,
                                    Index n) {
  // Per-lane CSR accumulate through the shared position-major merge
  // schedule (num/simd/multi_schedule.h); this backend contributes only
  // the portable madd chain-pass primitive above.
  sparse_accum_rows_multi_schedule<ScalarMultiChainPass>(
      packed, positions, row_start, values, out, batch, n);
}

void sparse_accum_rows_multi_overwrite_scalar(
    const float* __restrict packed, const Index* __restrict positions,
    const Index* __restrict row_start, const float* __restrict values,
    float* __restrict out, Index batch, Index n) {
  // Overwrite flavour: out = instead of out += (multi_schedule.h); the
  // caller skips its zero fill of out.
  sparse_accum_rows_multi_schedule<ScalarMultiChainPass, true>(
      packed, positions, row_start, values, out, batch, n);
}

void axpy_scalar(float alpha, const float* __restrict x, float* __restrict y,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = madd(alpha, x[i], y[i]);
}

// --- int8 kernels ----------------------------------------------------
// Every multiply-accumulate goes through num::madd_i8 (exact i32
// product, wraparound add), so these loops reproduce num::reference's
// int8 twins bit-for-bit — and since wrapping addition is associative,
// the 4-wide accumulator blocking below is still exact, not just
// chain-preserving (docs/exactness.md "int8").

inline std::int32_t abt_dot_i8(const std::int8_t* __restrict arow,
                               const std::int8_t* __restrict brow, Index k) {
  std::int32_t acc = 0;
  for (Index kk = 0; kk < k; ++kk) acc = madd_i8(arow[kk], brow[kk], acc);
  return acc;
}

void gemm_a_bt_i8_scalar(const std::int8_t* __restrict a,
                         const std::int8_t* __restrict b,
                         std::int32_t* __restrict c, Index m, Index k,
                         Index n) {
  // Block of 4 B rows per A row: each loaded A element feeds four
  // independent accumulators (same shape as the fp32 kernel).
  for (Index i = 0; i < m; ++i) {
    const std::int8_t* __restrict arow = a + i * k;
    std::int32_t* __restrict crow = c + i * n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* __restrict b0 = b + j * k;
      const std::int8_t* __restrict b1 = b0 + k;
      const std::int8_t* __restrict b2 = b1 + k;
      const std::int8_t* __restrict b3 = b2 + k;
      std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (Index kk = 0; kk < k; ++kk) {
        const std::int8_t av = arow[kk];
        s0 = madd_i8(av, b0[kk], s0);
        s1 = madd_i8(av, b1[kk], s1);
        s2 = madd_i8(av, b2[kk], s2);
        s3 = madd_i8(av, b3[kk], s3);
      }
      crow[j] = s0;
      crow[j + 1] = s1;
      crow[j + 2] = s2;
      crow[j + 3] = s3;
    }
    for (; j < n; ++j) crow[j] = abt_dot_i8(arow, b + j * k, k);
  }
}

void sparse_accum_rows_i8_scalar(const std::int8_t* __restrict packed,
                                 const Index* __restrict positions,
                                 std::size_t n_positions,
                                 const std::int8_t* __restrict values,
                                 std::int32_t* __restrict out, Index batch,
                                 Index n) {
  for (std::size_t e = 0; e < n_positions; ++e) {
    const std::int8_t* __restrict row = packed + positions[e] * n;
    for (Index b = 0; b < batch; ++b) {
      const std::int8_t v = values[e * static_cast<std::size_t>(batch) +
                                   static_cast<std::size_t>(b)];
      if (v == 0) continue;  // exact identity in integers too
      std::int32_t* __restrict yrow = out + b * n;
      for (Index j = 0; j < n; ++j) yrow[j] = madd_i8(v, row[j], yrow[j]);
    }
  }
}

// Int8 chain pass for the shared merge schedule. Only the accumulate
// flavour is registered (no overwrite slot in the int8 table), but the
// template is flavour-complete for uniformity.
struct ScalarMultiChainPassI8 {
  template <int C, bool Ow>
  static inline void pass(std::int32_t* __restrict y, Index jt, Index je,
                          const std::int8_t* const* __restrict gr,
                          const std::int8_t* __restrict gv) {
    const std::int8_t* __restrict r0 = gr[0];
    const std::int8_t* __restrict r1 = C > 1 ? gr[1] : gr[0];
    const std::int8_t* __restrict r2 = C > 2 ? gr[2] : gr[0];
    const std::int8_t* __restrict r3 = C > 3 ? gr[3] : gr[0];
    const std::int8_t* __restrict r4 = C > 4 ? gr[4] : gr[0];
    const std::int8_t* __restrict r5 = C > 5 ? gr[5] : gr[0];
    const std::int8_t* __restrict r6 = C > 6 ? gr[6] : gr[0];
    const std::int8_t* __restrict r7 = C > 7 ? gr[7] : gr[0];
    for (Index j = jt; j < je; ++j) {
      std::int32_t a = Ow ? 0 : y[j];
      a = madd_i8(gv[0], r0[j], a);
      if (C > 1) a = madd_i8(gv[1], r1[j], a);
      if (C > 2) a = madd_i8(gv[2], r2[j], a);
      if (C > 3) a = madd_i8(gv[3], r3[j], a);
      if (C > 4) a = madd_i8(gv[4], r4[j], a);
      if (C > 5) a = madd_i8(gv[5], r5[j], a);
      if (C > 6) a = madd_i8(gv[6], r6[j], a);
      if (C > 7) a = madd_i8(gv[7], r7[j], a);
      y[j] = a;
    }
  }
};

void sparse_accum_rows_multi_i8_scalar(const std::int8_t* __restrict packed,
                                       const Index* __restrict positions,
                                       const Index* __restrict row_start,
                                       const std::int8_t* __restrict values,
                                       std::int32_t* __restrict out,
                                       Index batch, Index n) {
  sparse_accum_rows_multi_schedule<ScalarMultiChainPassI8, false, std::int8_t,
                                   std::int32_t>(packed, positions, row_start,
                                                 values, out, batch, n);
}

void sigmoid_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) y[k] = sigmoid(x[k]);
}

void tanh_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) y[k] = tanh_act(x[k]);
}

bool always_available() { return true; }

}  // namespace

const KernelBackend kScalarBackend = {
    "scalar",
    "portable register-blocked loops (PR-1 kernels); autovectorized only",
    always_available,
    gemm_rows_scalar,
    gemm_a_bt_rows_scalar,
    gemv_scalar,
    sparse_accum_rows_scalar,
    sparse_accum_rows_multi_scalar,
    sparse_accum_rows_multi_overwrite_scalar,
    axpy_scalar,
    gemm_a_bt_i8_scalar,
    sparse_accum_rows_i8_scalar,
    sparse_accum_rows_multi_i8_scalar,
    sigmoid_scalar,
    tanh_scalar,
};

}  // namespace zss::num::simd
