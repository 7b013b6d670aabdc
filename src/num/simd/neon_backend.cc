// NEON backend for aarch64, compile-guarded: on AArch64 Advanced SIMD
// and fused multiply-add are baseline, so there is no runtime cpuid
// question — only the build-flavour check that the base translation
// units contract madd to fmaf (they do under default aarch64 flags).
//
// The structure mirrors the AVX2 backend at 4 lanes: vectorization is
// across independent output elements only, each lane carrying its own
// serial ascending-k chain, with a 4x4 in-register transpose where the
// row-major layout runs along the wrong axis (see docs/exactness.md).
// vfmaq_f32 rounds each lane exactly like scalar fmaf.
#include "num/activations.h"
#include "num/kernels.h"
#include "num/simd/backend.h"
#include "num/simd/multi_schedule.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstring>

namespace zss::num::simd {

namespace {

bool neon_available() { return madd_is_fused(); }

// In-register 4x4 transpose: r[q] holds row q's elements j..j+3 on
// entry; on exit r[p] holds element j+p of rows 0..3 (lane-major).
inline void transpose4(float32x4_t r[4]) {
  const float32x4x2_t t01 = vtrnq_f32(r[0], r[1]);
  const float32x4x2_t t23 = vtrnq_f32(r[2], r[3]);
  r[0] = vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
  r[1] = vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
  r[2] = vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
  r[3] = vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
}

// One pass over y[jt..je) chaining C kept rows (C is compile-time so
// the FMA sequence unrolls with every broadcast hoisted). The chain per
// output element runs in the order the caller filled gr/gv — ascending
// positions — so chaining only amortizes out-row traffic. Plugged into
// the shared position-major merge schedule of num/simd/multi_schedule.h.
struct NeonMultiChainPass {
  template <int C, bool Ow>
  __attribute__((always_inline)) static inline void pass(
      float* __restrict y, Index jt, Index je,
      const float* const* __restrict gr, const float* __restrict gv) {
    const float* __restrict r0 = gr[0];
    const float* __restrict r1 = C > 1 ? gr[1] : gr[0];
    const float* __restrict r2 = C > 2 ? gr[2] : gr[0];
    const float* __restrict r3 = C > 3 ? gr[3] : gr[0];
    const float* __restrict r4 = C > 4 ? gr[4] : gr[0];
    const float* __restrict r5 = C > 5 ? gr[5] : gr[0];
    const float* __restrict r6 = C > 6 ? gr[6] : gr[0];
    const float* __restrict r7 = C > 7 ? gr[7] : gr[0];
    const float32x4_t v0 = vdupq_n_f32(gv[0]);
    const float32x4_t v1 = vdupq_n_f32(C > 1 ? gv[1] : 0.0f);
    const float32x4_t v2 = vdupq_n_f32(C > 2 ? gv[2] : 0.0f);
    const float32x4_t v3 = vdupq_n_f32(C > 3 ? gv[3] : 0.0f);
    const float32x4_t v4 = vdupq_n_f32(C > 4 ? gv[4] : 0.0f);
    const float32x4_t v5 = vdupq_n_f32(C > 5 ? gv[5] : 0.0f);
    const float32x4_t v6 = vdupq_n_f32(C > 6 ? gv[6] : 0.0f);
    const float32x4_t v7 = vdupq_n_f32(C > 7 ? gv[7] : 0.0f);
    Index j = jt;
    for (; j + 4 <= je; j += 4) {
      float32x4_t a = Ow ? vdupq_n_f32(0.0f) : vld1q_f32(y + j);
      a = vfmaq_f32(a, v0, vld1q_f32(r0 + j));
      if (C > 1) a = vfmaq_f32(a, v1, vld1q_f32(r1 + j));
      if (C > 2) a = vfmaq_f32(a, v2, vld1q_f32(r2 + j));
      if (C > 3) a = vfmaq_f32(a, v3, vld1q_f32(r3 + j));
      if (C > 4) a = vfmaq_f32(a, v4, vld1q_f32(r4 + j));
      if (C > 5) a = vfmaq_f32(a, v5, vld1q_f32(r5 + j));
      if (C > 6) a = vfmaq_f32(a, v6, vld1q_f32(r6 + j));
      if (C > 7) a = vfmaq_f32(a, v7, vld1q_f32(r7 + j));
      vst1q_f32(y + j, a);
    }
    for (; j < je; ++j) {
      float a = Ow ? 0.0f : y[j];
      a = std::fmaf(gv[0], r0[j], a);
      if (C > 1) a = std::fmaf(gv[1], r1[j], a);
      if (C > 2) a = std::fmaf(gv[2], r2[j], a);
      if (C > 3) a = std::fmaf(gv[3], r3[j], a);
      if (C > 4) a = std::fmaf(gv[4], r4[j], a);
      if (C > 5) a = std::fmaf(gv[5], r5[j], a);
      if (C > 6) a = std::fmaf(gv[6], r6[j], a);
      if (C > 7) a = std::fmaf(gv[7], r7[j], a);
      y[j] = a;
    }
  }
};

// y[j] += v * row[j] over [0, n): shared by gemm and sparse_accum_rows.
inline void accum_row_neon(float v, const float* __restrict row,
                           float* __restrict y, Index n) {
  const float32x4_t vv = vdupq_n_f32(v);
  Index j = 0;
  for (; j + 8 <= n; j += 8) {
    float32x4_t y0 = vld1q_f32(y + j);
    float32x4_t y1 = vld1q_f32(y + j + 4);
    y0 = vfmaq_f32(y0, vv, vld1q_f32(row + j));
    y1 = vfmaq_f32(y1, vv, vld1q_f32(row + j + 4));
    vst1q_f32(y + j, y0);
    vst1q_f32(y + j + 4, y1);
  }
  for (; j + 4 <= n; j += 4) {
    float32x4_t y0 = vld1q_f32(y + j);
    y0 = vfmaq_f32(y0, vv, vld1q_f32(row + j));
    vst1q_f32(y + j, y0);
  }
  for (; j < n; ++j) y[j] = std::fmaf(v, row[j], y[j]);
}

void gemm_rows_neon(const float* __restrict a, const float* __restrict b,
                    float* __restrict c, Index m, Index k, Index n) {
  for (Index i = 0; i < m; ++i) {
    const float* __restrict arow = a + i * k;
    float* __restrict crow = c + i * n;
    for (Index kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // same skip semantics as scalar/reference
      accum_row_neon(av, b + kk * n, crow, n);
    }
  }
}

void sparse_accum_rows_neon(const float* __restrict packed,
                            const Index* __restrict positions,
                            std::size_t n_positions,
                            const float* __restrict values,
                            float* __restrict out, Index batch, Index n) {
  for (std::size_t e = 0; e < n_positions; ++e) {
    const float* __restrict row = packed + positions[e] * n;
    for (Index b = 0; b < batch; ++b) {
      const float v = values[e * static_cast<std::size_t>(batch) +
                             static_cast<std::size_t>(b)];
      if (v == 0.0f) continue;  // lane kept for another lane's sake
      accum_row_neon(v, row, out + b * n, n);
    }
  }
}

void sparse_accum_rows_multi_neon(const float* __restrict packed,
                                  const Index* __restrict positions,
                                  const Index* __restrict row_start,
                                  const float* __restrict values,
                                  float* __restrict out, Index batch,
                                  Index n) {
  // Per-lane CSR accumulate through the shared position-major merge
  // schedule (num/simd/multi_schedule.h); this backend contributes only
  // the 4-lane NEON chain-pass primitive above.
  sparse_accum_rows_multi_schedule<NeonMultiChainPass>(
      packed, positions, row_start, values, out, batch, n);
}

void sparse_accum_rows_multi_overwrite_neon(
    const float* __restrict packed, const Index* __restrict positions,
    const Index* __restrict row_start, const float* __restrict values,
    float* __restrict out, Index batch, Index n) {
  // Overwrite flavour: out = instead of out += (multi_schedule.h); the
  // caller skips its zero fill of out.
  sparse_accum_rows_multi_schedule<NeonMultiChainPass, true>(
      packed, positions, row_start, values, out, batch, n);
}

void gemv_neon(const float* __restrict w, const float* __restrict x,
               float* __restrict y, Index m, Index n) {
  Index i = 0;
  for (; i + 4 <= m; i += 4) {
    float32x4_t acc = vdupq_n_f32(0.0f);
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      float32x4_t t[4];
      for (int q = 0; q < 4; ++q) t[q] = vld1q_f32(w + (i + q) * n + j);
      transpose4(t);
      for (int p = 0; p < 4; ++p) {
        acc = vfmaq_f32(acc, t[p], vdupq_n_f32(x[j + p]));
      }
    }
    if (j < n) {
      float lanes[4];
      vst1q_f32(lanes, acc);
      for (int q = 0; q < 4; ++q) {
        const float* __restrict row = w + (i + q) * n;
        float s = lanes[q];
        for (Index jt = j; jt < n; ++jt) s = std::fmaf(row[jt], x[jt], s);
        y[i + q] = s;
      }
    } else {
      vst1q_f32(y + i, acc);
    }
  }
  for (; i < m; ++i) {
    const float* __restrict row = w + i * n;
    float s = 0.0f;
    for (Index j = 0; j < n; ++j) s = std::fmaf(row[j], x[j], s);
    y[i] = s;
  }
}

void gemm_a_bt_rows_neon(const float* __restrict a, const float* __restrict b,
                         float* __restrict c, Index m, Index k, Index n) {
  Index j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {
    for (Index i0 = 0; i0 < m; i0 += 4) {
      const Index ib = m - i0 < 4 ? m - i0 : Index{4};
      float32x4_t acc[4] = {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f),
                            vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)};
      Index kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        float32x4_t t[4];
        for (int q = 0; q < 4; ++q) t[q] = vld1q_f32(b + (j0 + q) * k + kk);
        transpose4(t);
        for (int p = 0; p < 4; ++p) {
          for (Index r = 0; r < ib; ++r) {
            acc[r] = vfmaq_f32(acc[r], t[p],
                               vdupq_n_f32(a[(i0 + r) * k + kk + p]));
          }
        }
      }
      for (Index r = 0; r < ib; ++r) {
        float lanes[4];
        vst1q_f32(lanes, acc[r]);
        if (kk < k) {
          const float* __restrict arow = a + (i0 + r) * k;
          for (int q = 0; q < 4; ++q) {
            const float* __restrict brow = b + (j0 + q) * k;
            float s = lanes[q];
            for (Index kt = kk; kt < k; ++kt) {
              s = std::fmaf(arow[kt], brow[kt], s);
            }
            lanes[q] = s;
          }
        }
        std::memcpy(c + (i0 + r) * n + j0, lanes, sizeof(lanes));
      }
    }
  }
  for (; j0 < n; ++j0) {  // column tail: plain ascending-k dots
    const float* __restrict brow = b + j0 * k;
    for (Index i = 0; i < m; ++i) {
      const float* __restrict arow = a + i * k;
      float s = 0.0f;
      for (Index kk = 0; kk < k; ++kk) s = std::fmaf(arow[kk], brow[kk], s);
      c[i * n + j0] = s;
    }
  }
}

void axpy_neon(float alpha, const float* __restrict x, float* __restrict y,
               std::size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t vy = vld1q_f32(y + i);
    vy = vfmaq_f32(vy, va, vld1q_f32(x + i));
    vst1q_f32(y + i, vy);
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

// --- int8 kernels ----------------------------------------------------
// Wraparound-i32 exactness (num::madd_i8) is associative, so unlike the
// fp32 kernels these reduce horizontally (vaddvq) and regroup freely.
// Every step is exact: vmull_s8 widens products to i16 (|a*b| <=
// 127^2), one vmlal_s8 on top stays <= 2 * 16129 = 32258 < 2^15, and
// vpadalq_s16 pair-adds into wrapping i32 accumulators. With the
// dot-product extension (__ARM_FEATURE_DOTPROD) the dense dot collapses
// to one sdot per 16 bytes — same wrap semantics, same bits.

inline std::int32_t dot_i8_neon(const std::int8_t* __restrict a,
                                const std::int8_t* __restrict b, Index k) {
  int32x4_t acc = vdupq_n_s32(0);
  Index kk = 0;
#if defined(__ARM_FEATURE_DOTPROD)
  for (; kk + 16 <= k; kk += 16) {
    acc = vdotq_s32(acc, vld1q_s8(a + kk), vld1q_s8(b + kk));
  }
#else
  for (; kk + 16 <= k; kk += 16) {
    const int8x16_t av = vld1q_s8(a + kk);
    const int8x16_t bv = vld1q_s8(b + kk);
    int16x8_t p = vmull_s8(vget_low_s8(av), vget_low_s8(bv));
    p = vmlal_s8(p, vget_high_s8(av), vget_high_s8(bv));
    acc = vpadalq_s16(acc, p);
  }
#endif
  std::int32_t s = vaddvq_s32(acc);
  for (; kk < k; ++kk) s = madd_i8(a[kk], b[kk], s);
  return s;
}

void gemm_a_bt_i8_neon(const std::int8_t* __restrict a,
                       const std::int8_t* __restrict b,
                       std::int32_t* __restrict c, Index m, Index k,
                       Index n) {
  // Four rows of B per A row: four independent vector accumulators per
  // widened A chunk (the same reuse shape as the fp32 kernels).
  for (Index i = 0; i < m; ++i) {
    const std::int8_t* __restrict arow = a + i * k;
    std::int32_t* __restrict crow = c + i * n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* __restrict b0 = b + j * k;
      const std::int8_t* __restrict b1 = b0 + k;
      const std::int8_t* __restrict b2 = b1 + k;
      const std::int8_t* __restrict b3 = b2 + k;
      int32x4_t s0 = vdupq_n_s32(0);
      int32x4_t s1 = vdupq_n_s32(0);
      int32x4_t s2 = vdupq_n_s32(0);
      int32x4_t s3 = vdupq_n_s32(0);
      Index kk = 0;
#if defined(__ARM_FEATURE_DOTPROD)
      for (; kk + 16 <= k; kk += 16) {
        const int8x16_t av = vld1q_s8(arow + kk);
        s0 = vdotq_s32(s0, av, vld1q_s8(b0 + kk));
        s1 = vdotq_s32(s1, av, vld1q_s8(b1 + kk));
        s2 = vdotq_s32(s2, av, vld1q_s8(b2 + kk));
        s3 = vdotq_s32(s3, av, vld1q_s8(b3 + kk));
      }
#else
      for (; kk + 16 <= k; kk += 16) {
        const int8x16_t av = vld1q_s8(arow + kk);
        const int8x8_t al = vget_low_s8(av);
        const int8x8_t ah = vget_high_s8(av);
        const int8x16_t bv0 = vld1q_s8(b0 + kk);
        int16x8_t p0 = vmull_s8(al, vget_low_s8(bv0));
        p0 = vmlal_s8(p0, ah, vget_high_s8(bv0));
        s0 = vpadalq_s16(s0, p0);
        const int8x16_t bv1 = vld1q_s8(b1 + kk);
        int16x8_t p1 = vmull_s8(al, vget_low_s8(bv1));
        p1 = vmlal_s8(p1, ah, vget_high_s8(bv1));
        s1 = vpadalq_s16(s1, p1);
        const int8x16_t bv2 = vld1q_s8(b2 + kk);
        int16x8_t p2 = vmull_s8(al, vget_low_s8(bv2));
        p2 = vmlal_s8(p2, ah, vget_high_s8(bv2));
        s2 = vpadalq_s16(s2, p2);
        const int8x16_t bv3 = vld1q_s8(b3 + kk);
        int16x8_t p3 = vmull_s8(al, vget_low_s8(bv3));
        p3 = vmlal_s8(p3, ah, vget_high_s8(bv3));
        s3 = vpadalq_s16(s3, p3);
      }
#endif
      std::int32_t r0 = vaddvq_s32(s0);
      std::int32_t r1 = vaddvq_s32(s1);
      std::int32_t r2 = vaddvq_s32(s2);
      std::int32_t r3 = vaddvq_s32(s3);
      for (; kk < k; ++kk) {
        const std::int8_t av = arow[kk];
        r0 = madd_i8(av, b0[kk], r0);
        r1 = madd_i8(av, b1[kk], r1);
        r2 = madd_i8(av, b2[kk], r2);
        r3 = madd_i8(av, b3[kk], r3);
      }
      crow[j] = r0;
      crow[j + 1] = r1;
      crow[j + 2] = r2;
      crow[j + 3] = r3;
    }
    for (; j < n; ++j) crow[j] = dot_i8_neon(arow, b + j * k, k);
  }
}

// y[j] += v * row[j] over 8 i32 outputs per step: widen the row chunk,
// vmlal against the broadcast i16 value (exact — |v * r| <= 127^2).
inline void accum_row_i8_neon(std::int8_t v, const std::int8_t* __restrict row,
                              std::int32_t* __restrict y, Index n) {
  const std::int16_t vs = v;
  Index j = 0;
  for (; j + 8 <= n; j += 8) {
    const int16x8_t r16 = vmovl_s8(vld1_s8(row + j));
    int32x4_t y0 = vld1q_s32(y + j);
    int32x4_t y1 = vld1q_s32(y + j + 4);
    y0 = vmlal_n_s16(y0, vget_low_s16(r16), vs);
    y1 = vmlal_n_s16(y1, vget_high_s16(r16), vs);
    vst1q_s32(y + j, y0);
    vst1q_s32(y + j + 4, y1);
  }
  for (; j < n; ++j) y[j] = madd_i8(v, row[j], y[j]);
}

void sparse_accum_rows_i8_neon(const std::int8_t* __restrict packed,
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
      accum_row_i8_neon(v, row, out + b * n, n);
    }
  }
}

// One chained contribution of entry (r, v) to 8 i32 outputs at j.
inline void chain_step_i8(int32x4_t& a0, int32x4_t& a1,
                          const std::int8_t* __restrict r, Index j,
                          std::int16_t v) {
  const int16x8_t r16 = vmovl_s8(vld1_s8(r + j));
  a0 = vmlal_n_s16(a0, vget_low_s16(r16), v);
  a1 = vmlal_n_s16(a1, vget_high_s16(r16), v);
}

// Int8 chain pass for the shared merge schedule (multi_schedule.h).
struct NeonMultiChainPassI8 {
  template <int C, bool Ow>
  __attribute__((always_inline)) static inline void pass(
      std::int32_t* __restrict y, Index jt, Index je,
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
    const std::int16_t v0 = gv[0];
    const std::int16_t v1 = C > 1 ? gv[1] : std::int8_t{0};
    const std::int16_t v2 = C > 2 ? gv[2] : std::int8_t{0};
    const std::int16_t v3 = C > 3 ? gv[3] : std::int8_t{0};
    const std::int16_t v4 = C > 4 ? gv[4] : std::int8_t{0};
    const std::int16_t v5 = C > 5 ? gv[5] : std::int8_t{0};
    const std::int16_t v6 = C > 6 ? gv[6] : std::int8_t{0};
    const std::int16_t v7 = C > 7 ? gv[7] : std::int8_t{0};
    Index j = jt;
    for (; j + 8 <= je; j += 8) {
      int32x4_t a0 = Ow ? vdupq_n_s32(0) : vld1q_s32(y + j);
      int32x4_t a1 = Ow ? vdupq_n_s32(0) : vld1q_s32(y + j + 4);
      chain_step_i8(a0, a1, r0, j, v0);
      if (C > 1) chain_step_i8(a0, a1, r1, j, v1);
      if (C > 2) chain_step_i8(a0, a1, r2, j, v2);
      if (C > 3) chain_step_i8(a0, a1, r3, j, v3);
      if (C > 4) chain_step_i8(a0, a1, r4, j, v4);
      if (C > 5) chain_step_i8(a0, a1, r5, j, v5);
      if (C > 6) chain_step_i8(a0, a1, r6, j, v6);
      if (C > 7) chain_step_i8(a0, a1, r7, j, v7);
      vst1q_s32(y + j, a0);
      vst1q_s32(y + j + 4, a1);
    }
    for (; j < je; ++j) {
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

void sparse_accum_rows_multi_i8_neon(const std::int8_t* __restrict packed,
                                     const Index* __restrict positions,
                                     const Index* __restrict row_start,
                                     const std::int8_t* __restrict values,
                                     std::int32_t* __restrict out, Index batch,
                                     Index n) {
  sparse_accum_rows_multi_schedule<NeonMultiChainPassI8, false, std::int8_t,
                                   std::int32_t>(packed, positions, row_start,
                                                 values, out, batch, n);
}

// --- gate activations ------------------------------------------------
// Four lanes of the scalar sequence in num/activations.h, op for op:
// vrndnq_f32 is std::nearbyint (ties to even), vfmaq_f32 is num::madd,
// vminnmq_f32(a, c) returns c for a NaN a like std::min(c, a), and the
// 2^n scale is the same integer add on the exponent bits. NaN lanes are
// replaced by the input at the end.

inline float32x4_t exp_reduced4(float32x4_t t) {
  const float32x4_t n = vrndnq_f32(vmulq_f32(t, vdupq_n_f32(act::kLog2e)));
  const float32x4_t neg_n = vnegq_f32(n);
  float32x4_t r = vfmaq_f32(t, neg_n, vdupq_n_f32(act::kLn2Hi));
  r = vfmaq_f32(r, neg_n, vdupq_n_f32(act::kLn2Lo));
  float32x4_t p = vdupq_n_f32(act::kExpPoly[0]);
  for (int k = 1; k < 6; ++k) {
    p = vfmaq_f32(vdupq_n_f32(act::kExpPoly[k]), p, r);
  }
  const float32x4_t one = vdupq_n_f32(1.0f);
  p = vfmaq_f32(one, p, r);
  p = vfmaq_f32(one, p, r);
  const int32x4_t scale = vshlq_n_s32(vcvtq_s32_f32(n), 23);
  return vreinterpretq_f32_s32(vaddq_s32(vreinterpretq_s32_f32(p), scale));
}

inline float32x4_t keep_nan4(float32x4_t x, float32x4_t y) {
  return vbslq_f32(vceqq_f32(x, x), y, x);
}

inline float32x4_t sigmoid4(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t a =
      vminnmq_f32(vabsq_f32(x), vdupq_n_f32(act::kSigmoidClamp));
  const float32x4_t z = exp_reduced4(vnegq_f32(a));
  // z/(1+z) where x's sign bit is set, else 1/(1+z).
  const uint32x4_t negative =
      vreinterpretq_u32_s32(vshrq_n_s32(vreinterpretq_s32_f32(x), 31));
  const float32x4_t y =
      vdivq_f32(vbslq_f32(negative, z, one), vaddq_f32(one, z));
  return keep_nan4(x, y);
}

inline float32x4_t tanh4(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t two = vdupq_n_f32(2.0f);
  const float32x4_t a = vabsq_f32(x);
  const float32x4_t z = vmulq_f32(a, a);
  float32x4_t q = vdupq_n_f32(act::kTanhPoly[0]);
  for (int k = 1; k < 5; ++k) {
    q = vfmaq_f32(vdupq_n_f32(act::kTanhPoly[k]), q, z);
  }
  const float32x4_t small = vfmaq_f32(a, vmulq_f32(q, z), a);
  const float32x4_t e = exp_reduced4(
      vmulq_f32(two, vminnmq_f32(a, vdupq_n_f32(act::kTanhClamp))));
  const float32x4_t large =
      vsubq_f32(one, vdivq_f32(two, vaddq_f32(e, one)));
  const float32x4_t y =
      vbslq_f32(vcltq_f32(a, vdupq_n_f32(act::kTanhSmall)), small, large);
  // copysign(y, x): the sign bit from x, every other bit from y.
  const float32x4_t signed_y = vbslq_f32(vdupq_n_u32(0x80000000u), x, y);
  return keep_nan4(x, signed_y);
}

// Full vectors first (each block is loaded before it is stored, so y may
// equal x); the tail runs the same vector sequence on a padded copy.
template <float32x4_t (*F)(float32x4_t)>
void map4(const float* x, float* y, std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) vst1q_f32(y + k, F(vld1q_f32(x + k)));
  if (k == n) return;
  float tail[4] = {};
  std::memcpy(tail, x + k, (n - k) * sizeof(float));
  vst1q_f32(tail, F(vld1q_f32(tail)));
  std::memcpy(y + k, tail, (n - k) * sizeof(float));
}

void sigmoid_neon(const float* x, float* y, std::size_t n) {
  map4<sigmoid4>(x, y, n);
}

void tanh_neon(const float* x, float* y, std::size_t n) {
  map4<tanh4>(x, y, n);
}

}  // namespace

const KernelBackend kNeonBackend = {
    "neon",
    "AArch64 Advanced SIMD (baseline ISA); needs an FMA-contracted base "
    "build",
    neon_available,
    gemm_rows_neon,
    gemm_a_bt_rows_neon,
    gemv_neon,
    sparse_accum_rows_neon,
    sparse_accum_rows_multi_neon,
    sparse_accum_rows_multi_overwrite_neon,
    axpy_neon,
    gemm_a_bt_i8_neon,
    sparse_accum_rows_i8_neon,
    sparse_accum_rows_multi_i8_neon,
    sigmoid_neon,
    tanh_neon,
};

}  // namespace zss::num::simd

#else  // not aarch64: keep the registry entry as a stub

namespace zss::num::simd {

namespace {
bool never_available() { return false; }
}  // namespace

const KernelBackend kNeonBackend = {
    "neon",
    "AArch64 Advanced SIMD; not compiled into this binary (aarch64 only)",
    never_available,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    // int8 slots, stubbed with the rest of the table
    nullptr,
    nullptr,
    nullptr,
};

}  // namespace zss::num::simd

#endif
