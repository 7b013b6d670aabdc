// AVX2+FMA backend. This translation unit is compiled with
// -mavx2 -mfma (set per-file by CMakeLists.txt on x86); whether the
// kernels may run is decided at runtime via cpuid in avx2_available().
//
// Exactness (docs/exactness.md): every output element keeps one serial
// multiply-accumulate chain in ascending position order. SIMD lanes are
// only ever *independent output elements* — _mm256_fmadd_ps rounds each
// lane exactly like the scalar fmaf the reference kernels contract to,
// and there are no horizontal reductions anywhere in this file. Where
// the data layout is row-major on the wrong axis (gemv, gemm_a_bt), an
// 8x8 in-register transpose turns eight contiguous row chunks into
// eight lane-major k-vectors instead of reordering any chain.
//
// The scalar tail code uses std::fmaf directly: this TU is compiled
// with FMA enabled, so fmaf is a single instruction and identical to
// what num::madd does in every FMA-built TU. avx2_available() refuses
// to run if the base translation units were built without FMA
// contraction (madd_is_fused() == false) — mixing fused and unfused
// chains is exactly the asymmetry bug PR 1 fixed.
#include "num/activations.h"
#include "num/kernels.h"
#include "num/simd/backend.h"
#include "num/simd/multi_schedule.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__) && \
    defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace zss::num::simd {

namespace {

bool avx2_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         madd_is_fused();
}

// In-register 8x8 transpose: r[q] holds row q's elements j..j+7 on
// entry; on exit r[p] holds element j+p of rows 0..7 (lane-major).
inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// y[j] += v * row[j] over [0, n): the shared inner loop of gemm and
// sparse_accum_rows. Each lane is one output column's chain step.
inline void accum_row_avx2(float v, const float* __restrict row,
                           float* __restrict y, Index n) {
  const __m256 vv = _mm256_set1_ps(v);
  Index j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 y0 = _mm256_loadu_ps(y + j);
    __m256 y1 = _mm256_loadu_ps(y + j + 8);
    y0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(row + j), y0);
    y1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(row + j + 8), y1);
    _mm256_storeu_ps(y + j, y0);
    _mm256_storeu_ps(y + j + 8, y1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 y0 = _mm256_loadu_ps(y + j);
    y0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(row + j), y0);
    _mm256_storeu_ps(y + j, y0);
  }
  for (; j < n; ++j) y[j] = std::fmaf(v, row[j], y[j]);
}

void gemm_rows_avx2(const float* __restrict a, const float* __restrict b,
                    float* __restrict c, Index m, Index k, Index n) {
  for (Index i = 0; i < m; ++i) {
    const float* __restrict arow = a + i * k;
    float* __restrict crow = c + i * n;
    for (Index kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // same skip semantics as scalar/reference
      accum_row_avx2(av, b + kk * n, crow, n);
    }
  }
}

void sparse_accum_rows_avx2(const float* __restrict packed,
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
      accum_row_avx2(v, row, out + b * n, n);
    }
  }
}

// One pass over y[jt..je) chaining C kept rows (C is compile-time so the
// FMA sequence unrolls with every broadcast hoisted into a register).
// The chain per output element runs r0..r(C-1) in the order the caller
// filled them — ascending position order — after whatever y already
// holds (or after +0.0f in the Ow overwrite flavour, which skips the y
// load — see multi_schedule.h), so chaining C rows per pass only
// amortizes out-row traffic, it never reorders a chain. Plugged into
// the shared position-major merge schedule of num/simd/multi_schedule.h.
struct Avx2MultiChainPass {
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
    const __m256 v0 = _mm256_set1_ps(gv[0]);
    const __m256 v1 = _mm256_set1_ps(C > 1 ? gv[1] : 0.0f);
    const __m256 v2 = _mm256_set1_ps(C > 2 ? gv[2] : 0.0f);
    const __m256 v3 = _mm256_set1_ps(C > 3 ? gv[3] : 0.0f);
    const __m256 v4 = _mm256_set1_ps(C > 4 ? gv[4] : 0.0f);
    const __m256 v5 = _mm256_set1_ps(C > 5 ? gv[5] : 0.0f);
    const __m256 v6 = _mm256_set1_ps(C > 6 ? gv[6] : 0.0f);
    const __m256 v7 = _mm256_set1_ps(C > 7 ? gv[7] : 0.0f);
    Index j = jt;
    for (; j + 8 <= je; j += 8) {
      __m256 a = Ow ? _mm256_setzero_ps() : _mm256_loadu_ps(y + j);
      a = _mm256_fmadd_ps(v0, _mm256_loadu_ps(r0 + j), a);
      if (C > 1) a = _mm256_fmadd_ps(v1, _mm256_loadu_ps(r1 + j), a);
      if (C > 2) a = _mm256_fmadd_ps(v2, _mm256_loadu_ps(r2 + j), a);
      if (C > 3) a = _mm256_fmadd_ps(v3, _mm256_loadu_ps(r3 + j), a);
      if (C > 4) a = _mm256_fmadd_ps(v4, _mm256_loadu_ps(r4 + j), a);
      if (C > 5) a = _mm256_fmadd_ps(v5, _mm256_loadu_ps(r5 + j), a);
      if (C > 6) a = _mm256_fmadd_ps(v6, _mm256_loadu_ps(r6 + j), a);
      if (C > 7) a = _mm256_fmadd_ps(v7, _mm256_loadu_ps(r7 + j), a);
      _mm256_storeu_ps(y + j, a);
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

void sparse_accum_rows_multi_avx2(const float* __restrict packed,
                                  const Index* __restrict positions,
                                  const Index* __restrict row_start,
                                  const float* __restrict values,
                                  float* __restrict out, Index batch,
                                  Index n) {
  // Per-lane CSR accumulate through the shared position-major merge
  // schedule (num/simd/multi_schedule.h — rationale and the measured
  // alternatives live there and in docs/architecture.md); this backend
  // contributes only the AVX2 chain-pass primitive above.
  sparse_accum_rows_multi_schedule<Avx2MultiChainPass>(
      packed, positions, row_start, values, out, batch, n);
}

void sparse_accum_rows_multi_overwrite_avx2(
    const float* __restrict packed, const Index* __restrict positions,
    const Index* __restrict row_start, const float* __restrict values,
    float* __restrict out, Index batch, Index n) {
  // Overwrite flavour: out = instead of out += (multi_schedule.h); the
  // caller skips its zero fill of out.
  sparse_accum_rows_multi_schedule<Avx2MultiChainPass, true>(
      packed, positions, row_start, values, out, batch, n);
}

void gemv_avx2(const float* __restrict w, const float* __restrict x,
               float* __restrict y, Index m, Index n) {
  Index i = 0;
  // Eight output rows per pass: transpose eight contiguous row chunks so
  // lane q accumulates y[i+q]'s own chain in ascending j.
  for (; i + 8 <= m; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 t[8];
      for (int q = 0; q < 8; ++q) {
        t[q] = _mm256_loadu_ps(w + (i + q) * n + j);
      }
      transpose8(t);
      for (int p = 0; p < 8; ++p) {
        acc = _mm256_fmadd_ps(t[p], _mm256_set1_ps(x[j + p]), acc);
      }
    }
    if (j < n) {
      float lanes[8];
      _mm256_storeu_ps(lanes, acc);
      for (int q = 0; q < 8; ++q) {
        const float* __restrict row = w + (i + q) * n;
        float s = lanes[q];
        for (Index jt = j; jt < n; ++jt) s = std::fmaf(row[jt], x[jt], s);
        y[i + q] = s;
      }
    } else {
      _mm256_storeu_ps(y + i, acc);
    }
  }
  for (; i < m; ++i) {
    const float* __restrict row = w + i * n;
    float s = 0.0f;
    for (Index j = 0; j < n; ++j) s = std::fmaf(row[j], x[j], s);
    y[i] = s;
  }
}

void gemm_a_bt_rows_avx2(const float* __restrict a, const float* __restrict b,
                         float* __restrict c, Index m, Index k, Index n) {
  const Index kv = k & ~Index{7};  // vectorized prefix of k
  if (m == 1) {
    // Single-row (gemv-like) fast path: with one row of A there is no
    // batch to amortize the C-parked tile over, and one 8-lane
    // accumulator is a single dependent FMA chain per k-chunk —
    // latency-bound (~4.5 GMAC/s, the ROADMAP small-batch item). Two
    // 8-column tiles per k-chunk double the independent chains, and
    // both accumulators live in registers across every chunk (no C
    // traffic at all until the final store). Chains are unchanged:
    // k-chunks ascend, lanes p ascend within a chunk, the scalar k-tail
    // appends last — each output element is still one serial
    // ascending-k chain.
    Index j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (Index kk = 0; kk < kv; kk += 8) {
        __m256 t[8], u[8];
        for (int q = 0; q < 8; ++q) {
          t[q] = _mm256_loadu_ps(b + (j0 + q) * k + kk);
        }
        for (int q = 0; q < 8; ++q) {
          u[q] = _mm256_loadu_ps(b + (j0 + 8 + q) * k + kk);
        }
        transpose8(t);
        transpose8(u);
        const float* __restrict ap = a + kk;
        for (int p = 0; p < 8; ++p) {
          const __m256 av = _mm256_broadcast_ss(ap + p);
          acc0 = _mm256_fmadd_ps(av, t[p], acc0);
          acc1 = _mm256_fmadd_ps(av, u[p], acc1);
        }
      }
      _mm256_storeu_ps(c + j0, acc0);
      _mm256_storeu_ps(c + j0 + 8, acc1);
      if (kv < k) {  // k tail: continue each element's chain in scalar
        for (int q = 0; q < 16; ++q) {
          const float* __restrict brow = b + (j0 + q) * k;
          float s = c[j0 + q];
          for (Index kt = kv; kt < k; ++kt) {
            s = std::fmaf(a[kt], brow[kt], s);
          }
          c[j0 + q] = s;
        }
      }
    }
    for (; j0 < n; ++j0) {  // column tail: plain ascending-k dot
      const float* __restrict brow = b + j0 * k;
      float s = 0.0f;
      for (Index kk = 0; kk < k; ++kk) s = std::fmaf(a[kk], brow[kk], s);
      c[j0] = s;
    }
    return;
  }
  // Tile 8 rows of B (8 output columns, one ymm lane each). Per 8-wide
  // k-chunk the B chunk is transposed once and reused by *every* row of
  // A, with the partial sums parked in the C tile between chunks: the C
  // tile is m x 8 floats (L1-resident), so the shuffle cost of the
  // transpose amortizes over the whole batch and the inner loop is pure
  // broadcast+FMA. Each output element's chain still runs strictly in
  // ascending k: k-chunks in order, lanes p = 0..7 in order within a
  // chunk, and the scalar k-tail appended last. (At m == 1 the fast
  // path above wins instead — measured 1.4x — because this loop's
  // single accumulator chain is latency-bound with no batch to hide
  // it.)
  Index j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    for (Index i = 0; i < m; ++i) {
      _mm256_storeu_ps(c + i * n + j0, _mm256_setzero_ps());
    }
    for (Index kk = 0; kk < kv; kk += 8) {
      __m256 t[8];
      for (int q = 0; q < 8; ++q) {
        t[q] = _mm256_loadu_ps(b + (j0 + q) * k + kk);
      }
      transpose8(t);
      for (Index i = 0; i < m; ++i) {
        const float* __restrict ap = a + i * k + kk;
        float* __restrict cp = c + i * n + j0;
        __m256 acc = _mm256_loadu_ps(cp);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 0), t[0], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 1), t[1], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 2), t[2], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 3), t[3], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 4), t[4], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 5), t[5], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 6), t[6], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 7), t[7], acc);
        _mm256_storeu_ps(cp, acc);
      }
    }
    if (kv < k) {  // k tail: continue each element's chain in scalar
      for (Index i = 0; i < m; ++i) {
        const float* __restrict arow = a + i * k;
        float* __restrict crow = c + i * n + j0;
        for (int q = 0; q < 8; ++q) {
          const float* __restrict brow = b + (j0 + q) * k;
          float s = crow[q];
          for (Index kt = kv; kt < k; ++kt) {
            s = std::fmaf(arow[kt], brow[kt], s);
          }
          crow[q] = s;
        }
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

void axpy_avx2(float alpha, const float* __restrict x, float* __restrict y,
               std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

// --- int8 kernels ----------------------------------------------------
// The int8 contract is wraparound-i32 exactness (num::madd_i8), and
// wrapping addition is associative — so unlike the fp32 kernels above,
// these are free to reduce horizontally and regroup. The widening
// pipeline is vpmovsxbw (i8 -> i16, exact) + vpmaddwd (s16 x s16 pair
// dot into full i32 — exact here: |a*b| <= 127^2 so a pair sum is at
// most 32258, far inside i32) + vpaddd (the wrap). Deliberately NOT
// vpmaddubsw: its u8 x s8 products pair-add with *16-bit saturation*,
// which silently clamps and would break bit-exactness against the
// reference twin; vpmaddwd at half the byte density is the fastest
// AVX2 sequence that stays exact (true VNNI vpdpbusd lives in the
// avx512 backend's future — ROADMAP).

inline __m256i widen_i8(const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline std::int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline std::int32_t dot_i8_avx2(const std::int8_t* __restrict a,
                                const std::int8_t* __restrict b, Index k) {
  __m256i acc = _mm256_setzero_si256();
  Index kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(widen_i8(a + kk), widen_i8(b + kk)));
  }
  std::int32_t s = hsum_epi32(acc);
  for (; kk < k; ++kk) s = madd_i8(a[kk], b[kk], s);
  return s;
}

void gemm_a_bt_i8_avx2(const std::int8_t* __restrict a,
                       const std::int8_t* __restrict b,
                       std::int32_t* __restrict c, Index m, Index k,
                       Index n) {
  // Tile 2 rows of A x 4 rows of B: eight vpmaddwd accumulators in
  // flight, every widened A chunk reused four times and every widened B
  // chunk twice — 128 MACs per 22 vector ops, which is what buys the
  // >= 2x-over-fp32 dense throughput the bench records.
  const Index kv = k & ~Index{15};
  Index i = 0;
  for (; i + 2 <= m; i += 2) {
    const std::int8_t* __restrict a0 = a + i * k;
    const std::int8_t* __restrict a1 = a0 + k;
    std::int32_t* __restrict c0 = c + i * n;
    std::int32_t* __restrict c1 = c0 + n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* __restrict b0 = b + j * k;
      const std::int8_t* __restrict b1 = b0 + k;
      const std::int8_t* __restrict b2 = b1 + k;
      const std::int8_t* __restrict b3 = b2 + k;
      __m256i s00 = _mm256_setzero_si256();
      __m256i s01 = _mm256_setzero_si256();
      __m256i s02 = _mm256_setzero_si256();
      __m256i s03 = _mm256_setzero_si256();
      __m256i s10 = _mm256_setzero_si256();
      __m256i s11 = _mm256_setzero_si256();
      __m256i s12 = _mm256_setzero_si256();
      __m256i s13 = _mm256_setzero_si256();
      for (Index kk = 0; kk < kv; kk += 16) {
        const __m256i av0 = widen_i8(a0 + kk);
        const __m256i av1 = widen_i8(a1 + kk);
        const __m256i bv0 = widen_i8(b0 + kk);
        const __m256i bv1 = widen_i8(b1 + kk);
        const __m256i bv2 = widen_i8(b2 + kk);
        const __m256i bv3 = widen_i8(b3 + kk);
        s00 = _mm256_add_epi32(s00, _mm256_madd_epi16(av0, bv0));
        s01 = _mm256_add_epi32(s01, _mm256_madd_epi16(av0, bv1));
        s02 = _mm256_add_epi32(s02, _mm256_madd_epi16(av0, bv2));
        s03 = _mm256_add_epi32(s03, _mm256_madd_epi16(av0, bv3));
        s10 = _mm256_add_epi32(s10, _mm256_madd_epi16(av1, bv0));
        s11 = _mm256_add_epi32(s11, _mm256_madd_epi16(av1, bv1));
        s12 = _mm256_add_epi32(s12, _mm256_madd_epi16(av1, bv2));
        s13 = _mm256_add_epi32(s13, _mm256_madd_epi16(av1, bv3));
      }
      std::int32_t r00 = hsum_epi32(s00);
      std::int32_t r01 = hsum_epi32(s01);
      std::int32_t r02 = hsum_epi32(s02);
      std::int32_t r03 = hsum_epi32(s03);
      std::int32_t r10 = hsum_epi32(s10);
      std::int32_t r11 = hsum_epi32(s11);
      std::int32_t r12 = hsum_epi32(s12);
      std::int32_t r13 = hsum_epi32(s13);
      for (Index kt = kv; kt < k; ++kt) {
        r00 = madd_i8(a0[kt], b0[kt], r00);
        r01 = madd_i8(a0[kt], b1[kt], r01);
        r02 = madd_i8(a0[kt], b2[kt], r02);
        r03 = madd_i8(a0[kt], b3[kt], r03);
        r10 = madd_i8(a1[kt], b0[kt], r10);
        r11 = madd_i8(a1[kt], b1[kt], r11);
        r12 = madd_i8(a1[kt], b2[kt], r12);
        r13 = madd_i8(a1[kt], b3[kt], r13);
      }
      c0[j] = r00;
      c0[j + 1] = r01;
      c0[j + 2] = r02;
      c0[j + 3] = r03;
      c1[j] = r10;
      c1[j + 1] = r11;
      c1[j + 2] = r12;
      c1[j + 3] = r13;
    }
    for (; j < n; ++j) {
      const std::int8_t* __restrict brow = b + j * k;
      c0[j] = dot_i8_avx2(a0, brow, k);
      c1[j] = dot_i8_avx2(a1, brow, k);
    }
  }
  for (; i < m; ++i) {
    const std::int8_t* __restrict arow = a + i * k;
    std::int32_t* __restrict crow = c + i * n;
    for (Index j = 0; j < n; ++j) crow[j] = dot_i8_avx2(arow, b + j * k, k);
  }
}

// y[j] += v * row[j] over 16 i32 outputs per step: widen the row chunk,
// vpmullw against the broadcast value (exact — |v * r| <= 127^2 fits
// i16), sign-extend both halves to i32, vpaddd.
inline void accum_row_i8_avx2(std::int8_t v, const std::int8_t* __restrict row,
                              std::int32_t* __restrict y, Index n) {
  const __m256i vv = _mm256_set1_epi16(static_cast<short>(v));
  Index j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i p16 = _mm256_mullo_epi16(widen_i8(row + j), vv);
    const __m256i p0 = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p16));
    const __m256i p1 = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p16, 1));
    __m256i* yp = reinterpret_cast<__m256i*>(y + j);
    _mm256_storeu_si256(yp, _mm256_add_epi32(_mm256_loadu_si256(yp), p0));
    __m256i* yp1 = reinterpret_cast<__m256i*>(y + j + 8);
    _mm256_storeu_si256(yp1, _mm256_add_epi32(_mm256_loadu_si256(yp1), p1));
  }
  for (; j < n; ++j) y[j] = madd_i8(v, row[j], y[j]);
}

void sparse_accum_rows_i8_avx2(const std::int8_t* __restrict packed,
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
      accum_row_i8_avx2(v, row, out + b * n, n);
    }
  }
}

// One chained contribution of entry (r, v16) to 16 i32 outputs at j.
inline void chain_step_i8(__m256i& a0, __m256i& a1,
                          const std::int8_t* __restrict r, Index j,
                          __m256i v16) {
  const __m256i p16 = _mm256_mullo_epi16(widen_i8(r + j), v16);
  a0 = _mm256_add_epi32(a0,
                        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p16)));
  a1 = _mm256_add_epi32(
      a1, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p16, 1)));
}

// Int8 chain pass for the shared merge schedule (multi_schedule.h): 16
// outputs per step, up to kMultiGroup entries chained per out-row pass.
struct Avx2MultiChainPassI8 {
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
    const __m256i v0 = _mm256_set1_epi16(static_cast<short>(gv[0]));
    const __m256i v1 =
        _mm256_set1_epi16(static_cast<short>(C > 1 ? gv[1] : std::int8_t{0}));
    const __m256i v2 =
        _mm256_set1_epi16(static_cast<short>(C > 2 ? gv[2] : std::int8_t{0}));
    const __m256i v3 =
        _mm256_set1_epi16(static_cast<short>(C > 3 ? gv[3] : std::int8_t{0}));
    const __m256i v4 =
        _mm256_set1_epi16(static_cast<short>(C > 4 ? gv[4] : std::int8_t{0}));
    const __m256i v5 =
        _mm256_set1_epi16(static_cast<short>(C > 5 ? gv[5] : std::int8_t{0}));
    const __m256i v6 =
        _mm256_set1_epi16(static_cast<short>(C > 6 ? gv[6] : std::int8_t{0}));
    const __m256i v7 =
        _mm256_set1_epi16(static_cast<short>(C > 7 ? gv[7] : std::int8_t{0}));
    Index j = jt;
    for (; j + 16 <= je; j += 16) {
      __m256i a0 = Ow ? _mm256_setzero_si256()
                      : _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(y + j));
      __m256i a1 = Ow ? _mm256_setzero_si256()
                      : _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(y + j + 8));
      chain_step_i8(a0, a1, r0, j, v0);
      if (C > 1) chain_step_i8(a0, a1, r1, j, v1);
      if (C > 2) chain_step_i8(a0, a1, r2, j, v2);
      if (C > 3) chain_step_i8(a0, a1, r3, j, v3);
      if (C > 4) chain_step_i8(a0, a1, r4, j, v4);
      if (C > 5) chain_step_i8(a0, a1, r5, j, v5);
      if (C > 6) chain_step_i8(a0, a1, r6, j, v6);
      if (C > 7) chain_step_i8(a0, a1, r7, j, v7);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j), a0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j + 8), a1);
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

void sparse_accum_rows_multi_i8_avx2(const std::int8_t* __restrict packed,
                                     const Index* __restrict positions,
                                     const Index* __restrict row_start,
                                     const std::int8_t* __restrict values,
                                     std::int32_t* __restrict out, Index batch,
                                     Index n) {
  sparse_accum_rows_multi_schedule<Avx2MultiChainPassI8, false, std::int8_t,
                                   std::int32_t>(packed, positions, row_start,
                                                 values, out, batch, n);
}

// --- gate activations ------------------------------------------------
// Eight lanes of the scalar sequence in num/activations.h, op for op:
// _mm256_round_ps(nearest) is std::nearbyint, _mm256_fmadd_ps is
// num::madd, _mm256_min_ps(a, c) returns c for a NaN a exactly like
// std::min(c, a), and the 2^n scale is the same integer add on the
// exponent bits. NaN lanes are replaced by the input at the end.

inline __m256 exp_reduced8(__m256 t) {
  const __m256 n =
      _mm256_round_ps(_mm256_mul_ps(t, _mm256_set1_ps(act::kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 neg_n = _mm256_xor_ps(n, _mm256_set1_ps(-0.0f));
  __m256 r = _mm256_fmadd_ps(neg_n, _mm256_set1_ps(act::kLn2Hi), t);
  r = _mm256_fmadd_ps(neg_n, _mm256_set1_ps(act::kLn2Lo), r);
  __m256 p = _mm256_set1_ps(act::kExpPoly[0]);
  for (int k = 1; k < 6; ++k) {
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(act::kExpPoly[k]));
  }
  const __m256 one = _mm256_set1_ps(1.0f);
  p = _mm256_fmadd_ps(p, r, one);
  p = _mm256_fmadd_ps(p, r, one);
  const __m256i scale = _mm256_slli_epi32(_mm256_cvtps_epi32(n), 23);
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(p), scale));
}

inline __m256 keep_nan8(__m256 x, __m256 y) {
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

inline __m256 sigmoid8(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 a = _mm256_min_ps(_mm256_andnot_ps(sign, x),
                                 _mm256_set1_ps(act::kSigmoidClamp));
  const __m256 z = exp_reduced8(_mm256_xor_ps(a, sign));
  // blendv keys on the sign bit: z/(1+z) where x's is set, else 1/(1+z).
  const __m256 y =
      _mm256_div_ps(_mm256_blendv_ps(one, z, x), _mm256_add_ps(one, z));
  return keep_nan8(x, y);
}

inline __m256 tanh8(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 a = _mm256_andnot_ps(sign, x);
  const __m256 z = _mm256_mul_ps(a, a);
  __m256 q = _mm256_set1_ps(act::kTanhPoly[0]);
  for (int k = 1; k < 5; ++k) {
    q = _mm256_fmadd_ps(q, z, _mm256_set1_ps(act::kTanhPoly[k]));
  }
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(q, z), a, a);
  const __m256 e = exp_reduced8(_mm256_mul_ps(
      two, _mm256_min_ps(a, _mm256_set1_ps(act::kTanhClamp))));
  const __m256 large =
      _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
  const __m256 y = _mm256_blendv_ps(
      large, small,
      _mm256_cmp_ps(a, _mm256_set1_ps(act::kTanhSmall), _CMP_LT_OQ));
  // copysign(y, x)
  const __m256 signed_y =
      _mm256_or_ps(_mm256_andnot_ps(sign, y), _mm256_and_ps(x, sign));
  return keep_nan8(x, signed_y);
}

// Full vectors first (each block is loaded before it is stored, so y may
// equal x); the tail runs the same vector sequence on a padded copy.
template <__m256 (*F)(__m256)>
void map8(const float* x, float* y, std::size_t n) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm256_storeu_ps(y + k, F(_mm256_loadu_ps(x + k)));
  }
  if (k == n) return;
  alignas(32) float tail[8] = {};
  std::memcpy(tail, x + k, (n - k) * sizeof(float));
  _mm256_store_ps(tail, F(_mm256_load_ps(tail)));
  std::memcpy(y + k, tail, (n - k) * sizeof(float));
}

void sigmoid_avx2(const float* x, float* y, std::size_t n) {
  map8<sigmoid8>(x, y, n);
}

void tanh_avx2(const float* x, float* y, std::size_t n) {
  map8<tanh8>(x, y, n);
}

}  // namespace

const KernelBackend kAvx2Backend = {
    "avx2",
    "AVX2+FMA intrinsics; needs cpuid avx2+fma and an FMA-contracted base "
    "build (-march=native or -mfma)",
    avx2_available,
    gemm_rows_avx2,
    gemm_a_bt_rows_avx2,
    gemv_avx2,
    sparse_accum_rows_avx2,
    sparse_accum_rows_multi_avx2,
    sparse_accum_rows_multi_overwrite_avx2,
    axpy_avx2,
    gemm_a_bt_i8_avx2,
    sparse_accum_rows_i8_avx2,
    sparse_accum_rows_multi_i8_avx2,
    sigmoid_avx2,
    tanh_avx2,
};

}  // namespace zss::num::simd

#else  // not an x86 AVX2+FMA build: keep the registry entry as a stub

namespace zss::num::simd {

namespace {
bool never_available() { return false; }
}  // namespace

const KernelBackend kAvx2Backend = {
    "avx2",
    "AVX2+FMA intrinsics; not compiled into this binary (x86 with "
    "-mavx2 -mfma required)",
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
