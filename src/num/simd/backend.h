// Runtime-dispatched SIMD kernel backends.
//
// A KernelBackend is a table of raw-pointer kernels for the hot loops of
// the library (the shape checks, output sizing and parallel_for row
// partitioning stay in num/kernels.cc — backends are pure number
// crunchers over pre-validated buffers). One backend is selected at
// first use: the highest-priority backend whose available() check
// passes, or the one named by the ZSS_KERNEL_BACKEND environment
// variable (scalar | avx2 | avx512 | neon). Unknown or unavailable
// names fall back to scalar with a warning on stderr.
//
// Every backend implements the same contract as num::reference (see
// docs/exactness.md): the additions feeding one output element run as a
// single serial chain in ascending position order, and every
// multiply-accumulate is fused exactly when num::madd is fused. SIMD
// implementations therefore vectorize across *independent* output
// elements (lane q carries output element q's own chain) and never
// horizontally reduce — which is what makes step() vs step_dense()
// bit-identical within any backend, and every backend 0-ULP-identical
// to every other one built with the same madd flavour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "num/types.h"

namespace zss::num::simd {

struct KernelBackend {
  /// Name used by ZSS_KERNEL_BACKEND and in bench/test output.
  const char* name;
  /// One-line description, including ISA/build requirements.
  const char* description;
  /// Runtime check (cpuid + build-flavour); cheap, callable at any time.
  bool (*available)();

  // --- kernel table (null in stub backends) ---------------------------
  /// C[0..m) rows of C = A * B; every row of C is pre-zeroed by the
  /// caller. Exact zeros in A are skipped (IEEE identity).
  void (*gemm_rows)(const float* a, const float* b, float* c, Index m,
                    Index k, Index n);
  /// C[0..m) rows of C = A * B^T (B is n x k); every element written.
  void (*gemm_a_bt_rows)(const float* a, const float* b, float* c, Index m,
                         Index k, Index n);
  /// y = W x for W (m x n) row-major.
  void (*gemv)(const float* w, const float* x, float* y, Index m, Index n);
  /// out.row(b) += values[e * batch + b] * packed.row(positions[e]) for
  /// every kept position e (ascending) and batch lane b. Positions are
  /// pre-validated by the caller; zero-valued lanes are skipped.
  void (*sparse_accum_rows)(const float* packed, const Index* positions,
                            std::size_t n_positions, const float* values,
                            float* out, Index batch, Index n);
  /// Per-lane (CSR) variant: for each lane b, out.row(b) +=
  /// values[e] * packed.row(positions[e]) over b's own kept entries
  /// e in [row_start[b], row_start[b+1]), ascending. Each output element
  /// (b, j) keeps one serial ascending-position chain; implementations
  /// may group several positions into one pass over the out row (the
  /// chain order is unchanged) but must not reorder within a lane.
  /// Values are the lane's non-zero elements by construction; a zero
  /// value, if passed, is accumulated (an IEEE identity), not skipped.
  void (*sparse_accum_rows_multi)(const float* packed, const Index* positions,
                                  const Index* row_start, const float* values,
                                  float* out, Index batch, Index n);
  /// Overwrite flavour of sparse_accum_rows_multi: out.row(b) *is* the
  /// lane's accumulation (out treated as uninitialized; every element
  /// written, lanes with no entries zero-filled). Bit-identical to
  /// zero-filling out and calling sparse_accum_rows_multi — each chain
  /// starts from madd(v0, row0[j], +0.0f) — which lets the engine skip
  /// its per-step staging zero fill (num/simd/multi_schedule.h).
  void (*sparse_accum_rows_multi_overwrite)(const float* packed,
                                            const Index* positions,
                                            const Index* row_start,
                                            const float* values, float* out,
                                            Index batch, Index n);
  /// y += alpha * x.
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);

  // --- int8 kernel table (i32 accumulation) ---------------------------
  // The int8 contract differs from fp32 (docs/exactness.md "int8"): every
  // product a*b is exact in i32 and accumulation wraps mod 2^32, which is
  // associative and commutative — so int8 kernels MAY reduce horizontally
  // and regroup freely; any summation order is bit-identical. The slots
  // default to nullptr so backends that predate them (or out-of-tree
  // tables) stay valid aggregates; num/kernels.cc falls back to the
  // scalar table per call when the active backend leaves a slot empty.
  /// C (m x n, i32) = A (m x k, i8) * B^T (B is n x k, i8); every
  /// element overwritten.
  void (*gemm_a_bt_i8)(const std::int8_t* a, const std::int8_t* b,
                       std::int32_t* c, Index m, Index k, Index n) = nullptr;
  /// Int8 twin of sparse_accum_rows: out.row(b) += values[e * batch + b]
  /// * packed.row(positions[e]) in i32; zero-valued lanes skipped (an
  /// exact identity in integer arithmetic too).
  void (*sparse_accum_rows_i8)(const std::int8_t* packed,
                               const Index* positions,
                               std::size_t n_positions,
                               const std::int8_t* values, std::int32_t* out,
                               Index batch, Index n) = nullptr;
  /// Int8 twin of sparse_accum_rows_multi (accumulate flavour only; the
  /// engine zero-fills its i32 staging — a memset, cheap next to the
  /// fp32 case where the overwrite flavour pays for itself).
  void (*sparse_accum_rows_multi_i8)(const std::int8_t* packed,
                                     const Index* positions,
                                     const Index* row_start,
                                     const std::int8_t* values,
                                     std::int32_t* out, Index batch,
                                     Index n) = nullptr;

  // --- fp32 gate activations -----------------------------------------
  // Elementwise y[k] = f(x[k]) over a span, running exactly the scalar
  // operation sequence of num::sigmoid / num::tanh_act (num/activations.h)
  // in every lane, the tail included, so each slot is bit-identical to
  // the scalar functions for every non-NaN input (NaN in gives NaN out).
  // y may equal x (in place) but must not partially overlap it. Empty
  // slots fall back to the scalar table per call, as the int8 slots do.
  void (*sigmoid)(const float* x, float* y, std::size_t n) = nullptr;
  void (*tanh)(const float* x, float* y, std::size_t n) = nullptr;

  /// True when the kernel table is populated (false for stubs).
  bool implemented() const { return gemm_rows != nullptr; }
  /// True when the int8 kernel table is populated. Tracked separately so
  /// dispatch can fall back slot-by-slot instead of rejecting a backend
  /// that only grew the fp32 table.
  bool implemented_i8() const { return gemm_a_bt_i8 != nullptr; }
  /// True when the activation slots are populated (same per-call
  /// fallback rule as the int8 table).
  bool implemented_activations() const { return sigmoid != nullptr; }
  /// True when this backend can actually run here.
  bool usable() const { return implemented() && available(); }
};

/// The four backends every binary carries. On foreign architectures a
/// backend degrades to a stub entry (implemented() == false) so the
/// registry listing is uniform everywhere.
extern const KernelBackend kScalarBackend;  // PR-1 blocked loops, portable
extern const KernelBackend kAvx2Backend;    // AVX2+FMA, x86 only
extern const KernelBackend kAvx512Backend;  // stub — see its description
extern const KernelBackend kNeonBackend;    // NEON, aarch64 only

/// All compiled-in backends in selection-priority order (stubs included;
/// check usable()).
std::span<const KernelBackend* const> registered_backends();

/// The backends that can run on this machine, priority order. Never
/// empty (scalar is always usable).
std::vector<const KernelBackend*> available_backends();

/// The backend the num:: kernels dispatch to. Resolved once on first
/// call from ZSS_KERNEL_BACKEND / cpuid; a fallback warning is printed
/// to stderr at resolution time.
const KernelBackend& active_backend();

/// Pure resolution logic (no caching, no printing): `requested` is the
/// value of ZSS_KERNEL_BACKEND (null/empty means auto-select). When the
/// request cannot be honoured, returns scalar and explains why in
/// *warning. Exposed so tests can cover the fallback paths directly.
const KernelBackend& resolve_backend(const char* requested,
                                     std::string* warning);

/// Test/bench hook: force `backend` (must be usable), or pass nullptr to
/// drop the cached choice so the next active_backend() re-resolves from
/// the environment. Not thread-safe against running kernels.
void set_backend_for_testing(const KernelBackend* backend);

}  // namespace zss::num::simd
