#include "core/sparse_inference.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>

#include "num/parallel.h"
#include "num/rng.h"
#include "num/simd/backend.h"

// Global operator new instrumented for the zero-allocation contract:
// counting every allocation in the binary lets the test assert that a
// warmed-up step() performs none at all, not just none via Workspace.
namespace {
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace zss::core {
namespace {

using num::Index;
using num::Matrix;
using num::Rng;

Matrix random_matrix(Index rows, Index cols, Rng& rng, double scale = 0.5) {
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.uniform(-scale, scale));
  return m;
}

class SparseInferenceTest : public ::testing::Test {
 protected:
  SparseInferenceTest() : rng_(42), cell_(4, 12, rng_) {}

  Rng rng_;
  nn::LstmCell cell_;
};

TEST_F(SparseInferenceTest, SparseStepMatchesDenseStepExactly) {
  StatePruner pruner(PrunerConfig::target(0.75));
  SparseLstmEngine sparse(cell_, pruner);
  SparseLstmEngine dense(cell_, pruner);

  Matrix h_s(2, 12, 0.0f);
  Matrix c_s(2, 12, 0.0f);
  Matrix h_d(2, 12, 0.0f);
  Matrix c_d(2, 12, 0.0f);
  for (int t = 0; t < 20; ++t) {
    const Matrix x = random_matrix(2, 4, rng_);
    sparse.step(x, h_s, c_s);
    dense.step_dense(x, h_d, c_d);
    // Bit-exact: skipped terms are IEEE identities and the accumulation
    // order of surviving terms matches.
    EXPECT_EQ(h_s, h_d) << "step " << t;
    EXPECT_EQ(c_s, c_d) << "step " << t;
  }
}

TEST(SparseInferenceBackendTest, StateIsBitEqualAcrossBackends) {
  // h and c after 20 steps must not depend on the kernel backend: the
  // gate activations run one operation sequence in every backend, and
  // dh = 13 leaves a tail in every vector width. Batch 1 and batch 3
  // cover both recurrent paths.
  for (const Index dh : {Index{13}, Index{64}}) {
    for (const Index batch : {Index{1}, Index{3}}) {
      Rng rng(7);
      const nn::LstmCell cell(5, dh, rng);
      const StatePruner pruner(PrunerConfig::fixed(0.05f));
      Matrix h_ref;
      Matrix c_ref;
      for (const num::simd::KernelBackend* backend :
           num::simd::available_backends()) {
        num::simd::set_backend_for_testing(backend);
        SparseLstmEngine engine(cell, pruner);
        Matrix h(batch, dh, 0.0f);
        Matrix c(batch, dh, 0.0f);
        Rng inputs(11);  // the same 20 inputs under every backend
        for (int t = 0; t < 20; ++t) {
          engine.step(random_matrix(batch, 5, inputs, 2.0), h, c);
        }
        num::simd::set_backend_for_testing(nullptr);
        if (h_ref.size() == 0) {
          h_ref = h;
          c_ref = c;
          continue;
        }
        const auto bytes = static_cast<std::size_t>(h.size()) * sizeof(float);
        EXPECT_EQ(std::memcmp(h.data(), h_ref.data(), bytes), 0)
            << backend->name << " dh=" << dh << " batch=" << batch;
        EXPECT_EQ(std::memcmp(c.data(), c_ref.data(), bytes), 0)
            << backend->name << " dh=" << dh << " batch=" << batch;
      }
    }
  }
}

TEST_F(SparseInferenceTest, BatchedPerLanePathMatchesDenseExactly) {
  // The B > 1 per-lane CSR path (num::sparse_accum_rows_multi) must be
  // bit-identical to the dense baseline at every batch size, exactly
  // like the B == 1 offset-encoded path: a lane's chain accumulates its
  // own kept positions in ascending order, and the dense chain differs
  // from it only by exact-zero terms (IEEE identities).
  for (const num::Index batch : {num::Index{2}, num::Index{8},
                                 num::Index{32}}) {
    StatePruner pruner(PrunerConfig::target(0.6));
    SparseLstmEngine sparse(cell_, pruner);
    SparseLstmEngine dense(cell_, pruner);
    Matrix h_s(batch, 12, 0.0f), c_s(batch, 12, 0.0f);
    Matrix h_d(batch, 12, 0.0f), c_d(batch, 12, 0.0f);
    for (int t = 0; t < 12; ++t) {
      const Matrix x = random_matrix(batch, 4, rng_);
      sparse.step(x, h_s, c_s);
      dense.step_dense(x, h_d, c_d);
      ASSERT_EQ(h_s, h_d) << "batch " << batch << " step " << t;
      ASSERT_EQ(c_s, c_d) << "batch " << batch << " step " << t;
    }
  }
}

TEST_F(SparseInferenceTest, PerLaneStatsTrackLaneSparsityNotIntersection) {
  // At batch 4 with ~50% per-lane sparsity, the union (intersection
  // skip) keeps ~1 - 0.5^4 ~= 94% of positions, but the per-lane path
  // only performs each lane's own work (~50%): the stats must report
  // both quantities separately, and the effectual MACs must follow the
  // per-lane count, not batch * union.
  StatePruner pruner(PrunerConfig::target(0.5));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(4, 12, 0.0f), c(4, 12, 0.0f);
  for (int t = 0; t < 30; ++t) {
    const Matrix x = random_matrix(4, 4, rng_);
    engine.step(x, h, c);
  }
  const auto& stats = engine.stats();
  ASSERT_GT(stats.lane_positions, 0);
  EXPECT_EQ(stats.lane_positions, stats.positions * 4);
  // Per-lane observed sparsity tracks the pruner's target...
  EXPECT_NEAR(stats.observed_lane_sparsity(), 0.5, 0.1);
  // ...while the union sparsity collapses toward zero (Fig. 7).
  EXPECT_LT(stats.observed_sparsity(), 0.25);
  // Effectual MACs are the per-lane work, exactly.
  EXPECT_EQ(stats.state_macs_effectual, stats.lane_kept_positions * 4 * 12);
  EXPECT_LT(stats.state_macs_effectual,
            stats.kept_positions * 4 * 4 * 12);  // < batch * union work
  // The per-step snapshot carries the same split.
  const StepStats& last = engine.last_step_stats();
  EXPECT_EQ(last.batch, 4);
  EXPECT_LE(last.kept_positions, last.lane_kept_positions);
  EXPECT_NEAR(last.observed_lane_sparsity(), 0.5, 0.15);
}

TEST_F(SparseInferenceTest, StatsCountSkippedWork) {
  StatePruner pruner(PrunerConfig::target(0.5));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(1, 12, 0.0f);
  Matrix c(1, 12, 0.0f);
  const Matrix x = random_matrix(1, 4, rng_);
  engine.step(x, h, c);  // first step: h starts all-zero -> max skipping
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.steps, 1);
  EXPECT_EQ(stats.state_macs_effectual, 0);  // zero state: all skipped
  EXPECT_EQ(stats.state_macs_total, 12 * 48);
  EXPECT_EQ(stats.input_macs, 4 * 48);
  EXPECT_DOUBLE_EQ(stats.observed_sparsity(), 1.0);

  engine.step(x, h, c);  // now the state is ~50% sparse
  EXPECT_EQ(engine.stats().steps, 2);
  EXPECT_GT(engine.stats().state_macs_effectual, 0);
  EXPECT_LT(engine.stats().state_macs_effectual,
            engine.stats().state_macs_total);
}

TEST_F(SparseInferenceTest, SpeedupTracksSparsity) {
  StatePruner pruner(PrunerConfig::target(0.75));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(1, 12, 0.0f);
  Matrix c(1, 12, 0.0f);
  for (int t = 0; t < 50; ++t) {
    const Matrix x = random_matrix(1, 4, rng_);
    engine.step(x, h, c);
  }
  // 75% target sparsity at batch 1: state matvec speedup ~= 4x.
  EXPECT_NEAR(engine.stats().state_speedup(), 4.0, 1.0);
}

TEST_F(SparseInferenceTest, BatchIntersectionLimitsSkipping) {
  // With a batch, only positions zero in ALL lanes are skipped, so the
  // effectual fraction must exceed the per-lane density.
  StatePruner pruner(PrunerConfig::target(0.5));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(4, 12, 0.0f);
  Matrix c(4, 12, 0.0f);
  for (int t = 0; t < 30; ++t) {
    const Matrix x = random_matrix(4, 4, rng_);
    engine.step(x, h, c);
  }
  // Kept fraction >= per-element density (0.5); typically much more.
  const double kept = 1.0 - engine.stats().observed_sparsity();
  EXPECT_GE(kept, 0.45);
}

TEST_F(SparseInferenceTest, DenseEngineNeverSkips) {
  StatePruner pruner(PrunerConfig::none());
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(1, 12, 0.0f);
  Matrix c(1, 12, 0.0f);
  const Matrix x = random_matrix(1, 4, rng_);
  engine.step(x, h, c);   // all-zero initial state still skips...
  engine.step(x, h, c);   // ...but a dense state afterwards must not
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.kept_positions, 0 + 12);
  EXPECT_DOUBLE_EQ(stats.observed_sparsity(), 0.5);
}

TEST_F(SparseInferenceTest, ResetStatsClears) {
  StatePruner pruner(PrunerConfig::none());
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(1, 12, 0.0f);
  Matrix c(1, 12, 0.0f);
  const Matrix x = random_matrix(1, 4, rng_);
  engine.step(x, h, c);
  engine.reset_stats();
  EXPECT_EQ(engine.stats().steps, 0);
  EXPECT_EQ(engine.stats().state_macs_total, 0);
}

TEST_F(SparseInferenceTest, SpeedupReportsDenseTotalWhenAllSkipped) {
  StatePruner pruner(PrunerConfig::target(0.5));
  SparseLstmEngine engine(cell_, pruner);
  EXPECT_DOUBLE_EQ(engine.stats().state_speedup(), 0.0);  // no steps yet

  Matrix h(1, 12, 0.0f);
  Matrix c(1, 12, 0.0f);
  const Matrix x = random_matrix(1, 4, rng_);
  engine.step(x, h, c);  // all-zero state: every state MAC was skipped
  const auto& stats = engine.stats();
  ASSERT_EQ(stats.state_macs_effectual, 0);
  ASSERT_GT(stats.state_macs_total, 0);
  // Everything was skipped, so the speedup bound is the whole dense
  // cost — reporting 0.0 here would read as "no speedup at all".
  EXPECT_DOUBLE_EQ(stats.state_speedup(),
                   static_cast<double>(stats.state_macs_total));
}

TEST_F(SparseInferenceTest, StepIsAllocationFreeOnceWarm) {
  StatePruner pruner(PrunerConfig::target(0.75));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(2, 12, 0.0f);
  Matrix c(2, 12, 0.0f);
  const Matrix x = random_matrix(2, 4, rng_);
  for (int t = 0; t < 3; ++t) engine.step(x, h, c);  // warm-up

  const std::size_t ws_warm = engine.workspace().allocation_count();
  const std::size_t heap_warm = g_alloc_count;
  for (int t = 0; t < 20; ++t) engine.step(x, h, c);
  EXPECT_EQ(engine.workspace().allocation_count(), ws_warm);
  EXPECT_EQ(g_alloc_count, heap_warm);
}

TEST_F(SparseInferenceTest, StepDenseIsAllocationFreeOnceWarm) {
  StatePruner pruner(PrunerConfig::target(0.75));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(1, 12, 0.0f);
  Matrix c(1, 12, 0.0f);
  const Matrix x = random_matrix(1, 4, rng_);
  for (int t = 0; t < 3; ++t) engine.step_dense(x, h, c);

  const std::size_t heap_warm = g_alloc_count;
  for (int t = 0; t < 20; ++t) engine.step_dense(x, h, c);
  EXPECT_EQ(g_alloc_count, heap_warm);
}

TEST_F(SparseInferenceTest, ReserveMakesTheFirstStepAllocationFree) {
  StatePruner pruner(PrunerConfig::target(0.75));
  SparseLstmEngine engine(cell_, pruner);
  engine.reserve(4);
  Matrix h(4, 12, 0.0f);
  Matrix c(4, 12, 0.0f);
  const Matrix x = random_matrix(4, 4, rng_);
  Matrix h2(2, 12, 0.0f), c2(2, 12, 0.0f);
  const Matrix x2 = random_matrix(2, 4, rng_);

  const std::size_t ws_warm = engine.workspace().allocation_count();
  const std::size_t heap_warm = g_alloc_count;
  engine.step(x, h, c);  // very first step — reserve() already warmed it
  EXPECT_EQ(engine.workspace().allocation_count(), ws_warm);
  EXPECT_EQ(g_alloc_count, heap_warm);

  // Any batch size at or below the reservation reuses the same buffers.
  engine.step(x2, h2, c2);
  EXPECT_EQ(engine.workspace().allocation_count(), ws_warm);
  EXPECT_EQ(g_alloc_count, heap_warm);
}

TEST_F(SparseInferenceTest, LastStepStatsSnapshotNeverAccumulates) {
  StatePruner pruner(PrunerConfig::target(0.5));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(2, 12, 0.0f);
  Matrix c(2, 12, 0.0f);
  const Matrix x = random_matrix(2, 4, rng_);

  engine.step(x, h, c);  // all-zero state: everything skipped
  EXPECT_EQ(engine.last_step_stats().batch, 2);
  EXPECT_EQ(engine.last_step_stats().positions, 12);
  EXPECT_EQ(engine.last_step_stats().kept_positions, 0);
  EXPECT_DOUBLE_EQ(engine.last_step_stats().observed_sparsity(), 1.0);
  EXPECT_NEAR(engine.last_step_stats().lane_sparsity, 0.5, 0.15);

  engine.step(x, h, c);  // ~50% sparse state now
  const StepStats snap = engine.last_step_stats();
  EXPECT_EQ(snap.batch, 2);
  EXPECT_GT(snap.kept_positions, 0);
  EXPECT_EQ(snap.positions, 12);  // a snapshot, not a running sum

  // reset_stats() clears the cumulative counters but not the snapshot.
  engine.reset_stats();
  EXPECT_EQ(engine.stats().steps, 0);
  EXPECT_EQ(engine.last_step_stats().batch, 2);
  EXPECT_EQ(engine.last_step_stats().kept_positions, snap.kept_positions);
}

TEST_F(SparseInferenceTest, ContractHoldsWithThreadingEnabled) {
  // parallel_for partitions rows without reordering any accumulation, so
  // the sparse/dense bit-exactness contract must survive thread counts.
  // Batch 8 matters: the kernels partition over the batch/row dimension,
  // and kParallelGrain-sized chunks only split for >= 2*grain rows — a
  // smaller batch would silently run the single-threaded path.
  static_assert(8 >= 2 * num::kParallelGrain);
  StatePruner pruner(PrunerConfig::target(0.75));
  SparseLstmEngine sparse(cell_, pruner);
  SparseLstmEngine dense(cell_, pruner);
  Matrix h_s(8, 12, 0.0f), c_s(8, 12, 0.0f);
  Matrix h_d(8, 12, 0.0f), c_d(8, 12, 0.0f);
  num::set_num_threads(2);
  for (int t = 0; t < 10; ++t) {
    const Matrix x = random_matrix(8, 4, rng_);
    sparse.step(x, h_s, c_s);
    dense.step_dense(x, h_d, c_d);
    EXPECT_EQ(h_s, h_d) << "step " << t;
    EXPECT_EQ(c_s, c_d) << "step " << t;
  }
  num::set_num_threads(1);
}

TEST_F(SparseInferenceTest, PackedWeightsExposedAndTransposed) {
  StatePruner pruner(PrunerConfig::none());
  SparseLstmEngine engine(cell_, pruner);
  const auto& packed = engine.packed_weights();
  ASSERT_EQ(packed.wht.rows(), 12);
  ASSERT_EQ(packed.wht.cols(), 48);
  for (num::Index j = 0; j < 12; ++j) {
    for (num::Index k = 0; k < 48; ++k) {
      EXPECT_EQ(packed.wht(j, k), cell_.wh().value(k, j));
    }
  }
}

TEST_F(SparseInferenceTest, StoredStateIsPruned) {
  StatePruner pruner(PrunerConfig::target(0.9));
  SparseLstmEngine engine(cell_, pruner);
  Matrix h(1, 12, 0.0f);
  Matrix c(1, 12, 0.0f);
  for (int t = 0; t < 5; ++t) {
    const Matrix x = random_matrix(1, 4, rng_);
    engine.step(x, h, c);
  }
  Index zeros = 0;
  for (float v : h.flat()) {
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GE(zeros, 10);  // ~90% of 12
}

}  // namespace
}  // namespace zss::core
