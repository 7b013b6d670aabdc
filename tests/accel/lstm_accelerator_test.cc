#include "accel/lstm_accelerator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "num/rng.h"

namespace zss::accel {
namespace {

using num::Index;
using num::Matrix;
using num::Rng;

Matrix random_input(Index rows, Index cols, Rng& rng) {
  Matrix x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

class LstmAcceleratorTest : public ::testing::Test {
 protected:
  LstmAcceleratorTest() : rng_(11), cell_(8, 32, rng_) {
    // Shrink the recurrent weights a little so quantized preacts stay
    // inside the LUT range (trained nets satisfy this naturally).
    for (float& v : cell_.wh().value.flat()) v *= 0.5f;
  }

  Rng rng_;
  nn::LstmCell cell_;
};

TEST_F(LstmAcceleratorTest, FidelityAgainstFloatReference) {
  LstmAcceleratorOptions opt;
  opt.prune_threshold = 0.05f;
  LstmAccelerator accel(AcceleratorConfig{}, opt, cell_);
  accel.reset(2);
  for (int t = 0; t < 30; ++t) {
    accel.step(random_input(2, 8, rng_));
  }
  EXPECT_GT(accel.fidelity_cosine(), 0.95);
}

TEST_F(LstmAcceleratorTest, HiddenStateBoundedAndPruned) {
  LstmAcceleratorOptions opt;
  opt.prune_threshold = 0.2f;
  LstmAccelerator accel(AcceleratorConfig{}, opt, cell_);
  accel.reset(1);
  for (int t = 0; t < 10; ++t) accel.step(random_input(1, 8, rng_));
  const Matrix h = accel.hidden_state();
  for (float v : h.flat()) {
    EXPECT_LE(std::fabs(v), 1.0f);
    // Every stored value is 0 or at least the prune threshold (up to
    // one quantization step of slack).
    if (v != 0.0f) {
      EXPECT_GE(std::fabs(v), 0.2f - 1.5f / 127.0f);
    }
  }
}

TEST_F(LstmAcceleratorTest, SparseRunsFasterThanDense) {
  LstmAcceleratorOptions opt;
  opt.prune_threshold = 0.3f;  // aggressive pruning
  LstmAccelerator sparse(AcceleratorConfig{}, opt, cell_);
  LstmAccelerator dense(AcceleratorConfig{}, opt, cell_);
  sparse.reset(1);
  dense.reset(1);
  for (int t = 0; t < 20; ++t) {
    const Matrix x = random_input(1, 8, rng_);
    sparse.step(x);
    dense.step_dense(x);
  }
  EXPECT_LT(sparse.totals().cycles, dense.totals().cycles);
  // Equivalent ops are identical: speedup shows up as higher GOPS.
  EXPECT_DOUBLE_EQ(sparse.totals().equivalent_ops,
                   dense.totals().equivalent_ops);
}

TEST_F(LstmAcceleratorTest, SparseAndDenseTimingSameFunctionalResult) {
  LstmAcceleratorOptions opt;
  opt.prune_threshold = 0.1f;
  LstmAccelerator a(AcceleratorConfig{}, opt, cell_);
  LstmAccelerator b(AcceleratorConfig{}, opt, cell_);
  a.reset(2);
  b.reset(2);
  for (int t = 0; t < 15; ++t) {
    const Matrix x = random_input(2, 8, rng_);
    a.step(x);        // sparse timing
    b.step_dense(x);  // dense timing, same datapath & pruning
  }
  EXPECT_EQ(a.hidden_state(), b.hidden_state());
  EXPECT_EQ(a.cell_state(), b.cell_state());
}

TEST_F(LstmAcceleratorTest, TotalsAccumulateAcrossSteps) {
  LstmAcceleratorOptions opt;
  LstmAccelerator accel(AcceleratorConfig{}, opt, cell_);
  accel.reset(1);
  accel.step(random_input(1, 8, rng_));
  const auto after_one = accel.totals().cycles;
  accel.step(random_input(1, 8, rng_));
  EXPECT_GT(accel.totals().cycles, after_one);
  EXPECT_EQ(accel.totals().timesteps, 2);
  accel.reset_totals();
  EXPECT_EQ(accel.totals().timesteps, 0);
}

TEST_F(LstmAcceleratorTest, NarrowAccumulatorsSaturateWideOnesDoNot) {
  LstmAcceleratorOptions narrow;
  narrow.track_reference = false;
  AcceleratorConfig cfg;
  cfg.scratch_bits = 8;  // much too narrow for a 32-long dot product
  cfg.accum_pre_shift = 0;
  LstmAccelerator accel_narrow(cfg, narrow, cell_);
  accel_narrow.reset(1);
  for (int t = 0; t < 5; ++t) accel_narrow.step(random_input(1, 8, rng_));
  EXPECT_GT(accel_narrow.saturation_events(), 0);

  LstmAcceleratorOptions ideal;
  ideal.ideal_accumulators = true;
  ideal.track_reference = false;
  LstmAccelerator accel_ideal(AcceleratorConfig{}, ideal, cell_);
  accel_ideal.reset(1);
  for (int t = 0; t < 5; ++t) accel_ideal.step(random_input(1, 8, rng_));
  EXPECT_EQ(accel_ideal.saturation_events(), 0);
}

TEST_F(LstmAcceleratorTest, TwelveBitScratchCloseToIdeal) {
  // The paper's 12-bit partials with pre-shift 6 should track the ideal
  // int32 datapath closely on realistic magnitudes.
  LstmAcceleratorOptions opt12;
  opt12.prune_threshold = 0.05f;
  LstmAccelerator accel12(AcceleratorConfig{}, opt12, cell_);
  LstmAcceleratorOptions opt_ideal = opt12;
  opt_ideal.ideal_accumulators = true;
  LstmAccelerator accel_ideal(AcceleratorConfig{}, opt_ideal, cell_);
  accel12.reset(1);
  accel_ideal.reset(1);
  for (int t = 0; t < 20; ++t) {
    const Matrix x = random_input(1, 8, rng_);
    accel12.step(x);
    accel_ideal.step(x);
  }
  const Matrix h12 = accel12.hidden_state();
  const Matrix hid = accel_ideal.hidden_state();
  double diff = 0.0;
  for (Index i = 0; i < h12.size(); ++i) {
    diff += std::fabs(h12.flat()[static_cast<std::size_t>(i)] -
                      hid.flat()[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(diff / static_cast<double>(h12.size()), 0.08);
}

TEST_F(LstmAcceleratorTest, ZeroStateFirstStepSkipsEverything) {
  LstmAcceleratorOptions opt;
  opt.prune_threshold = 0.1f;
  opt.input_mode = InputMode::kDense;
  LstmAccelerator accel(AcceleratorConfig{}, opt, cell_);
  accel.reset(1);
  accel.step(random_input(1, 8, rng_));
  // h starts all-zero: the whole state matvec is skipped.
  EXPECT_EQ(accel.totals().positions_kept, 0);
  EXPECT_EQ(accel.totals().positions_total, 32);
}

TEST_F(LstmAcceleratorTest, ShapeReflectsConfiguration) {
  LstmAcceleratorOptions opt;
  opt.input_mode = InputMode::kOneHot;
  LstmAccelerator accel(AcceleratorConfig{}, opt, cell_);
  accel.reset(4);
  const auto shape = accel.shape();
  EXPECT_EQ(shape.hidden, 32);
  EXPECT_EQ(shape.input, 8);
  EXPECT_EQ(shape.batch, 4);
  EXPECT_EQ(shape.input_mode, InputMode::kOneHot);
}

TEST_F(LstmAcceleratorTest, DensePruneThresholdZeroKeepsState) {
  LstmAcceleratorOptions opt;  // threshold 0: dense model
  LstmAccelerator accel(AcceleratorConfig{}, opt, cell_);
  accel.reset(1);
  accel.step(random_input(1, 8, rng_));
  accel.step(random_input(1, 8, rng_));
  // Step 1 sees the all-zero initial state (0 kept); step 2 sees a dense
  // state, so most of its 32 positions are kept (a few codes can still
  // quantize to exactly zero).
  const auto& totals = accel.totals();
  EXPECT_EQ(totals.positions_total, 64);
  EXPECT_GT(totals.positions_kept, 24);
  EXPECT_LE(totals.positions_kept, 32);
}

TEST_F(LstmAcceleratorTest, BatchBeyondScratchAborts) {
  LstmAcceleratorOptions opt;
  LstmAccelerator accel(AcceleratorConfig{}, opt, cell_);
  EXPECT_DEATH(accel.reset(17), "precondition");
}

}  // namespace
}  // namespace zss::accel
