#include "baseline/weight_pruner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "num/rng.h"

namespace zss::baseline {
namespace {

nn::Parameter random_param(num::Index rows, num::Index cols,
                           std::uint64_t seed) {
  nn::Parameter p("w", rows, cols);
  num::Rng rng(seed);
  for (float& v : p.value.flat()) v = static_cast<float>(rng.normal());
  return p;
}

TEST(WeightPrunerTest, ZeroSparsityKeepsEverything) {
  auto p = random_param(8, 8, 1);
  const auto original = p.value;
  const auto mask = prune_by_magnitude(p, 0.0);
  EXPECT_EQ(p.value, original);
  EXPECT_EQ(mask.zeros(), 0);
  EXPECT_DOUBLE_EQ(mask.sparsity(), 0.0);
}

TEST(WeightPrunerTest, PrunesRequestedFraction) {
  auto p = random_param(32, 32, 2);
  const auto mask = prune_by_magnitude(p, 0.9);
  EXPECT_NEAR(mask.sparsity(), 0.9, 0.01);
  EXPECT_NEAR(weight_sparsity(p), 0.9, 0.01);
}

TEST(WeightPrunerTest, SmallestMagnitudesGoFirst) {
  nn::Parameter p("w", 1, 4);
  p.value(0, 0) = 0.1f;
  p.value(0, 1) = -2.0f;
  p.value(0, 2) = 0.05f;
  p.value(0, 3) = 1.0f;
  prune_by_magnitude(p, 0.5);
  EXPECT_FLOAT_EQ(p.value(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(p.value(0, 1), -2.0f);
  EXPECT_FLOAT_EQ(p.value(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(p.value(0, 3), 1.0f);
}

TEST(WeightPrunerTest, MaskSurvivesRetrainingUpdates) {
  auto p = random_param(16, 16, 3);
  const auto mask = prune_by_magnitude(p, 0.8);
  // Simulate an optimizer writing into every element.
  for (float& v : p.value.flat()) v += 0.5f;
  apply_mask(p, mask);
  EXPECT_NEAR(weight_sparsity(p), 0.8, 0.01);
  // Unmasked elements keep the update.
  auto keep = mask.keep.flat();
  auto values = p.value.flat();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (keep[i] == 1) {
      EXPECT_NE(values[i], 0.0f);
    }
  }
}

TEST(WeightPrunerTest, ApplyMaskZeroesGradientsToo) {
  auto p = random_param(8, 8, 4);
  const auto mask = prune_by_magnitude(p, 0.5);
  p.grad.fill(1.0f);
  apply_mask(p, mask);
  auto keep = mask.keep.flat();
  auto grads = p.grad.flat();
  for (std::size_t i = 0; i < grads.size(); ++i) {
    EXPECT_FLOAT_EQ(grads[i], keep[i] == 0 ? 0.0f : 1.0f);
  }
}

TEST(WeightPrunerTest, FullSparsityZeroesAlmostAll) {
  auto p = random_param(16, 16, 5);
  prune_by_magnitude(p, 1.0);
  // Strict |w| < quantile(1.0) keeps only max-magnitude ties.
  EXPECT_GE(weight_sparsity(p), 1.0 - 2.0 / 256.0);
}

TEST(WeightPrunerDeathTest, BadSparsityAborts) {
  auto p = random_param(4, 4, 6);
  EXPECT_DEATH((void)prune_by_magnitude(p, 1.5), "precondition");
}

}  // namespace
}  // namespace zss::baseline
