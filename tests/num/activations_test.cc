#include "num/activations.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "num/rng.h"
#include "num/simd/backend.h"

namespace zss::num {
namespace {

float from_bits(std::uint32_t u) {
  float x = 0.0f;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

std::uint32_t to_bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Every 4099th bit pattern of the 2^32: all signs, exponents (zeros,
// denormals, normals, inf, NaN) and a spread of mantissas. The length
// is not a multiple of 8, so every slot's tail runs too.
std::vector<float> strided_sweep() {
  std::vector<float> xs;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    xs.push_back(from_bits(static_cast<std::uint32_t>(u)));
  }
  return xs;
}

// ±0, ±inf, NaN, denormals and the clamp/branch edges of the sequence,
// each with its float neighbours.
std::vector<float> edge_inputs() {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> base = {0.0f,
                             inf,
                             std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::denorm_min(),
                             from_bits(0x007fffffu),  // largest denormal
                             FLT_MIN,
                             FLT_MAX,
                             act::kSigmoidClamp,
                             act::kTanhClamp,
                             act::kTanhSmall,
                             9.02f,   // about where tanh rounds to 1
                             86.99f,  // t·log2e ≈ -125.5, a tie edge of rint
                             0.5f * 0.693359375f,  // near n's first edge
                             1.0f,
                             16.0f,
                             1e-20f};
  std::vector<float> out;
  for (const float b : base) {
    for (const float v : {b, -b}) {
      out.push_back(v);
      out.push_back(std::nextafter(v, inf));
      out.push_back(std::nextafter(v, -inf));
    }
  }
  return out;
}

using Slot = void (*)(const float*, float*, std::size_t);

// Runs `slot` over xs and requires the scalar function's bits for every
// non-NaN input and a NaN for every NaN input.
void expect_slot_matches_scalar(Slot slot, float (*scalar)(float),
                                const std::vector<float>& xs,
                                const char* what) {
  std::vector<float> ys(xs.size());
  slot(xs.data(), ys.data(), xs.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (std::isnan(xs[k])) {
      if (!std::isnan(ys[k])) ++mismatches;
      continue;
    }
    if (to_bits(ys[k]) != to_bits(scalar(xs[k]))) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << "(" << xs[k] << " = 0x" << std::hex
                      << to_bits(xs[k]) << std::dec << "): slot " << ys[k]
                      << " scalar " << scalar(xs[k]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

// Error of y against a double reference, in units of the float ULP at
// the reference.
double ulp_error(float y, double ref) {
  const double a = std::fabs(ref);
  int e = 0;
  std::frexp(a < FLT_MIN ? FLT_MIN : a, &e);
  return std::fabs(static_cast<double>(y) - ref) / std::ldexp(1.0, e - 24);
}

TEST(ActivationContractTest, EveryBackendSlotMatchesScalarOnTheSweep) {
  const std::vector<float> sweep = strided_sweep();
  const std::vector<float> edges = edge_inputs();
  for (const simd::KernelBackend* backend : simd::available_backends()) {
    SCOPED_TRACE(backend->name);
    ASSERT_TRUE(backend->implemented_activations());
    expect_slot_matches_scalar(backend->sigmoid, sigmoid, sweep, "sigmoid");
    expect_slot_matches_scalar(backend->tanh, tanh_act, sweep, "tanh");
    expect_slot_matches_scalar(backend->sigmoid, sigmoid, edges, "sigmoid");
    expect_slot_matches_scalar(backend->tanh, tanh_act, edges, "tanh");
  }
}

TEST(ActivationContractTest, EveryLengthAndInPlaceMatchesScalar) {
  // Lengths 1-17 cover no full vector, one, two, and every tail of the
  // 8- and 4-wide backends; each runs out of place and in place.
  Rng rng(17);
  for (const simd::KernelBackend* backend : simd::available_backends()) {
    SCOPED_TRACE(backend->name);
    for (std::size_t n = 1; n <= 17; ++n) {
      std::vector<float> xs(n);
      for (float& v : xs) v = static_cast<float>(rng.uniform(-12.0, 12.0));
      for (const auto& [slot, scalar] :
           {std::pair<Slot, float (*)(float)>{backend->sigmoid, sigmoid},
            std::pair<Slot, float (*)(float)>{backend->tanh, tanh_act}}) {
        std::vector<float> want(n);
        for (std::size_t k = 0; k < n; ++k) want[k] = scalar(xs[k]);
        std::vector<float> out(n, -1.0f);
        slot(xs.data(), out.data(), n);
        EXPECT_EQ(std::memcmp(out.data(), want.data(), n * sizeof(float)), 0)
            << "n=" << n;
        std::vector<float> inplace = xs;
        slot(inplace.data(), inplace.data(), n);
        EXPECT_EQ(std::memcmp(inplace.data(), want.data(), n * sizeof(float)),
                  0)
            << "in place, n=" << n;
      }
    }
  }
}

TEST(ActivationContractTest, SpanOverloadsMatchScalarAndMayAlias) {
  std::vector<float> xs = {-100.0f, -3.5f, -0.0f, 0.3f, 2.0f, 50.0f, 7.0f};
  std::vector<float> s(xs.size());
  std::vector<float> t = xs;
  sigmoid(xs, s);
  tanh_act(t, t);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(to_bits(s[k]), to_bits(sigmoid(xs[k])));
    EXPECT_EQ(to_bits(t[k]), to_bits(tanh_act(xs[k])));
  }
}

TEST(ActivationContractTest, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(sigmoid(nan)));
  EXPECT_TRUE(std::isnan(tanh_act(nan)));
  EXPECT_EQ(sigmoid(inf), 1.0f);
  EXPECT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_EQ(sigmoid(-0.0f), 0.5f);
  // Below -87 the clamp holds the value at sigmoid(-87), a normal float.
  EXPECT_EQ(sigmoid(-inf), sigmoid(-act::kSigmoidClamp));
  EXPECT_GT(sigmoid(-inf), 0.0f);
  EXPECT_LT(sigmoid(-inf), 2e-38f);
  EXPECT_EQ(tanh_act(inf), 1.0f);
  EXPECT_EQ(tanh_act(-inf), -1.0f);
  EXPECT_EQ(tanh_act(act::kTanhClamp), 1.0f);
  EXPECT_EQ(to_bits(tanh_act(0.0f)), to_bits(0.0f));
  EXPECT_EQ(to_bits(tanh_act(-0.0f)), to_bits(-0.0f));
  const float tiny = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(tanh_act(tiny), tiny);
  EXPECT_EQ(tanh_act(-tiny), -tiny);
}

TEST(ActivationContractTest, TanhIsOddBitForBit) {
  for (const float x : strided_sweep()) {
    if (std::isnan(x)) continue;
    ASSERT_EQ(to_bits(tanh_act(-x)), to_bits(tanh_act(x)) ^ 0x80000000u)
        << x;
  }
}

TEST(ActivationContractTest, ErrorAgainstDoubleReferenceIsBounded) {
  // Stated bounds (docs/exactness.md, "Activations"): sigmoid within
  // 3 ULP wherever the exact value is a normal float and x >= -87;
  // below the clamp it is off by less than 2^-125 absolute. tanh within
  // 2 ULP everywhere.
  double worst_sigmoid = 0.0;
  double worst_tanh = 0.0;
  double worst_tail = 0.0;
  for (const float x : strided_sweep()) {
    if (std::isnan(x)) continue;
    const double xd = x;
    const double s_ref = 1.0 / (1.0 + std::exp(-xd));
    if (x >= -act::kSigmoidClamp && s_ref >= FLT_MIN) {
      worst_sigmoid = std::max(worst_sigmoid, ulp_error(sigmoid(x), s_ref));
    } else {
      worst_tail = std::max(worst_tail, std::fabs(sigmoid(x) - s_ref));
    }
    worst_tanh = std::max(worst_tanh, ulp_error(tanh_act(x), std::tanh(xd)));
  }
  EXPECT_LE(worst_sigmoid, 3.0);
  EXPECT_LE(worst_tanh, 2.0);
  EXPECT_LT(worst_tail, std::ldexp(1.0, -125));
  std::printf("max error: sigmoid %.3f ULP, tanh %.3f ULP, sigmoid tail %g\n",
              worst_sigmoid, worst_tanh, worst_tail);
}

TEST(ActivationsTest, SigmoidKnownValues) {
  EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(sigmoid(2.0f), 0.880797f, 1e-5f);
  EXPECT_NEAR(sigmoid(-2.0f), 0.119203f, 1e-5f);
}

TEST(ActivationsTest, SigmoidSaturates) {
  EXPECT_NEAR(sigmoid(40.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(sigmoid(-40.0f), 0.0f, 1e-6f);
}

TEST(ActivationsTest, SigmoidDerivativeFromOutput) {
  const float y = sigmoid(0.7f);
  const float eps = 1e-3f;
  const float numeric = (sigmoid(0.7f + eps) - sigmoid(0.7f - eps)) / (2 * eps);
  EXPECT_NEAR(dsigmoid_from_y(y), numeric, 1e-4f);
}

TEST(ActivationsTest, TanhDerivativeFromOutput) {
  const float y = tanh_act(-0.4f);
  const float eps = 1e-3f;
  const float numeric =
      (tanh_act(-0.4f + eps) - tanh_act(-0.4f - eps)) / (2 * eps);
  EXPECT_NEAR(dtanh_from_y(y), numeric, 1e-4f);
}

TEST(ActivationsTest, SoftmaxSumsToOne) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  softmax(v);
  float sum = 0.0f;
  for (float x : v) {
    EXPECT_GT(x, 0.0f);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(v[3], v[0]);  // monotone in logits
}

TEST(ActivationsTest, SoftmaxStableForLargeLogits) {
  std::vector<float> v = {1000.0f, 1001.0f};
  softmax(v);
  EXPECT_FALSE(std::isnan(v[0]));
  EXPECT_NEAR(v[0] + v[1], 1.0f, 1e-6f);
  EXPECT_NEAR(v[1] / v[0], std::exp(1.0f), 1e-3f);
}

TEST(ActivationsTest, SoftmaxUniformForEqualLogits) {
  std::vector<float> v(5, 3.0f);
  softmax(v);
  for (float x : v) EXPECT_NEAR(x, 0.2f, 1e-6f);
}

TEST(ActivationsTest, LogSoftmaxMatchesLogOfSoftmax) {
  std::vector<float> logits = {0.5f, -1.0f, 2.0f};
  std::vector<float> lsm(3);
  log_softmax(logits, lsm);
  std::vector<float> sm = logits;
  softmax(sm);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-5f);
}

TEST(ActivationsTest, LogSoftmaxMayAlias) {
  std::vector<float> v = {1.0f, 2.0f};
  std::vector<float> expected(2);
  log_softmax(v, expected);
  log_softmax(v, v);  // aliased
  EXPECT_FLOAT_EQ(v[0], expected[0]);
  EXPECT_FLOAT_EQ(v[1], expected[1]);
}

TEST(ActivationsTest, Argmax) {
  const std::vector<float> v = {0.1f, -5.0f, 7.0f, 7.0f, 2.0f};
  EXPECT_EQ(argmax(v), 2);  // first maximum wins
}

TEST(ActivationsDeathTest, EmptySpansAbort) {
  std::vector<float> empty;
  EXPECT_DEATH(softmax(empty), "precondition");
  EXPECT_DEATH((void)argmax(empty), "precondition");
}

}  // namespace
}  // namespace zss::num
