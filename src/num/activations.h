// Scalar and vector activation functions plus numerically stable softmax.
//
// sigmoid and tanh_act are one fixed sequence of IEEE operations, not
// libm: a clamp, a Cody-Waite exp whose multiply-adds all go through
// num::madd and whose 2^n scale is an integer add on the exponent bits,
// then one division. The span overloads run that same sequence through
// the active SIMD backend (num/simd/backend.h), lane for lane, so the
// scalar reference, every backend, training and serving share one
// definition and agree to 0 ULP for every non-NaN input
// (docs/exactness.md, "Activations").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "num/kernels.h"
#include "num/types.h"

namespace zss::num {

/// Constants of the activation sequence, shared with the SIMD backends
/// so every implementation reads the same bits.
namespace act {

inline constexpr float kLog2e = 1.44269504088896341f;
/// ln 2 split so n * kLn2Hi is exact for every n the clamps allow.
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
/// e^r on |r| <= ln2/2 (Cephes expf minimax), highest degree first;
/// Horner ends in two madds with 1.
inline constexpr float kExpPoly[6] = {1.9875691500e-4f, 1.3981999507e-3f,
                                      8.3334519073e-3f, 4.1665795894e-2f,
                                      1.6666665459e-1f, 5.0000001201e-1f};
/// tanh(a) = a + a^3 P(a^2) on a < kTanhSmall (Cephes tanhf minimax),
/// highest degree first.
inline constexpr float kTanhPoly[5] = {-5.70498872745e-3f, 2.06390887954e-2f,
                                       -5.37397155531e-2f, 1.33314422036e-1f,
                                       -3.33332819422e-1f};
inline constexpr float kTanhSmall = 0.625f;
/// |x| clamp for sigmoid: e^-87 is still a normal float, so the 2^n
/// exponent add never produces a denormal. sigmoid(x <= -87) returns
/// sigmoid(-87) = 1.6e-38.
inline constexpr float kSigmoidClamp = 87.0f;
/// |x| clamp for tanh: tanh rounds to exactly 1 from |x| = 9.02 on.
inline constexpr float kTanhClamp = 10.0f;

/// e^t for t in [-87, 20]: n = rint(t log2e), r = t - n ln2 in two
/// parts, p = e^r by Horner, result = p * 2^n by adding n to p's
/// exponent field (p in [0.7, 1.42], so the sum stays a normal float).
inline float exp_reduced(float t) {
  const float n = std::nearbyint(t * kLog2e);
  float r = madd(-n, kLn2Hi, t);
  r = madd(-n, kLn2Lo, r);
  float p = kExpPoly[0];
  for (int k = 1; k < 6; ++k) p = madd(p, r, kExpPoly[k]);
  p = madd(p, r, 1.0f);
  p = madd(p, r, 1.0f);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &p, sizeof bits);
  bits += static_cast<std::uint32_t>(static_cast<std::int32_t>(n)) << 23;
  std::memcpy(&p, &bits, sizeof p);
  return p;
}

}  // namespace act

/// 1 / (1 + e^-x) as z = e^-min(|x|, 87), then 1/(1+z) for x >= 0 and
/// z/(1+z) for x < 0 (sign bit set). NaN in, NaN out. Within 3 ULP of
/// the exact value wherever that value is a normal float.
inline float sigmoid(float x) {
  const float z = act::exp_reduced(-std::min(act::kSigmoidClamp, std::fabs(x)));
  const float y = (std::signbit(x) ? z : 1.0f) / (1.0f + z);
  return std::isnan(x) ? x : y;
}

inline float dsigmoid_from_y(float y) { return y * (1.0f - y); }

/// tanh with a = |x|: a + a^3 P(a^2) below 0.625, else
/// 1 - 2/(e^{2 min(a, 10)} + 1); the sign of x is restored last, so
/// tanh_act(-x) == -tanh_act(x) bit for bit. NaN in, NaN out. Within
/// 2 ULP of the exact value.
inline float tanh_act(float x) {
  const float a = std::fabs(x);
  const float z = a * a;
  float q = act::kTanhPoly[0];
  for (int k = 1; k < 5; ++k) q = madd(q, z, act::kTanhPoly[k]);
  const float small = madd(q * z, a, a);
  const float e = act::exp_reduced(2.0f * std::min(act::kTanhClamp, a));
  const float large = 1.0f - 2.0f / (e + 1.0f);
  const float y = std::copysign(a < act::kTanhSmall ? small : large, x);
  return std::isnan(x) ? x : y;
}

inline float dtanh_from_y(float y) { return 1.0f - y * y; }

/// y[k] = sigmoid(x[k]) through the active backend's activation slot
/// (bit-identical to the scalar function above). y may be x itself (in
/// place) but must not partially overlap it.
void sigmoid(std::span<const float> x, std::span<float> y);

/// y[k] = tanh_act(x[k]); same backend and aliasing rules as sigmoid.
void tanh_act(std::span<const float> x, std::span<float> y);

/// In-place stable softmax over `logits`.
void softmax(std::span<float> logits);

/// Writes log-softmax of `logits` into `out` (may alias `logits`).
void log_softmax(std::span<const float> logits, std::span<float> out);

/// Index of the maximum element. Requires a non-empty span.
Index argmax(std::span<const float> v);

}  // namespace zss::num
