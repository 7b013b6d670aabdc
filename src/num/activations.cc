#include "num/activations.h"

#include <algorithm>

#include "num/simd/backend.h"

namespace zss::num {

namespace {

// The backend whose activation slots serve this call: the active one,
// or the scalar table when it leaves the slots empty (the per-call
// fallback the int8 slots use, num/kernels.cc).
const simd::KernelBackend& activation_backend() {
  const simd::KernelBackend& active = simd::active_backend();
  return active.implemented_activations() ? active : simd::kScalarBackend;
}

}  // namespace

void sigmoid(std::span<const float> x, std::span<float> y) {
  ZSS_EXPECTS(x.size() == y.size());
  activation_backend().sigmoid(x.data(), y.data(), x.size());
}

void tanh_act(std::span<const float> x, std::span<float> y) {
  ZSS_EXPECTS(x.size() == y.size());
  activation_backend().tanh(x.data(), y.data(), x.size());
}

void softmax(std::span<float> logits) {
  ZSS_EXPECTS(!logits.empty());
  const float mx = *std::max_element(logits.begin(), logits.end());
  float sum = 0.0f;
  for (float& v : logits) {
    v = std::exp(v - mx);
    sum += v;
  }
  ZSS_ASSERT(sum > 0.0f);
  for (float& v : logits) v /= sum;
}

void log_softmax(std::span<const float> logits, std::span<float> out) {
  ZSS_EXPECTS(logits.size() == out.size());
  ZSS_EXPECTS(!logits.empty());
  const float mx = *std::max_element(logits.begin(), logits.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i) sum += std::exp(logits[i] - mx);
  const float lse = mx + std::log(sum);
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - lse;
}

Index argmax(std::span<const float> v) {
  ZSS_EXPECTS(!v.empty());
  return static_cast<Index>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace zss::num
