#include "quant/fixed_accumulator.h"

#include <algorithm>

namespace zss::quant {

namespace {

// Checked before the member initializers shift by it: 1 << (bits - 1)
// is undefined for a width outside the 32-bit word.
int checked_bits(int bits) {
  ZSS_EXPECTS(bits >= 2 && bits <= 30);
  return bits;
}

}  // namespace

FixedAccumulator::FixedAccumulator(int bits, int pre_shift)
    : bits_(checked_bits(bits)),
      pre_shift_(pre_shift),
      max_((std::int32_t{1} << (bits_ - 1)) - 1),
      min_(-(std::int32_t{1} << (bits_ - 1))) {
  ZSS_EXPECTS(pre_shift >= 0 && pre_shift <= 16);
}

void FixedAccumulator::add_product(std::int32_t product) {
  // Round-to-nearest arithmetic shift: add half an LSB of the shifted
  // scale before shifting. For pre_shift 0 this is exact.
  std::int32_t shifted = product;
  if (pre_shift_ > 0) {
    const std::int32_t half = std::int32_t{1} << (pre_shift_ - 1);
    shifted = (product + half) >> pre_shift_;
  }
  add_raw(shifted);
}

void FixedAccumulator::add_raw(std::int32_t value) {
  const std::int64_t wide = static_cast<std::int64_t>(acc_) + value;
  if (wide > max_) {
    acc_ = max_;
    saturated_ = true;
  } else if (wide < min_) {
    acc_ = min_;
    saturated_ = true;
  } else {
    acc_ = static_cast<std::int32_t>(wide);
  }
}

void FixedAccumulator::reset() {
  acc_ = 0;
  saturated_ = false;
}

}  // namespace zss::quant
