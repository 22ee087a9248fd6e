#include "bist/bilbo.hpp"

#include "util/bitvec.hpp"
#include <algorithm>
#include <stdexcept>

namespace stc {

std::vector<unsigned> primitive_taps(std::size_t width) {
  switch (width) {
    case 1:  return {1};
    case 2:  return {2, 1};
    case 3:  return {3, 2};
    case 4:  return {4, 3};
    case 5:  return {5, 3};
    case 6:  return {6, 5};
    case 7:  return {7, 6};
    case 8:  return {8, 6, 5, 4};
    case 9:  return {9, 5};
    case 10: return {10, 7};
    case 11: return {11, 9};
    case 12: return {12, 11, 10, 4};
    case 13: return {13, 12, 11, 8};
    case 14: return {14, 13, 12, 2};
    case 15: return {15, 14};
    case 16: return {16, 15, 13, 4};
    case 17: return {17, 14};
    case 18: return {18, 11};
    case 19: return {19, 18, 17, 14};
    case 20: return {20, 17};
    case 21: return {21, 19};
    case 22: return {22, 21};
    case 23: return {23, 18};
    case 24: return {24, 23, 22, 17};
    case 25: return {25, 22};
    case 26: return {26, 25, 24, 20};
    case 27: return {27, 26, 25, 22};
    case 28: return {28, 25};
    case 29: return {29, 27};
    case 30: return {30, 29, 28, 7};
    case 31: return {31, 28};
    case 32: return {32, 31, 30, 10};
    case 33: return {33, 20};
    case 34: return {34, 27, 2, 1};
    case 35: return {35, 33};
    case 36: return {36, 25};
    case 37: return {37, 5, 4, 3, 2, 1};
    case 38: return {38, 6, 5, 1};
    case 39: return {39, 35};
    case 40: return {40, 38, 21, 19};
    case 41: return {41, 38};
    case 42: return {42, 41, 20, 19};
    case 43: return {43, 42, 38, 37};
    case 44: return {44, 43, 18, 17};
    case 45: return {45, 44, 42, 41};
    case 46: return {46, 45, 26, 25};
    case 47: return {47, 42};
    case 48: return {48, 47, 21, 20};
    case 49: return {49, 40};
    case 50: return {50, 49, 24, 23};
    case 51: return {51, 50, 36, 35};
    case 52: return {52, 49};
    case 53: return {53, 52, 38, 37};
    case 54: return {54, 53, 18, 17};
    case 55: return {55, 31};
    case 56: return {56, 55, 35, 34};
    case 57: return {57, 50};
    case 58: return {58, 39};
    case 59: return {59, 58, 38, 37};
    case 60: return {60, 59};
    case 61: return {61, 60, 46, 45};
    case 62: return {62, 61, 6, 5};
    case 63: return {63, 62};
    case 64: return {64, 63, 61, 60};
    default:
      throw std::invalid_argument("primitive_taps: width must be in [1, 64]");
  }
}

namespace {

/// The low `width` bits set (width in [1, 64]).
std::uint64_t width_mask(std::size_t width) {
  return width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

}  // namespace

std::uint64_t nonzero_lfsr_state(std::uint64_t key, std::size_t width) {
  if (width == 0 || width > 64)
    throw std::invalid_argument("nonzero_lfsr_state: bad width");
  // Fold onto [1, 2^w - 1]: every value is a valid nonzero state, so the
  // zero-state coercion in Bilbo::seed can never fire on a derived seed.
  return (key % width_mask(width)) + 1;
}

Bilbo::Bilbo(std::size_t width, std::uint64_t init) : width_(width) {
  if (width == 0 || width > 64) throw std::invalid_argument("Bilbo: bad width");
  mask_ = width_mask(width);
  tap_mask_ = 0;
  for (unsigned t : primitive_taps(width)) tap_mask_ |= std::uint64_t{1} << (t - 1);
  state_ = init & mask_;
}

bool Bilbo::seed(std::uint64_t s) {
  load(s);
  const bool coerced = state_ == 0;
  if (coerced) state_ = 1;
  return coerced;
}

std::uint64_t Bilbo::feedback() const {
  return static_cast<std::uint64_t>(popcount64(state_ & tap_mask_) & 1);
}

void Bilbo::clock(BilboMode mode, std::uint64_t parallel_in) {
  switch (mode) {
    case BilboMode::kSystem:
      state_ = parallel_in & mask_;
      break;
    case BilboMode::kGenerate:
      if (width_ == 1) {
        // A 1-bit LFSR is constant; generate the complemented-feedback
        // sequence (toggle) instead so single-bit registers still produce
        // both values.
        state_ ^= 1;
        break;
      }
      if (state_ == 0) state_ = 1;  // escape the LFSR fixed point
      state_ = ((state_ << 1) | feedback()) & mask_;
      break;
    case BilboMode::kCompress:
      state_ = (((state_ << 1) | feedback()) ^ parallel_in) & mask_;
      break;
    case BilboMode::kHold:
      break;
  }
}

LaneBilbo::LaneBilbo(std::size_t width, unsigned lane_words)
    : width_(width), lane_words_(lane_words) {
  if (width == 0 || width > 64) throw std::invalid_argument("LaneBilbo: bad width");
  if (lane_words == 0 || lane_words > kMaxWords)
    throw std::invalid_argument("LaneBilbo: bad lane_words");
  taps_ = primitive_taps(width);
  bits_.assign(width * lane_words, 0);
  d_.assign(width * lane_words, 0);
}

void LaneBilbo::reset(std::uint64_t init) {
  const unsigned W = lane_words_;
  for (std::size_t k = 0; k < width_; ++k) {
    const std::uint64_t v = ((init >> k) & 1) ? ~std::uint64_t{0} : 0;
    for (unsigned w = 0; w < W; ++w) bits_[k * W + w] = v;
  }
  may_hold_zero_ = true;
}

void LaneBilbo::load_lane(std::size_t lane, std::uint64_t value) {
  may_hold_zero_ = true;
  const unsigned W = lane_words_;
  const std::size_t word = lane >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
  for (std::size_t k = 0; k < width_; ++k) {
    if ((value >> k) & 1)
      bits_[k * W + word] |= bit;
    else
      bits_[k * W + word] &= ~bit;
  }
}

std::uint64_t LaneBilbo::lane_state(std::size_t lane) const {
  const unsigned W = lane_words_;
  const std::size_t word = lane >> 6;
  const unsigned shift = static_cast<unsigned>(lane & 63);
  std::uint64_t s = 0;
  for (std::size_t k = 0; k < width_; ++k)
    s |= ((bits_[k * W + word] >> shift) & 1) << k;
  return s;
}

void LaneBilbo::clock(BilboMode mode) {
  const unsigned W = lane_words_;
  const std::size_t n = width_ * W;  // words in the register
  std::uint64_t* bits = bits_.data();
  const std::uint64_t* d = d_.data();
  switch (mode) {
    case BilboMode::kSystem:
      std::copy_n(d, n, bits);
      may_hold_zero_ = true;
      break;
    case BilboMode::kGenerate: {
      if (width_ == 1) {
        // A 1-bit LFSR is constant; toggle, matching the scalar Bilbo.
        for (unsigned w = 0; w < W; ++w) bits[w] = ~bits[w];
        break;
      }
      // Lanes sitting at the all-zero fixed point get bit 0 forced to 1
      // before the shift (the scalar escape, applied per lane). A nonzero
      // state never clocks to 0 (the top tap feeds a lone top bit back to
      // bit 0), so after one generate clock no lane needs the scan.
      if (may_hold_zero_)
        for (unsigned w = 0; w < W; ++w) {
          std::uint64_t nonzero = 0;
          for (std::size_t i = w; i < n; i += W) nonzero |= bits[i];
          bits[w] |= ~nonzero;
        }
      may_hold_zero_ = false;
      std::uint64_t fb[kMaxWords];
      feedback_to(fb);
      std::copy_backward(bits, bits + n - W, bits + n);
      std::copy_n(fb, W, bits);
      break;
    }
    case BilboMode::kCompress: {
      std::uint64_t fb[kMaxWords];
      feedback_to(fb);
      for (std::size_t i = n; i-- > W;) bits[i] = bits[i - W] ^ d[i];
      for (unsigned w = 0; w < W; ++w) bits[w] = fb[w] ^ d[w];
      may_hold_zero_ = true;
      break;
    }
    case BilboMode::kHold:
      break;
  }
}

void LaneBilbo::feedback_to(std::uint64_t* fb) const {
  const unsigned W = lane_words_;
  for (unsigned w = 0; w < W; ++w) fb[w] = 0;
  for (unsigned t : taps_)
    for (unsigned w = 0; w < W; ++w) fb[w] ^= bits_[(t - 1) * W + w];
}

void LaneBilbo::accumulate_diff(std::uint64_t* diff) const {
  const unsigned W = lane_words_;
  for (std::size_t k = 0; k < width_; ++k) {
    // Broadcast lane 0's bit (bit 0 of word 0 of the row) and XOR-compare.
    const std::uint64_t ref = (bits_[k * W] & 1) ? ~std::uint64_t{0} : 0;
    for (unsigned w = 0; w < W; ++w) diff[w] |= bits_[k * W + w] ^ ref;
  }
}

namespace {

/// OR into `diff` at every even bit 2j whether lanes 2j and 2j+1 differ
/// in any of the `width` rows of `rows`.
void pair_diff(const std::uint64_t* rows, std::size_t width, unsigned W,
               std::uint64_t* diff) {
  constexpr std::uint64_t kEven = 0x5555555555555555ULL;
  for (std::size_t k = 0; k < width; ++k)
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t v = rows[k * W + w];
      diff[w] |= (v ^ (v >> 1)) & kEven;
    }
}

}  // namespace

void LaneBilbo::accumulate_pair_diff(std::uint64_t* diff) const {
  pair_diff(bits_.data(), width_, lane_words_, diff);
}

void LaneBilbo::accumulate_pair_d_diff(std::uint64_t* diff) const {
  pair_diff(d_.data(), width_, lane_words_, diff);
}

}  // namespace stc
