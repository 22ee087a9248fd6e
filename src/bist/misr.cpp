#include "bist/misr.hpp"

#include "util/bitvec.hpp"
#include <algorithm>
#include <stdexcept>

#include "bist/lfsr.hpp"

namespace stc {

Misr::Misr(std::size_t width, std::uint64_t init)
    : Misr(width, primitive_taps(width), init) {}

Misr::Misr(std::size_t width, std::vector<unsigned> taps, std::uint64_t init)
    : width_(width) {
  if (width == 0 || width > 64) throw std::invalid_argument("Misr: bad width");
  mask_ = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  tap_mask_ = 0;
  for (unsigned t : taps) {
    if (t == 0 || t > width) throw std::invalid_argument("Misr: bad tap");
    tap_mask_ |= std::uint64_t{1} << (t - 1);
  }
  state_ = init & mask_;
}

std::uint64_t Misr::absorb(std::uint64_t parallel_in) {
  const std::uint64_t fb =
      static_cast<std::uint64_t>(popcount64(state_ & tap_mask_) & 1);
  state_ = (((state_ << 1) | fb) ^ parallel_in) & mask_;
  return state_;
}

LaneMisr::LaneMisr(std::size_t width, unsigned lane_words)
    : width_(width), lane_words_(lane_words) {
  if (width == 0 || width > 64) throw std::invalid_argument("LaneMisr: bad width");
  if (lane_words == 0 || lane_words > 8)
    throw std::invalid_argument("LaneMisr: bad lane_words");
  taps_ = primitive_taps(width);
  bits_.assign(width * lane_words, 0);
  chunk_.assign(width * lane_words, 0);
}

void LaneMisr::reset() { std::fill(bits_.begin(), bits_.end(), 0); }

void LaneMisr::absorb(std::size_t n) {
  const unsigned W = lane_words_;
  std::uint64_t fb[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // lane_words <= 8
  for (unsigned t : taps_)
    for (unsigned w = 0; w < W; ++w) fb[w] ^= bits_[(t - 1) * W + w];
  for (std::size_t k = width_; k-- > 1;)
    for (unsigned w = 0; w < W; ++w)
      bits_[k * W + w] = bits_[(k - 1) * W + w] ^ (k < n ? chunk_[k * W + w] : 0);
  for (unsigned w = 0; w < W; ++w)
    bits_[w] = fb[w] ^ (n > 0 ? chunk_[w] : 0);
}

void LaneMisr::accumulate_diff(std::uint64_t* diff) const {
  const unsigned W = lane_words_;
  for (std::size_t k = 0; k < width_; ++k) {
    // Broadcast lane 0's bit (bit 0 of word 0 of the row) and XOR-compare.
    const std::uint64_t ref = (bits_[k * W] & 1) ? ~std::uint64_t{0} : 0;
    for (unsigned w = 0; w < W; ++w) diff[w] |= bits_[k * W + w] ^ ref;
  }
}

void LaneMisr::accumulate_pair_diff(std::uint64_t* diff) const {
  const unsigned W = lane_words_;
  constexpr std::uint64_t kEven = 0x5555555555555555ULL;
  for (std::size_t k = 0; k < width_; ++k)
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t v = bits_[k * W + w];
      diff[w] |= (v ^ (v >> 1)) & kEven;
    }
}

std::uint64_t LaneMisr::lane_signature(std::size_t lane) const {
  const unsigned W = lane_words_;
  const std::size_t word = lane >> 6;
  const unsigned shift = static_cast<unsigned>(lane & 63);
  std::uint64_t s = 0;
  for (std::size_t k = 0; k < width_; ++k)
    s |= ((bits_[k * W + word] >> shift) & 1) << k;
  return s;
}

void LaneMisr::load_lane(std::size_t lane, std::uint64_t value) {
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

}  // namespace stc
