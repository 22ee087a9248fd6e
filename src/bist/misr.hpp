#pragma once
// Multiple-input signature register: compresses a stream of parallel test
// responses into a signature. Same feedback structure as the LFSR with the
// parallel inputs XORed into the shifted state each clock.

#include <cstdint>
#include <vector>

namespace stc {

class Misr {
 public:
  explicit Misr(std::size_t width, std::uint64_t init = 0);
  Misr(std::size_t width, std::vector<unsigned> taps, std::uint64_t init);

  std::size_t width() const { return width_; }
  std::uint64_t signature() const { return state_; }

  void reset(std::uint64_t init = 0) { state_ = init & mask_; }

  /// Clock once, absorbing `parallel_in` (low `width` bits).
  std::uint64_t absorb(std::uint64_t parallel_in);

 private:
  std::size_t width_;
  std::uint64_t mask_;
  std::uint64_t tap_mask_;
  std::uint64_t state_;
};

/// Lane-sliced MISR for the bit-parallel campaign engine: bit k of the
/// signature is a row of `lane_words` contiguous uint64_t words holding
/// that bit's value in all 64*lane_words simulation lanes. The MISR
/// recurrence is linear per bit, so the lane evolution is the scalar
/// absorb applied word-wise. Construction allocates the rows and the tap
/// table once; reset() clears the signature with no heap traffic. The
/// caller gathers each response chunk into chunk_row() and then calls
/// absorb(n) with the number of rows actually filled.
class LaneMisr {
 public:
  LaneMisr(std::size_t width, unsigned lane_words);

  std::size_t width() const { return width_; }
  unsigned lane_words() const { return lane_words_; }

  /// Clear the signature for a new self-test run.
  void reset();

  /// Caller-filled response row of bit k for the next absorb.
  std::uint64_t* chunk_row(std::size_t k) {
    return chunk_.data() + k * lane_words_;
  }

  /// state <- ((state << 1) | feedback) ^ chunk, word-wise per bit; chunk
  /// rows >= n absorb 0 (matching the scalar Misr's masked absorb).
  void absorb(std::size_t n);

  /// OR into `diff` (lane_words words) the lanes whose signature differs
  /// from lane 0 (bit 0 of word 0 of each row).
  void accumulate_diff(std::uint64_t* diff) const;

  /// Pairwise compare for the fleet packing (lane 2j = reference, lane
  /// 2j+1 = faulty copy): OR into `diff` at every EVEN bit position 2j
  /// whether pair j's two signatures differ in any bit.
  void accumulate_pair_diff(std::uint64_t* diff) const;

  /// Row of signature bit k (lane_words words; lane l at bit l%64 of
  /// word l/64) -- the fleet aggregator's signature-histogram source.
  const std::uint64_t* row(std::size_t k) const {
    return bits_.data() + k * lane_words_;
  }

  /// Extract lane `lane`'s full signature.
  std::uint64_t lane_signature(std::size_t lane) const;

  /// Overwrite lane `lane`'s signature with `value` (low `width` bits) --
  /// how a session-major campaign carries each surviving fault's MISR
  /// state into its next batch; the inverse of lane_signature().
  void load_lane(std::size_t lane, std::uint64_t value);

 private:
  std::size_t width_;
  unsigned lane_words_;
  std::vector<unsigned> taps_;
  std::vector<std::uint64_t> bits_;   // width rows of lane_words words
  std::vector<std::uint64_t> chunk_;  // caller-filled response rows
};

}  // namespace stc
