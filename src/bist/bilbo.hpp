#pragma once
// BILBO: built-in logic block observation register (Koenemann/Mucha/
// Zwiehoff, paper ref [19]). One multifunctional register that acts as a
// normal system register, a pattern generator (LFSR) or a signature
// analyzer (MISR) depending on its mode bits -- the only register model of
// the self-test: the session banks, the input generator and the output
// MISR are all BILBOs clocked in one mode.
//
// Generator and compactor share one feedback structure: Fibonacci
// (external-XOR) form, feedback = XOR of the tap bits shifted in at bit 0.
// With a primitive characteristic polynomial the generator cycles through
// all 2^w - 1 nonzero states -- the pseudo-random pattern source of the
// classic BILBO-style BIST (paper refs [19, 10]); the compactor XORs the
// parallel inputs into the shifted state each clock.

#include <cstdint>
#include <vector>

namespace stc {

/// Exponents (including the leading x^w term, excluding the +1) of a
/// primitive polynomial over GF(2) for widths 1..64 (XAPP052 table).
std::vector<unsigned> primitive_taps(std::size_t width);

/// Fold an arbitrary 64-bit key onto [1, 2^width - 1]: every result is a
/// valid nonzero generator state, so seeding with it can never trip the
/// zero-state coercion. Used by the fleet seed derivation.
std::uint64_t nonzero_lfsr_state(std::uint64_t key, std::size_t width);

enum class BilboMode : std::uint8_t {
  kSystem,    // plain register: state <- parallel D inputs
  kGenerate,  // autonomous LFSR: D ignored
  kCompress,  // MISR: state <- shift/feedback XOR D
  kHold,      // keep state
};

class Bilbo {
 public:
  explicit Bilbo(std::size_t width, std::uint64_t init = 0);

  std::size_t width() const { return width_; }
  std::uint64_t state() const { return state_; }
  void load(std::uint64_t v) { state_ = v & mask_; }

  /// Load a generator seed. The all-zero state is a fixed point of the
  /// recurrence, so a seed whose low `width` bits are all zero is coerced
  /// to 1; the return value reports the coercion so callers can detect
  /// that two differently-spelled seeds aliased to the same state.
  bool seed(std::uint64_t s);

  /// Clock once in `mode`; `parallel_in` is read by kSystem/kCompress.
  /// kGenerate first forces a zero state to 1 and shifts on that same
  /// clock; a 1-bit register toggles instead (a 1-bit LFSR is constant).
  void clock(BilboMode mode, std::uint64_t parallel_in = 0);

  /// Bit k of the current state.
  bool bit(std::size_t k) const { return (state_ >> k) & 1; }

 private:
  std::uint64_t feedback() const;

  std::size_t width_;
  std::uint64_t mask_;
  std::uint64_t tap_mask_;  // bit t-1 set for each tap exponent t
  std::uint64_t state_;
};

/// Lane-sliced BILBO for the bit-parallel engines: bit k of the register
/// is a row of `lane_words` contiguous uint64_t words holding that bit's
/// value in all 64*lane_words simulation lanes. Every BILBO mode is a
/// linear bitwise operation per bit, so the lane evolution is the scalar
/// Bilbo recurrence applied word-wise -- including the per-clock escape
/// from the all-zero LFSR fixed point and the 1-bit toggle special case
/// (each applied independently per lane).
///
/// Construction (which allocates the rows and the tap table) is per
/// structure; reset() reconfigures the state per session without touching
/// the heap, so one LaneBilbo serves every session of every lane run. The
/// caller gathers parallel D inputs into d_row() before clocking kSystem /
/// kCompress; the rows keep their contents across clocks, so a caller
/// that fills only some rows zeroes the rest.
class LaneBilbo {
 public:
  /// lane_words in [1, kMaxWords].
  static constexpr unsigned kMaxWords = 8;

  LaneBilbo(std::size_t width, unsigned lane_words);

  std::size_t width() const { return width_; }
  unsigned lane_words() const { return lane_words_; }

  /// Broadcast a scalar initial state: bit k of `init` fills row k.
  void reset(std::uint64_t init);

  /// Overwrite lane `lane`'s state with `value` (low `width` bits) -- the
  /// per-lane path after a broadcast reset(): fleet seeds, and the MISR
  /// state a session-major campaign carries per surviving fault.
  void load_lane(std::size_t lane, std::uint64_t value);

  /// Read back lane `lane`'s current state; the inverse of load_lane().
  std::uint64_t lane_state(std::size_t lane) const;

  /// Row of bit k (lane_words words; lane l at bit l%64 of word l/64).
  const std::uint64_t* row(std::size_t k) const {
    return bits_.data() + k * lane_words_;
  }
  /// Caller-filled parallel-D row of bit k (read by kSystem / kCompress).
  std::uint64_t* d_row(std::size_t k) { return d_.data() + k * lane_words_; }

  void clock(BilboMode mode);

  /// OR into `diff` (lane_words words) the lanes whose register contents
  /// differ from lane 0 (bit 0 of word 0 of each row).
  void accumulate_diff(std::uint64_t* diff) const;

  /// Pairwise compare for the fleet packing (lane 2j = reference, lane
  /// 2j+1 = faulty copy): OR into `diff` at every EVEN bit position 2j
  /// whether pair j's two lanes differ in any register bit.
  void accumulate_pair_diff(std::uint64_t* diff) const;

  /// Same pairwise compare over the gathered parallel-D rows (the value
  /// stream feeding a compressing register THIS clock) -- the fleet
  /// simulator's "error reached the compactor" observability test, taken
  /// before compaction can alias it away.
  void accumulate_pair_d_diff(std::uint64_t* diff) const;

 private:
  /// XOR of the tap rows, word-wise, into `fb` (lane_words words).
  void feedback_to(std::uint64_t* fb) const;

  std::size_t width_;
  unsigned lane_words_;
  std::vector<unsigned> taps_;
  std::vector<std::uint64_t> bits_;  // width rows of lane_words words
  std::vector<std::uint64_t> d_;     // parallel D inputs, same layout
  /// False only when no lane can be all-zero, so kGenerate may skip the
  /// zero-escape scan.
  bool may_hold_zero_ = true;
};

}  // namespace stc
