// Tests for the BIST primitives: the BILBO register in its generate (LFSR),
// compress (MISR), system and hold modes, the lane-sliced BILBO against
// the scalar one, and fault enumeration.

#include <gtest/gtest.h>

#include <set>

#include "bist/bilbo.hpp"
#include "bist/faults.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

// --- generate mode (LFSR) ------------------------------------------------------

/// Clocks a generate-mode register takes to return to its current state
/// (walks the cycle; use only for small widths).
std::uint64_t period(Bilbo reg) {
  const std::uint64_t start = reg.state();
  std::uint64_t n = 0;
  do {
    reg.clock(BilboMode::kGenerate);
    ++n;
  } while (reg.state() != start);
  return n;
}

class LfsrPeriod : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LfsrPeriod, PrimitivePolynomialGivesFullPeriod) {
  const std::size_t w = GetParam();
  Bilbo lfsr(w);
  lfsr.seed(1);
  EXPECT_EQ(period(lfsr), (std::uint64_t{1} << w) - 1) << "width " << w;
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriod,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                           14, 15, 16));

TEST(Lfsr, VisitsAllNonzeroStates) {
  Bilbo lfsr(4);
  lfsr.seed(1);
  std::set<std::uint64_t> seen;
  for (int k = 0; k < 15; ++k) {
    seen.insert(lfsr.state());
    lfsr.clock(BilboMode::kGenerate);
  }
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_FALSE(seen.count(0));
}

TEST(Lfsr, ZeroSeedCoerced) {
  Bilbo lfsr(5);
  // The coercion is not silent: seed() reports it, so callers can detect
  // that 0 and 1 alias.
  EXPECT_TRUE(lfsr.seed(0));
  EXPECT_NE(lfsr.state(), 0u);
  EXPECT_FALSE(lfsr.seed(1));
  EXPECT_TRUE(lfsr.seed(0));
  EXPECT_TRUE(lfsr.seed(std::uint64_t{1} << 5));  // masked to zero -> coerced
}

TEST(Lfsr, BadParametersThrow) {
  EXPECT_THROW(Bilbo(0), std::invalid_argument);
  EXPECT_THROW(Bilbo(65), std::invalid_argument);
  EXPECT_THROW(primitive_taps(0), std::invalid_argument);
  EXPECT_THROW(primitive_taps(65), std::invalid_argument);
}

TEST(Lfsr, DeterministicSequence) {
  Bilbo a(8), b(8);
  a.seed(0xAB);
  b.seed(0xAB);
  for (int k = 0; k < 50; ++k) {
    a.clock(BilboMode::kGenerate);
    b.clock(BilboMode::kGenerate);
    EXPECT_EQ(a.state(), b.state());
  }
}

// --- compress mode (MISR) -------------------------------------------------------

TEST(Misr, ZeroInputsFollowLfsrRecurrence) {
  Bilbo misr(6, 1);
  Bilbo lfsr(6);
  lfsr.seed(1);
  for (int k = 0; k < 30; ++k) {
    misr.clock(BilboMode::kCompress, 0);
    lfsr.clock(BilboMode::kGenerate);
    EXPECT_EQ(misr.state(), lfsr.state());
  }
}

TEST(Misr, DifferentStreamsDifferentSignatures) {
  Bilbo a(16), b(16);
  for (int k = 0; k < 32; ++k) {
    a.clock(BilboMode::kCompress, static_cast<std::uint64_t>(k));
    // One flipped bit.
    b.clock(BilboMode::kCompress, static_cast<std::uint64_t>(k ^ (k == 7 ? 1 : 0)));
  }
  EXPECT_NE(a.state(), b.state());
}

TEST(Misr, SingleBitErrorNeverAliases) {
  // A single injected error can never produce the fault-free signature
  // (linearity: the error syndrome is a nonzero state evolved linearly).
  for (int pos = 0; pos < 20; ++pos) {
    Bilbo good(8), bad(8);
    for (int k = 0; k < 25; ++k) {
      const std::uint64_t v = static_cast<std::uint64_t>(37 * k + 11) & 0xFF;
      good.clock(BilboMode::kCompress, v);
      bad.clock(BilboMode::kCompress, k == pos ? v ^ 0x10 : v);
    }
    EXPECT_NE(good.state(), bad.state()) << "error at " << pos;
  }
}

TEST(Misr, ResetClearsState) {
  Bilbo m(8, 0x5A);
  m.clock(BilboMode::kCompress, 0xFF);
  m.load(0x5A);
  EXPECT_EQ(m.state(), 0x5Au);
}

// --- BILBO --------------------------------------------------------------------

TEST(Bilbo, SystemModeLoadsParallelInput) {
  Bilbo b(4);
  b.clock(BilboMode::kSystem, 0b1010);
  EXPECT_EQ(b.state(), 0b1010u);
}

TEST(Bilbo, GenerateWidth1Toggles) {
  Bilbo b(1, 0);
  b.clock(BilboMode::kGenerate);
  EXPECT_EQ(b.state(), 1u);
  b.clock(BilboMode::kGenerate);
  EXPECT_EQ(b.state(), 0u);
}

TEST(Bilbo, HoldKeepsState) {
  Bilbo b(4, 0b0110);
  b.clock(BilboMode::kHold, 0b1111);
  EXPECT_EQ(b.state(), 0b0110u);
}

// --- lane-sliced BILBO against the scalar one -------------------------------------

/// One lane-sliced register beside 64*W scalar ones, every lane fed the
/// same random loads and D bits. Pairs (2j, 2j+1) share their load and
/// their D bits half the time and some lanes copy lane 0's load, so every
/// diff mask sees lanes that agree as well as lanes that differ.
class LaneVsScalar {
 public:
  LaneVsScalar(std::size_t width, unsigned lane_words, std::uint64_t seed)
      : w_(width), W_(lane_words), rng_(seed), lanes_(width, lane_words) {
    const std::uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
    lanes_.reset(rng_.next());
    std::uint64_t pair_value = 0;
    for (std::size_t l = 0; l < 64u * W_; ++l) {
      std::uint64_t v = rng_.next() & mask;
      if (rng_.chance(0.125)) v = 0;  // the generator's fixed point
      if (l % 2 == 1 && rng_.chance(0.5)) v = pair_value;
      if (l > 0 && rng_.chance(0.125)) v = regs_[0].state();
      pair_value = v;
      lanes_.load_lane(l, v);
      regs_.emplace_back(width, v);
    }
  }

  /// Fill the D rows, clock both sides in `mode` and compare every lane
  /// and every diff mask with its per-lane counterpart.
  void clock(BilboMode mode) {
    constexpr std::uint64_t kEven = 0x5555555555555555ull;
    std::vector<std::uint64_t> d(64u * W_, 0);  // per-lane D values
    for (std::size_t k = 0; k < w_; ++k)
      for (unsigned x = 0; x < W_; ++x) {
        std::uint64_t r = rng_.next();
        const std::uint64_t same = rng_.next() & kEven;  // pairs that agree
        r = (((r & kEven) | ((r & kEven) << 1)) & (same | same << 1)) |
            (r & ~(same | same << 1));
        lanes_.d_row(k)[x] = r;
        for (unsigned b = 0; b < 64; ++b) d[x * 64 + b] |= ((r >> b) & 1) << k;
      }
    std::uint64_t want_pair_d[8] = {};
    for (std::size_t l = 0; l < 64u * W_; l += 2)
      if (d[l] != d[l + 1]) want_pair_d[l / 64] |= 1ull << (l % 64);

    lanes_.clock(mode);
    std::uint64_t want_diff[8] = {}, want_pair[8] = {};
    for (std::size_t l = 0; l < 64u * W_; ++l) {
      regs_[l].clock(mode, d[l]);
      ASSERT_EQ(lanes_.lane_state(l), regs_[l].state()) << "lane " << l;
      if (regs_[l].state() != regs_[0].state()) want_diff[l / 64] |= 1ull << (l % 64);
      if (l % 2 == 1 && regs_[l].state() != regs_[l - 1].state())
        want_pair[l / 64] |= 1ull << ((l - 1) % 64);
    }
    std::uint64_t diff[8] = {}, pair[8] = {}, pair_d[8] = {};
    lanes_.accumulate_diff(diff);
    lanes_.accumulate_pair_diff(pair);
    lanes_.accumulate_pair_d_diff(pair_d);
    for (unsigned x = 0; x < W_; ++x) {
      EXPECT_EQ(diff[x], want_diff[x]) << "word " << x;
      EXPECT_EQ(pair[x], want_pair[x]) << "word " << x;
      EXPECT_EQ(pair_d[x], want_pair_d[x]) << "word " << x;
    }
  }

  Rng& rng() { return rng_; }

 private:
  std::size_t w_;
  unsigned W_;
  Rng rng_;
  LaneBilbo lanes_;
  std::vector<Bilbo> regs_;
};

TEST(LaneBilbo, EveryLaneAndDiffMaskMatchesScalarBilbo) {
  constexpr BilboMode kModes[] = {BilboMode::kSystem, BilboMode::kGenerate,
                                  BilboMode::kCompress, BilboMode::kHold};
  std::uint64_t seed = 1;
  for (std::size_t w : {1u, 2u, 8u, 16u, 64u})
    for (unsigned W : {1u, 4u, 8u}) {
      // Each mode on its own, then a random mode per clock.
      for (int mode = 0; mode <= 4; ++mode) {
        SCOPED_TRACE(::testing::Message()
                     << "width " << w << " lane_words " << W << " mode " << mode);
        LaneVsScalar run(w, W, seed++);
        for (int k = 0; k < 40; ++k) {
          run.clock(mode < 4 ? kModes[mode] : kModes[run.rng().below(4)]);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
}

// --- fault enumeration -----------------------------------------------------------

TEST(Faults, TwoPerNetSkippingConstants) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_const(true);
  const NetId g = nl.add_not(a);
  nl.add_output(g, "o");
  nl.finalize();
  const auto faults = enumerate_stuck_faults(nl);
  EXPECT_EQ(faults.size(), 4u);  // (input + NOT) x 2, const skipped
}

TEST(Faults, DescribeMentionsTypeAndPolarity) {
  Netlist nl;
  const NetId a = nl.add_input("clk");
  nl.add_output(nl.add_not(a), "o");
  nl.finalize();
  const Fault f{a, true};
  const std::string d = f.describe(nl);
  EXPECT_NE(d.find("pi"), std::string::npos);
  EXPECT_NE(d.find("sa1"), std::string::npos);
}

TEST(Faults, FaultsOnNetsSubset) {
  const auto faults = faults_on_nets({3, 7});
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0].net, 3u);
  EXPECT_TRUE(faults[1].stuck_value);
}

}  // namespace
}  // namespace stc
