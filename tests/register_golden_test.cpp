// Register goldens: FNV-1a digests of 512-clock state sequences of the
// BILBO register -- scalar in generate mode (the input generator), in
// compress mode (the output MISR) and in every mode, and lane-sliced in
// generate mode (the fleet's input generator), in compress mode with
// partial chunks (the lane output MISR) and in every mode, with mixed
// per-lane loads, lane_state read-back and the accumulate_*diff masks --
// so a change to the register model can be shown to change no bit of any
// sequence. The digests were recorded when the generator, the compactor
// and their lane-sliced forms were still classes of their own. A failing
// case prints its actual digest.

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "bist/bilbo.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

constexpr int kClocks = 512;
constexpr std::size_t kWidths[] = {2, 3, 8, 16, 24, 40, 64};

/// 1 << w, which wraps to 0 at w = 64 (the value a 64-bit register masks
/// it to anyway).
std::uint64_t bit_above(std::size_t w) { return w < 64 ? std::uint64_t{1} << w : 0; }

/// The fixed input stream: word k of stream `salt`.
std::uint64_t stream(std::uint64_t salt, std::uint64_t k) {
  return splitmix64(salt * 0x100000001b3ull + k);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v << "ull";
  return os.str();
}

// --- scalar registers ---------------------------------------------------------

std::uint64_t generator_digest(std::size_t w, std::uint64_t seed) {
  Bilbo reg(w);
  std::uint64_t h = fnv1a_u64(kFnvOffset, reg.seed(seed) ? 1 : 0);
  h = fnv1a_u64(h, reg.state());
  for (int k = 0; k < kClocks; ++k) {
    reg.clock(BilboMode::kGenerate);
    h = fnv1a_u64(h, reg.state());
  }
  return h;
}

std::uint64_t compactor_digest(std::size_t w) {
  Bilbo reg(w);
  std::uint64_t h = kFnvOffset;
  for (int k = 0; k < kClocks; ++k) {
    reg.clock(BilboMode::kCompress, stream(1, k));
    h = fnv1a_u64(h, reg.state());
  }
  return h;
}

TEST(RegisterGolden, GeneratorSequences) {
  // Per width: seeded with 0, with 1 and with 1 << width.
  const std::uint64_t want[][3] = {
      {0xea01e9bb9dc78244ull, 0x188941436fcc7bc5ull, 0xea01e9bb9dc78244ull},
      {0xf1671bfe60767747ull, 0xfae0dd26bcfb8c46ull, 0xf1671bfe60767747ull},
      {0x40b774f81060ca43ull, 0xe9a489db0ef1f5c2ull, 0x40b774f81060ca43ull},
      {0x7959382bc308cdbbull, 0x9419487e34ae9beull, 0x7959382bc308cdbbull},
      {0x16033c3d338163dull, 0x8c154388fe99e7fcull, 0x16033c3d338163dull},
      {0x6376a887a79f7e24ull, 0x8fd33e89bc988ea1ull, 0x6376a887a79f7e24ull},
      {0x497af73f8477237eull, 0xf5eaf234e12d5f6full, 0x497af73f8477237eull},
  };
  for (std::size_t i = 0; i < std::size(kWidths); ++i) {
    const std::size_t w = kWidths[i];
    const std::uint64_t seeds[3] = {0, 1, bit_above(w)};
    for (int s = 0; s < 3; ++s) {
      const std::uint64_t got = generator_digest(w, seeds[s]);
      EXPECT_EQ(got, want[i][s]) << "width " << w << " seed " << seeds[s]
                                 << " actual: " << hex(got);
    }
  }
}

TEST(RegisterGolden, CompactorSequences) {
  const std::uint64_t want[] = {
      0x433a497e2a91d605ull, 0x5567421dd21163e6ull, 0x57aaa61333defceull,
      0xb5fc844b1e9359a3ull, 0x216275ea8dac8153ull, 0xaed043d2a46e2a4eull,
      0x1b3ac16e7b1d86feull,
  };
  for (std::size_t i = 0; i < std::size(kWidths); ++i) {
    const std::uint64_t got = compactor_digest(kWidths[i]);
    EXPECT_EQ(got, want[i]) << "width " << kWidths[i] << " actual: " << hex(got);
  }
}

constexpr std::size_t kBilboWidths[] = {1, 2, 8, 64};
constexpr BilboMode kModes[] = {BilboMode::kSystem, BilboMode::kGenerate,
                                BilboMode::kCompress, BilboMode::kHold};

/// `mode` < 4 clocks that mode throughout; 4 picks the mode per clock from
/// the stream. Starts from 0 (the generator's fixed point) and from a
/// stream word.
std::uint64_t bilbo_digest(std::size_t w, int mode) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t init : {std::uint64_t{0}, stream(2, w)}) {
    Bilbo reg(w, init);
    h = fnv1a_u64(h, reg.state());
    for (int k = 0; k < kClocks; ++k) {
      const BilboMode m = mode < 4 ? kModes[mode] : kModes[stream(3, k) % 4];
      reg.clock(m, stream(4, k));
      h = fnv1a_u64(h, reg.state());
    }
  }
  return h;
}

TEST(RegisterGolden, BilboSequences) {
  // Per width: system, generate, compress, hold, mixed.
  const std::uint64_t want[][5] = {
      {0xa371628ea70fc244ull, 0x8d8cd0c4e425a44ull, 0x760e7fe6f0b0cb44ull, 0x43352d9d17d47a44ull, 0xb98afa4b6799d3e4ull},
      {0xba23209513199044ull, 0x7d1036eab038bc64ull, 0x599961eb56ae9cc5ull, 0x43352d9d17d47a44ull, 0x57e08984cbe34924ull},
      {0xfec32e120190b374ull, 0xa646e99c771f7d75ull, 0x8eb7c62c937c0633ull, 0x2cf698502e146074ull, 0x7fd24d4f0fd5ce14ull},
      {0xe8fbf2d50b8e96d6ull, 0x94cecac2373313f7ull, 0x8acad46661cc2a70ull, 0x2213c67837e3b9d6ull, 0xfb7179debe3222a2ull},
  };
  for (std::size_t i = 0; i < std::size(kBilboWidths); ++i)
    for (int mode = 0; mode < 5; ++mode) {
      const std::uint64_t got = bilbo_digest(kBilboWidths[i], mode);
      EXPECT_EQ(got, want[i][mode]) << "width " << kBilboWidths[i] << " mode "
                                    << mode << " actual: " << hex(got);
    }
}

// --- lane-sliced registers ------------------------------------------------------

constexpr unsigned kLaneWords[] = {1, 4, 8};
constexpr std::uint64_t kEven = 0x5555555555555555ull;

std::uint64_t mask_of(std::size_t w) {
  return w == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
}

/// Per-lane load: pairs (2j, 2j+1) with j % 3 == 0 share one value, every
/// eighth pair copies lane 0, the rest get their own value; `nonzero`
/// folds every value onto [1, 2^w - 1].
std::uint64_t lane_load(std::size_t lane, std::size_t w, bool nonzero) {
  const std::size_t pair = lane / 2;
  const std::uint64_t key = pair % 8 == 4 ? 0 : pair % 3 == 0 ? 1000 + pair : lane;
  const std::uint64_t v = stream(5, key);
  return nonzero ? nonzero_lfsr_state(v, w) : v & mask_of(w);
}

/// A D word whose pairs agree where (word index, pair) says so: half the
/// pairs of every word see the same bit on both lanes.
std::uint64_t d_word(std::uint64_t salt, std::uint64_t k, std::size_t bit,
                     unsigned word) {
  const std::uint64_t r = stream(salt, (k * 64 + bit) * 8 + word);
  const std::uint64_t same = stream(salt + 1, word) & kEven;  // pairs that agree
  const std::uint64_t dup = (r & kEven) | ((r & kEven) << 1);
  const std::uint64_t pair_mask = same | (same << 1);
  return (dup & pair_mask) | (r & ~pair_mask);
}

/// Which diff masks a lane digest folds after the rows.
enum class Masks { kNone, kSignature, kAll };

/// Every row word, then the masks `masks` names: accumulate_diff and
/// accumulate_pair_diff (kSignature), plus accumulate_pair_d_diff (kAll).
std::uint64_t fold_lanes(std::uint64_t h, const LaneBilbo& reg, Masks masks) {
  const std::size_t w = reg.width();
  const unsigned W = reg.lane_words();
  for (std::size_t k = 0; k < w; ++k)
    for (unsigned x = 0; x < W; ++x) h = fnv1a_u64(h, reg.row(k)[x]);
  if (masks == Masks::kNone) return h;
  std::uint64_t diff[8] = {}, pair[8] = {}, pair_d[8] = {};
  reg.accumulate_diff(diff);
  reg.accumulate_pair_diff(pair);
  if (masks == Masks::kAll) reg.accumulate_pair_d_diff(pair_d);
  for (unsigned x = 0; x < W; ++x) {
    h = fnv1a_u64(h, diff[x]);
    h = fnv1a_u64(h, pair[x]);
    h = fnv1a_u64(h, pair_d[x]);
  }
  return h;
}

std::uint64_t fold_states(std::uint64_t h, const LaneBilbo& reg) {
  for (std::size_t lane = 0; lane < 64u * reg.lane_words(); ++lane)
    h = fnv1a_u64(h, reg.lane_state(lane));
  return h;
}

constexpr std::size_t kLaneGenWidths[] = {2, 8, 16, 40, 64};

/// Lane generator, every lane loaded with a nonzero state as the fleet's
/// input generator loads its instance lanes. (Where the generator once was
/// a class of its own, a zero lane stayed at 0 and a 1-bit register was
/// constant; neither is pinned here.)
std::uint64_t lane_generator_digest(std::size_t w, unsigned W) {
  LaneBilbo reg(w, W);
  reg.reset(0);
  for (std::size_t lane = 0; lane < 64u * W; ++lane)
    reg.load_lane(lane, lane_load(lane, w, true));
  std::uint64_t h = kFnvOffset;
  for (int k = 0; k < kClocks; ++k) {
    reg.clock(BilboMode::kGenerate);
    h = fold_lanes(h, reg, Masks::kNone);
  }
  return fold_states(h, reg);
}

TEST(RegisterGolden, LaneGeneratorSequences) {
  const std::uint64_t want[][3] = {
      {0xf06c8e90f90b41b1ull, 0x7f96eedfb6f29aa9ull, 0x6296b6d0e44ec6efull},
      {0xd06c0381c5225a48ull, 0x9f4d2469b4abdbf7ull, 0x753714dfaf0735d2ull},
      {0x103118a4115e56e9ull, 0x79778de9351b83b3ull, 0x733049720ffa2429ull},
      {0xcf22cf24b7888078ull, 0x94798fcde2b1073aull, 0x1b82e437f16c47e3ull},
      {0x178d2d0349ccbd3aull, 0x2bbf12d2b58e365bull, 0x804304ae5fce4ac5ull},
  };
  for (std::size_t i = 0; i < std::size(kLaneGenWidths); ++i)
    for (std::size_t j = 0; j < std::size(kLaneWords); ++j) {
      const std::uint64_t got = lane_generator_digest(kLaneGenWidths[i], kLaneWords[j]);
      EXPECT_EQ(got, want[i][j]) << "width " << kLaneGenWidths[i] << " lane_words "
                                 << kLaneWords[j] << " actual: " << hex(got);
    }
}

constexpr std::size_t kLaneWidths[] = {1, 2, 8, 16, 64};

/// Lane compactor from mixed loads; clock k absorbs only its first
/// k % (w + 1) rows (rows n and up absorb 0), the partial chunk of an
/// output count that is not a multiple of the width.
std::uint64_t lane_compactor_digest(std::size_t w, unsigned W) {
  LaneBilbo reg(w, W);
  reg.reset(0);
  for (std::size_t lane = 0; lane < 64u * W; ++lane)
    reg.load_lane(lane, lane_load(lane, w, false));
  std::uint64_t h = kFnvOffset;
  for (int k = 0; k < kClocks; ++k) {
    const std::size_t n = static_cast<std::size_t>(k) % (w + 1);
    for (std::size_t b = 0; b < w; ++b)
      for (unsigned x = 0; x < W; ++x) reg.d_row(b)[x] = b < n ? d_word(6, k, b, x) : 0;
    reg.clock(BilboMode::kCompress);
    h = fold_lanes(h, reg, Masks::kSignature);
  }
  return fold_states(h, reg);
}

TEST(RegisterGolden, LaneCompactorSequences) {
  const std::uint64_t want[][3] = {
      {0xfdd2d3215ddaf9full, 0xfe11689f8e65bccfull, 0x295bc638dfdad2e2ull},
      {0x42a9781cf6b5680cull, 0xad88abd0897137d9ull, 0x195daddcb257557dull},
      {0xfd84c0ddf654ac82ull, 0xb15174611cfaf5afull, 0x4ef421fe3863c48dull},
      {0x3e65c767f0b94a7ull, 0xb9a6d0e3cac26cc0ull, 0x41560100b0ab9cbcull},
      {0x8c9046c9c28b8fa9ull, 0xf47f36da0a058232ull, 0xc890b6eadb755e48ull},
  };
  for (std::size_t i = 0; i < std::size(kLaneWidths); ++i)
    for (std::size_t j = 0; j < std::size(kLaneWords); ++j) {
      const std::uint64_t got = lane_compactor_digest(kLaneWidths[i], kLaneWords[j]);
      EXPECT_EQ(got, want[i][j]) << "width " << kLaneWidths[i] << " lane_words "
                                 << kLaneWords[j] << " actual: " << hex(got);
    }
}

/// LaneBilbo from a broadcast reset plus mixed loads (zero lanes too),
/// each clock in a mode picked from the stream.
std::uint64_t lane_bilbo_digest(std::size_t w, unsigned W) {
  LaneBilbo reg(w, W);
  reg.reset(stream(7, w));
  for (std::size_t lane = 0; lane < 64u * W; lane += 3)
    reg.load_lane(lane, lane_load(lane, w, false));
  std::uint64_t h = kFnvOffset;
  for (int k = 0; k < kClocks; ++k) {
    for (std::size_t b = 0; b < w; ++b)
      for (unsigned x = 0; x < W; ++x) reg.d_row(b)[x] = d_word(8, k, b, x);
    reg.clock(kModes[stream(9, k) % 4]);
    h = fold_lanes(h, reg, Masks::kAll);
  }
  return fold_states(h, reg);
}

TEST(RegisterGolden, LaneBilboSequences) {
  const std::uint64_t want[][3] = {
      {0x80150b82e971c076ull, 0xd80a3023278e08a8ull, 0x24734744286099e7ull},
      {0xbc35a111d728498dull, 0x8de2884747351315ull, 0x4c48cc74385f20a2ull},
      {0x7f802b3d43a74076ull, 0xca907caf25ae0204ull, 0x5086bbff5bf33831ull},
      {0xe924aa9171c17169ull, 0x484bbab670a6eacfull, 0x8d03b9ca35d9781bull},
      {0x830925cbad8ff675ull, 0xf85bbf3df77780f7ull, 0x84184945dd653671ull},
  };
  for (std::size_t i = 0; i < std::size(kLaneWidths); ++i)
    for (std::size_t j = 0; j < std::size(kLaneWords); ++j) {
      const std::uint64_t got = lane_bilbo_digest(kLaneWidths[i], kLaneWords[j]);
      EXPECT_EQ(got, want[i][j]) << "width " << kLaneWidths[i] << " lane_words "
                                 << kLaneWords[j] << " actual: " << hex(got);
    }
}

}  // namespace
}  // namespace stc
