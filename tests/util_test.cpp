// Tests for src/util: RNG, bit vectors, strings, tables, CLI.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/bitvec.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace stc {
namespace {

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next() != b.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(r.range(3, 3), 3);
  EXPECT_EQ(r.range(5, 1), 5);  // degenerate: returns lo
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(77);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- BitVec ------------------------------------------------------------------

TEST(BitVec, BasicSetGet) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.none());
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVec, FromStringRoundTrip) {
  const std::string s = "1010011";
  BitVec v = BitVec::from_string(s);
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.count(), 4u);
  EXPECT_THROW(BitVec::from_string("10x"), std::invalid_argument);
}

TEST(BitVec, FromWord) {
  BitVec v = BitVec::from_word(0b1011, 6);
  EXPECT_EQ(v.to_string(), "110100");
  EXPECT_EQ(v.to_word(), 0b1011u);
}

TEST(BitVec, BitwiseOps) {
  BitVec a = BitVec::from_string("1100");
  BitVec b = BitVec::from_string("1010");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  BitVec c(5);
  EXPECT_THROW(a &= c, std::invalid_argument);
}

TEST(BitVec, FlipAndAll) {
  BitVec v(3, true);
  EXPECT_TRUE(v.all());
  v.flip(1);
  EXPECT_FALSE(v.all());
  EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, ResizePreservesAndExtends) {
  BitVec v(4);
  v.set(3, true);
  v.resize(8, true);
  EXPECT_TRUE(v.get(3));
  EXPECT_TRUE(v.get(7));
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.count(), 5u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(4);
  EXPECT_THROW(v.get(4), std::out_of_range);
  EXPECT_THROW(v.set(4, true), std::out_of_range);
}

TEST(BitVec, HashAndEquality) {
  BitVec a = BitVec::from_string("101");
  BitVec b = BitVec::from_string("101");
  BitVec c = BitVec::from_string("1010");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitWs) {
  auto t = split_ws("  a\tbb  ccc \n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "ccc");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, SplitOn) {
  auto t = split_on("a,,b", ',');
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(Strings, Affixes) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(Strings, ParseSize) {
  EXPECT_EQ(parse_size("042"), 42u);
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("1x"), std::invalid_argument);
  EXPECT_THROW(parse_size("-1"), std::invalid_argument);
  // The largest size_t parses; one more overflows instead of wrapping.
  EXPECT_EQ(parse_size("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
  EXPECT_THROW(parse_size("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW(parse_size("18446744073709551617"), std::invalid_argument);
  EXPECT_THROW(parse_size("99999999999999999999999"), std::invalid_argument);
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("%s", ""), "");
}

// --- AsciiTable --------------------------------------------------------------

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"name", "v"});
  t.add_row({"aa", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name | v  |"), std::string::npos);
  EXPECT_NE(out.find("| aa   | 1  |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(AsciiTable, ArityMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiTable, CsvLine) {
  EXPECT_EQ(csv_line({"a", "1", "x"}), "a,1,x");
  EXPECT_EQ(csv_line({}), "");
}

// --- Cli ---------------------------------------------------------------------

TEST(Cli, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--k", "v", "--flag", "--n=5", "pos1", "pos2"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get("k", ""), "v");
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get_int("n", 0), 5);
  EXPECT_EQ(cli.get_int("absent", 9), 9);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[1], "pos2");
}

/// get_int's Error for `value` given as --lanes.
Error bad_int(const char* value) {
  const char* argv[] = {"prog", "--lanes", value};
  const Cli cli(3, const_cast<char**>(argv));
  try {
    cli.get_int("lanes", 64);
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "--lanes " << value << " was accepted";
  return Error(ErrorCode::kInternal, "accepted");
}

TEST(Cli, GetIntRejectsTrailingCharacters) {
  for (const char* value : {"64x", "1e6", "12 ", "x64", "0x40"}) {
    const Error e = bad_int(value);
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << value;
    EXPECT_EQ(e.context(), "flag=--lanes") << value;
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
  }
}

TEST(Cli, GetIntRejectsOverflow) {
  for (const char* value : {"99999999999999999999999", "-99999999999999999999999"}) {
    const Error e = bad_int(value);
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << value;
    EXPECT_NE(std::string(e.what()).find("--lanes"), std::string::npos) << e.what();
  }
}

TEST(Cli, GetIntAcceptsWholeIntegers) {
  const char* argv[] = {"prog", "--a", "-1", "--b=+7", "--d=0"};
  const Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("a", 0), -1);
  EXPECT_EQ(cli.get_int("b", 0), 7);
  EXPECT_EQ(cli.get_int("d", 5), 0);
  EXPECT_EQ(cli.get_int("absent", 5), 5);
}

TEST(Cli, GetIntRejectsAFlagWithoutAValue) {
  // "--c" is followed by another flag, "--d=" has an empty value: neither
  // falls back to the default.
  const char* argv[] = {"prog", "--c", "--d=", "--e"};
  const Cli cli(4, const_cast<char**>(argv));
  for (const char* flag : {"c", "d", "e"}) {
    try {
      cli.get_int(flag, 5);
      ADD_FAILURE() << "--" << flag << " without a value was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << flag;
      EXPECT_EQ(e.context(), std::string("flag=--") + flag);
    }
  }
}

TEST(Cli, RunCliExitsTwoOnAMalformedFlag) {
  const auto body = [](const Cli& cli) {
    return static_cast<int>(cli.get_int("lanes", 64) / 64) - 1;
  };
  const char* good[] = {"prog", "--lanes", "64"};
  EXPECT_EQ(run_cli(3, const_cast<char**>(good), {"lanes N"}, body), 0);
  const char* bad[] = {"prog", "--lanes", "64x"};
  EXPECT_EQ(run_cli(3, const_cast<char**>(bad), {"lanes N"}, body), 2);
}

/// get_count's Error for `value` given as --cycles, bounded by 1000.
Error bad_count(const char* value) {
  const char* argv[] = {"prog", "--cycles", value};
  const Cli cli(3, const_cast<char**>(argv));
  try {
    cli.get_count("cycles", 256, 1000);
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "--cycles " << value << " was accepted";
  return Error(ErrorCode::kInternal, "accepted");
}

TEST(Cli, GetCountRejectsNegativeValuesInsteadOfWrapping) {
  for (const char* value : {"-5", "-1", "-99999999"}) {
    const Error e = bad_count(value);
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << value;
    EXPECT_EQ(e.context(), "flag=--cycles") << value;
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
  }
}

TEST(Cli, GetCountRejectsValuesAboveTheBoundAndMalformedOnes) {
  for (const char* value : {"1001", "99999999999999999999999", "12x"}) {
    const Error e = bad_count(value);
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << value;
    EXPECT_NE(std::string(e.what()).find("--cycles"), std::string::npos) << e.what();
  }
}

TEST(Cli, GetCountAcceptsTheWholeRange) {
  const char* argv[] = {"prog", "--a", "0", "--b=1000", "--c", "--d", "7"};
  const Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_count("a", 5, 1000), 0u);
  EXPECT_EQ(cli.get_count("b", 5, 1000), 1000u);
  EXPECT_THROW(cli.get_count("c", 5, 1000), Error);  // present without a value
  EXPECT_EQ(cli.get_count("absent", 9, 1000), 9u);
  EXPECT_EQ(cli.get_count("d", 0), 7u);  // default bound: any long
}

TEST(Cli, RunCliExitsTwoOnACountFlagWithoutAValue) {
  const auto body = [](const Cli& cli) {
    return static_cast<int>(cli.get_count("cycles", 256, 1000) / 256) - 1;
  };
  const char* bare[] = {"prog", "--cycles"};
  EXPECT_EQ(run_cli(2, const_cast<char**>(bare), {"cycles N"}, body), 2);
  const char* absent[] = {"prog"};
  EXPECT_EQ(run_cli(1, const_cast<char**>(absent), {"cycles N"}, body), 0);
}

TEST(Cli, FlagsAreListedInCommandLineOrder) {
  const char* argv[] = {"prog", "--b", "1", "pos", "--a=2", "--c"};
  const Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.flags(), (std::vector<std::string>{"b", "a", "c"}));
}

int count_runs(const Cli&) {
  static int runs = 0;
  return ++runs;
}

TEST(Cli, RunCliRejectsUndeclaredFlagsWithoutRunningTheBody) {
  const int before = count_runs(Cli(0, nullptr));
  const char* typo[] = {"prog", "--machine", "dk27", "--cylces", "5"};
  EXPECT_EQ(run_cli(5, const_cast<char**>(typo), {"machine NAME", "cycles N"}, count_runs),
            2);
  const char* negative[] = {"prog", "--cycles", "-5"};
  const auto counted = [](const Cli& cli) {
    return static_cast<int>(cli.get_count("cycles", 1, 100)) - 1;
  };
  EXPECT_EQ(run_cli(3, const_cast<char**>(negative), {"cycles N"}, counted), 2);
  EXPECT_EQ(count_runs(Cli(0, nullptr)), before + 1);  // body never ran
}

TEST(Cli, RunCliHelpPrintsUsageAndExitsZero) {
  const char* help[] = {"prog", "--help"};
  const int before = count_runs(Cli(0, nullptr));
  EXPECT_EQ(run_cli(2, const_cast<char**>(help), {"machine NAME"}, count_runs), 0);
  EXPECT_EQ(count_runs(Cli(0, nullptr)), before + 1);  // body never ran
  EXPECT_EQ(cli_usage("prog", {"machine NAME", "faultsim"}),
            "usage: prog [--machine NAME] [--faultsim]");
  EXPECT_EQ(cli_usage("stcd", {"jobs N"}, "serve <dir>"), "usage: stcd serve <dir> [--jobs N]");
}

}  // namespace
}  // namespace stc
