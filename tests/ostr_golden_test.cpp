// OSTR search goldens: the best pair, the search counters and the interner
// counters of solve_ostr, pinned per corpus machine so that a refactor of
// the search engine (quota rounds, incumbents, merge order, floor exit)
// can be shown to change neither the answer nor a unit of counted work.
// The cases are every corpus machine at a 20k-node cap, the synth
// workload's machines at the job-path cap, and dk27 under a work
// allowance. A failing row prints its actual values in the table's own
// layout.

#include <gtest/gtest.h>

#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "benchdata/iwls93.hpp"
#include "ostr/ostr.hpp"
#include "util/hash.hpp"

namespace stc {
namespace {

struct OstrRow {
  const char* machine;
  std::size_t s1, s2, flipflops;
  double balance;
  std::uint64_t pair_digest;  // FNV-1a over the best.pi then best.tau labels
  std::uint64_t nodes, pruned, seen;
  bool exhausted, degraded;
  // PartitionStore::Stats: interned, then (lookups, hits) of join, meet,
  // refines, m and M.
  std::uint64_t cache[11];
};

std::uint64_t pair_digest(const OstrSolution& s) {
  std::uint64_t h = kFnvOffset;
  for (const Partition* p : {&s.pi, &s.tau}) {
    h = fnv1a_u64(h, p->size());
    for (std::size_t i = 0; i < p->size(); ++i) h = fnv1a_u64(h, p->labels()[i]);
  }
  return h;
}

std::vector<std::uint64_t> cache_counters(const PartitionStore::Stats& c) {
  return {c.interned,        c.join.lookups,  c.join.hits, c.meet.lookups,
          c.meet.hits,       c.refines.lookups, c.refines.hits, c.m_op.lookups,
          c.m_op.hits,       c.M_op.lookups,  c.M_op.hits};
}

/// The result as a row of the tables below.
std::string actual_row(const std::string& machine, const OstrResult& r) {
  std::ostringstream got;
  got << "actual: {\"" << machine << "\", " << r.best.s1 << ", " << r.best.s2
      << ", " << r.best.flipflops << ", " << std::setprecision(17) << r.best.balance
      << ", 0x" << std::hex << pair_digest(r.best) << std::dec << "ull, "
      << r.stats.nodes_investigated << ", " << r.stats.nodes_pruned << ", "
      << r.stats.solutions_seen << ", " << (r.stats.exhausted ? "true" : "false")
      << ", " << (r.degradation.degraded ? "true" : "false") << ", {";
  const std::vector<std::uint64_t> cache = cache_counters(r.stats.cache);
  for (std::size_t i = 0; i < cache.size(); ++i) got << (i ? ", " : "") << cache[i];
  got << "}}";
  return got.str();
}

void expect_row(const OstrResult& r, const OstrRow& want) {
  const std::string got = actual_row(want.machine, r);
  EXPECT_EQ(r.best.s1, want.s1) << got;
  EXPECT_EQ(r.best.s2, want.s2) << got;
  EXPECT_EQ(r.best.flipflops, want.flipflops) << got;
  EXPECT_EQ(r.best.balance, want.balance) << got;
  EXPECT_EQ(pair_digest(r.best), want.pair_digest) << got;
  EXPECT_EQ(r.stats.nodes_investigated, want.nodes) << got;
  EXPECT_EQ(r.stats.nodes_pruned, want.pruned) << got;
  EXPECT_EQ(r.stats.solutions_seen, want.seen) << got;
  EXPECT_EQ(r.stats.exhausted, want.exhausted) << got;
  EXPECT_EQ(r.degradation.degraded, want.degraded) << got;
  const std::vector<std::uint64_t> cache = cache_counters(r.stats.cache);
  for (std::size_t i = 0; i < cache.size(); ++i)
    EXPECT_EQ(cache[i], want.cache[i]) << "cache[" << i << "] " << got;
}

const OstrRow kCorpus20k[] = {
    {"bbara", 2, 5, 4, 0.59999999999999998, 0x29195d501807b4e4ull, 345, 301, 43, true, false, {142, 3839, 3451, 3868, 3682, 4083, 3969, 516, 453, 45, 33}},
    {"bbtas", 6, 6, 6, 0, 0x1d73892579134745ull, 50, 46, 1, true, false, {61, 134, 33, 153, 72, 235, 172, 128, 88, 4, 0}},
    {"dk14", 7, 7, 6, 0, 0x327006a9d4a55925ull, 17, 16, 1, true, false, {42, 42, 21, 60, 23, 124, 85, 80, 42, 1, 0}},
    {"dk15", 4, 4, 4, 0, 0x9a970d73fc0506e5ull, 4, 3, 1, true, false, {9, 12, 6, 17, 9, 36, 27, 22, 13, 1, 0}},
    {"dk16", 3, 9, 6, 0.66666666666666674, 0x7beae8778f6732aeull, 10239, 9903, 56, false, true, {1493, 16783, 15457, 15678, 15104, 16278, 15750, 10519, 10019, 336, 123}},
    {"dk17", 8, 8, 6, 0, 0xf8ed24cbbaf4d565ull, 60, 56, 1, true, false, {129, 260, 69, 288, 157, 409, 305, 177, 103, 5, 1}},
    {"dk27", 2, 3, 3, 0.33333333333333337, 0x4ce4095140c3b804ull, 405, 347, 96, true, false, {231, 2987, 2432, 3052, 2596, 4524, 4196, 1820, 1699, 60, 38}},
    {"dk512", 3, 5, 5, 0.40000000000000002, 0xdff34c5f30659562ull, 10045, 8619, 459, false, true, {1162, 12305, 10481, 12626, 11989, 15019, 14425, 11012, 10448, 1426, 1278}},
    {"mc", 4, 4, 4, 0, 0x9a970d73fc0506e5ull, 6, 5, 1, true, false, {10, 12, 6, 19, 9, 38, 27, 24, 14, 1, 0}},
    {"s1", 20, 20, 10, 0, 0xe2e345dcead044e5ull, 190, 189, 1, true, false, {445, 0, 0, 191, 2, 192, 16, 190, 0, 1, 0}},
    {"shiftreg", 2, 4, 3, 0.5, 0x160ad9b84f2e8585ull, 25, 15, 54, true, false, {206, 1212, 769, 1229, 916, 1784, 1621, 573, 456, 10, 0}},
    {"tav", 2, 2, 2, 0, 0x6f1ccd392e027885ull, 4, 2, 2, true, false, {10, 22, 6, 26, 17, 46, 37, 22, 13, 2, 0}},
    {"tbk", 4, 8, 5, 0.5, 0x9a87003dd0deed25ull, 20131, 19772, 246, false, true, {767, 41941, 40482, 32970, 32676, 33442, 33148, 20244, 20085, 359, 252}},
    {"paper_fig5", 2, 2, 2, 0, 0x40ab685162085aa5ull, 5, 3, 2, true, false, {10, 21, 6, 27, 18, 47, 36, 23, 14, 2, 0}},
    {"serial_adder", 2, 2, 2, 0, 0xfee3ab3bb24cfd45ull, 2, 1, 1, true, false, {2, 2, 1, 5, 4, 9, 7, 5, 3, 1, 0}},
    {"parity4", 2, 2, 2, 0, 0xfee3ab3bb24cfd45ull, 2, 1, 1, true, false, {2, 2, 1, 5, 4, 9, 7, 5, 3, 1, 0}},
    {"count10", 10, 10, 8, 0, 0x5716259d6d668145ull, 46, 45, 1, true, false, {136, 90, 45, 137, 47, 273, 183, 181, 90, 1, 0}},
    {"count15", 15, 15, 8, 0, 0x6bbbe52ee6f2725ull, 106, 105, 1, true, false, {211, 0, 0, 107, 2, 108, 3, 106, 0, 1, 0}},
    {"shiftreg4", 4, 4, 4, 0, 0x9ad73eae1ded12e5ull, 1, 0, 25, true, false, {814, 2900, 1046, 2902, 2154, 5161, 4668, 2259, 1773, 1, 0}},
};

TEST(OstrGolden, EveryCorpusMachineAt20kNodes) {
  const std::vector<std::string> names = benchmark_names();
  EXPECT_EQ(std::size(kCorpus20k), names.size());
  for (const std::string& name : names) {
    OstrOptions opt;
    opt.max_nodes = 20000;
    const OstrResult r = solve_ostr(load_benchmark(name), opt);
    const OstrRow* want = nullptr;
    for (const OstrRow& row : kCorpus20k)
      if (name == row.machine) want = &row;
    if (want == nullptr)
      ADD_FAILURE() << name << " has no row; " << actual_row(name, r);
    else
      expect_row(r, *want);
  }
}

// The node cap that run_flow gets on the job path and in the synth
// workload.
TEST(OstrGolden, SynthMachinesAtTwoMillionNodes) {
  const OstrRow rows[] = {
      {"s1", 20, 20, 10, 0, 0xe2e345dcead044e5ull, 190, 189, 1, true, false, {445, 0, 0, 191, 2, 192, 16, 190, 0, 1, 0}},
      {"tbk", 4, 8, 5, 0.5, 0x9a87003dd0deed25ull, 1194271, 1179785, 14013, false, true, {806, 1756582, 1747935, 1428576, 1428240, 1445024, 1444688, 1309206, 1309022, 15909, 15785}},
      {"dk16", 3, 9, 6, 0.66666666666666674, 0x7beae8778f6732aeull, 1015647, 1009543, 4388, false, true, {18687, 1088514, 1072234, 1041596, 1032249, 1049242, 1040936, 1017369, 1008308, 6104, 5465}},
      {"bbara", 2, 5, 4, 0.59999999999999998, 0x29195d501807b4e4ull, 345, 301, 43, true, false, {142, 3773, 3385, 3801, 3615, 4015, 3901, 515, 452, 44, 32}},
  };
  for (const OstrRow& row : rows) {
    OstrOptions opt;
    opt.max_nodes = 2000000;
    expect_row(solve_ostr(load_benchmark(row.machine), opt), row);
  }
}

// A work allowance below max_nodes caps the search through the same
// deterministic quotas.
TEST(OstrGolden, Dk27UnderWorkAllowance200) {
  const OstrRow row = {"dk27", 2, 3, 3, 0.33333333333333337, 0x4ce4095140c3b804ull, 105, 76, 39, false, true, {226, 1322, 856, 1350, 928, 2161, 1857, 887, 773, 29, 9}};
  OstrOptions opt;
  opt.budget = Budget::work_limit(200);
  expect_row(solve_ostr(load_benchmark("dk27"), opt), row);
}

}  // namespace
}  // namespace stc
