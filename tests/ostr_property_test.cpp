// Property tests for the OSTR solver (src/ostr): agreement with the
// brute-force reference, validity of every returned solution, planted-
// decomposition bounds, Lemma-1 pruning soundness, and the state-splitting
// extension.

#include <gtest/gtest.h>

#include "benchdata/iwls93.hpp"
#include "fsm/generate.hpp"
#include "fsm/minimize.hpp"
#include "fsm/simulate.hpp"
#include "ostr/ostr.hpp"
#include "ostr/state_split.hpp"
#include "ostr/verify.hpp"

namespace stc {
namespace {

// --- all_partitions ----------------------------------------------------------

TEST(AllPartitions, BellNumbers) {
  EXPECT_EQ(all_partitions(1).size(), 1u);
  EXPECT_EQ(all_partitions(2).size(), 2u);
  EXPECT_EQ(all_partitions(3).size(), 5u);
  EXPECT_EQ(all_partitions(4).size(), 15u);
  EXPECT_EQ(all_partitions(5).size(), 52u);
  EXPECT_EQ(all_partitions(6).size(), 203u);
  EXPECT_THROW(all_partitions(11), std::invalid_argument);
}

TEST(AllPartitions, AllDistinct) {
  const auto parts = all_partitions(5);
  for (std::size_t i = 0; i < parts.size(); ++i)
    for (std::size_t j = i + 1; j < parts.size(); ++j)
      EXPECT_NE(parts[i], parts[j]);
}

// --- solver validity on random machines --------------------------------------

class OstrRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OstrRandom, SolutionIsValidSymmetricPair) {
  const MealyMachine m = random_mealy(GetParam(), 6, 2, 2);
  const OstrResult res = solve_ostr(m);
  EXPECT_TRUE(res.stats.exhausted);
  EXPECT_TRUE(is_symmetric_pair(m, res.best.pi, res.best.tau));
  EXPECT_TRUE(res.best.pi.meet(res.best.tau).refines(state_equivalence(m)));
}

TEST_P(OstrRandom, SolutionBuildsVerifiedRealization) {
  const MealyMachine m = random_mealy(GetParam() + 100, 7, 2, 2);
  const OstrResult res = solve_ostr(m);
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  EXPECT_TRUE(verify_realization(m, real).ok());
  EXPECT_EQ(real.flipflops(), res.best.flipflops);
  EXPECT_EQ(real.s1(), res.best.s1);
  EXPECT_EQ(real.s2(), res.best.s2);
}

TEST_P(OstrRandom, NeverWorseThanDoubling) {
  const MealyMachine m = random_mealy(GetParam() + 200, 8, 2, 2);
  const OstrResult res = solve_ostr(m);
  EXPECT_LE(res.best.flipflops, 2 * ceil_log2(m.num_states()));
}

TEST_P(OstrRandom, AgreesWithBruteForceOnFlipflops) {
  // The search procedure of Section 3 must find the same optimal
  // criterion-(i) value as exhaustive enumeration over all partition
  // pairs (machines small enough for Bell-number enumeration).
  const MealyMachine m = random_mealy(GetParam() + 300, 6, 2, 2);
  const OstrResult res = solve_ostr(m);
  const OstrSolution bf = brute_force_ostr(m);
  EXPECT_EQ(res.best.flipflops, bf.flipflops)
      << "search: " << res.best.s1 << "x" << res.best.s2 << " brute: " << bf.s1
      << "x" << bf.s2;
}

TEST_P(OstrRandom, PruningDoesNotChangeTheOptimum) {
  const MealyMachine m = random_mealy(GetParam() + 400, 7, 2, 2);
  OstrOptions pruned;
  OstrOptions unpruned;
  unpruned.prune = false;
  unpruned.max_nodes = 5'000'000;
  const OstrResult a = solve_ostr(m, pruned);
  const OstrResult b = solve_ostr(m, unpruned);
  ASSERT_TRUE(b.stats.exhausted);
  EXPECT_EQ(a.best.flipflops, b.best.flipflops);
  EXPECT_LE(a.stats.nodes_investigated, b.stats.nodes_investigated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OstrRandom, ::testing::Range<std::uint64_t>(0, 10));

// --- planted decompositions ---------------------------------------------------

struct PlantedCase {
  std::uint64_t seed;
  std::size_t n1, n2, inputs;
};

class OstrPlanted : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(OstrPlanted, FindsAtMostPlantedCost) {
  const auto& pc = GetParam();
  const MealyMachine m = decomposable_mealy(pc.seed, pc.n1, pc.n2, pc.inputs, 4);
  const OstrResult res = solve_ostr(m);
  // The planted row/column pair gives an upper bound on the optimum.
  EXPECT_LE(res.best.flipflops, ceil_log2(pc.n1) + ceil_log2(pc.n2));
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  EXPECT_TRUE(verify_realization(m, real).ok());
}

TEST_P(OstrPlanted, PlantedPartitionsFormSymmetricPair) {
  const auto& pc = GetParam();
  const MealyMachine m = decomposable_mealy(pc.seed, pc.n1, pc.n2, pc.inputs, 4);
  // Reconstruct the planted row/column partitions from the state layout
  // (state id = s1 * n2 + s2).
  std::vector<std::size_t> rows(m.num_states()), cols(m.num_states());
  for (std::size_t s = 0; s < m.num_states(); ++s) {
    rows[s] = s / pc.n2;
    cols[s] = s % pc.n2;
  }
  const Partition pi = Partition::from_labels(rows);
  const Partition tau = Partition::from_labels(cols);
  EXPECT_TRUE(is_symmetric_pair(m, pi, tau));
  EXPECT_TRUE(pi.meet(tau).is_identity());
}

INSTANTIATE_TEST_SUITE_P(Cases, OstrPlanted,
                         ::testing::Values(PlantedCase{1, 2, 2, 2},
                                           PlantedCase{2, 3, 2, 2},
                                           PlantedCase{3, 2, 4, 3},
                                           PlantedCase{4, 4, 2, 2},
                                           PlantedCase{5, 3, 3, 2},
                                           PlantedCase{6, 4, 4, 2}));

// --- structural machines ------------------------------------------------------

TEST(OstrStructural, ShiftRegistersDecomposePerfectly) {
  // An n-bit shift register always splits into smaller registers: total
  // flip-flops stay n (the lower bound |S1|*|S2| = |S|).
  for (std::size_t bits = 2; bits <= 4; ++bits) {
    const MealyMachine m = shift_register_fsm(bits);
    const OstrResult res = solve_ostr(m);
    EXPECT_EQ(res.best.flipflops, bits) << "bits " << bits;
    EXPECT_EQ(res.best.s1 * res.best.s2, m.num_states()) << "bits " << bits;
  }
}

TEST(OstrStructural, CountersDoNotPipelineDecompose) {
  // A mod-n counter's partition pairs are all "parallel" (SP); the
  // cross-coupled requirement forces the trivial solution.
  for (std::size_t n : {5, 6, 10}) {
    const MealyMachine m = counter_fsm(n);
    const OstrResult res = solve_ostr(m);
    EXPECT_EQ(res.best.flipflops, 2 * ceil_log2(n)) << "modulus " << n;
  }
}

TEST(OstrStructural, BudgetAbortStillReturnsValidSolution) {
  const MealyMachine m = decomposable_mealy(9, 4, 4, 2, 2);
  OstrOptions opts;
  opts.max_nodes = 3;
  const OstrResult res = solve_ostr(m, opts);
  EXPECT_FALSE(res.stats.exhausted);
  EXPECT_TRUE(is_symmetric_pair(m, res.best.pi, res.best.tau));
  EXPECT_LE(res.best.flipflops, 2 * ceil_log2(m.num_states()));
}

// --- state splitting (future-work extension) ----------------------------------

TEST(StateSplit, SplitPreservesBehavior) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const MealyMachine m = random_mealy(seed, 5, 2, 2);
    for (State victim = 0; victim < m.num_states(); ++victim) {
      const MealyMachine split = split_state(m, victim);
      EXPECT_EQ(split.num_states(), m.num_states() + 1);
      EXPECT_TRUE(equivalent(m, split)) << "seed " << seed << " victim " << victim;
    }
  }
}

TEST(StateSplit, SplitCopyIsEquivalentState) {
  const MealyMachine m = paper_example_fsm();
  const MealyMachine split = split_state(m, 2);
  const Partition eps = state_equivalence(split);
  EXPECT_TRUE(eps.same_block(2, 4));  // original and copy
}

TEST(StateSplit, OutOfRangeVictimThrows) {
  EXPECT_THROW(split_state(paper_example_fsm(), 99), std::out_of_range);
}

TEST(StateSplit, ImproveNeverHurts) {
  OstrOptions opts;
  opts.max_nodes = 50000;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const MealyMachine m = random_mealy(seed, 5, 2, 2);
    const SplitImprovement imp = improve_by_splitting(m, 1, opts);
    EXPECT_LE(imp.ostr.best.flipflops, imp.original_flipflops);
    EXPECT_TRUE(equivalent(m, imp.machine));
  }
}

// --- determinism ---------------------------------------------------------------

TEST(OstrDeterminism, SameInputSameResult) {
  const MealyMachine m = random_mealy(42, 7, 3, 2);
  const OstrResult a = solve_ostr(m);
  const OstrResult b = solve_ostr(m);
  EXPECT_EQ(a.best.pi, b.best.pi);
  EXPECT_EQ(a.best.tau, b.best.tau);
  EXPECT_EQ(a.stats.nodes_investigated, b.stats.nodes_investigated);
}

TEST(OstrDeterminism, ExternalStoreGivesSameResult) {
  const MealyMachine m = random_mealy(43, 7, 2, 2);
  const OstrResult a = solve_ostr(m);
  PartitionStore store(&m);
  const OstrResult b = solve_ostr(m, {}, store);
  // Reusing a warm store must not change anything either.
  const OstrResult c = solve_ostr(m, {}, store);
  EXPECT_EQ(a.best.pi, b.best.pi);
  EXPECT_EQ(a.best.tau, b.best.tau);
  EXPECT_EQ(a.best.pi, c.best.pi);
  EXPECT_EQ(a.stats.nodes_investigated, c.stats.nodes_investigated);
  EXPECT_GT(store.size(), 0u);
}

TEST(OstrDeterminism, StoreBoundToWrongMachineThrows) {
  const MealyMachine a = random_mealy(1, 5, 2, 2);
  const MealyMachine b = random_mealy(2, 5, 2, 2);
  PartitionStore store(&a);
  EXPECT_THROW(solve_ostr(b, {}, store), std::invalid_argument);
}

TEST(OstrDeterminism, CacheStatsAreReported) {
  const MealyMachine m = random_mealy(44, 8, 2, 2);
  const OstrResult res = solve_ostr(m);
  // The iterative engine funnels every lattice step through the store, so
  // a non-trivial search must show memo traffic and real hits.
  EXPECT_GT(res.stats.cache.interned, 0u);
  EXPECT_GT(res.stats.cache.join.lookups, 0u);
  EXPECT_GT(res.stats.cache.m_op.hits, 0u);
}

}  // namespace
}  // namespace stc
