// Tests for the two-level logic substrate (src/logic): cubes, covers,
// Quine-McCluskey, espresso-lite, and the cost model.

#include <gtest/gtest.h>

#include "logic/cost.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/qm.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

// --- Cube ---------------------------------------------------------------------

TEST(Cube, MintermAndContainment) {
  const Cube c = Cube::minterm(0b101, 3);
  EXPECT_EQ(c.num_literals(), 3u);
  EXPECT_TRUE(c.contains_minterm(0b101));
  EXPECT_FALSE(c.contains_minterm(0b100));
}

TEST(Cube, FromToStringMsbFirst) {
  const Cube c = Cube::from_string("1-0");
  EXPECT_EQ(c.num_literals(), 2u);
  EXPECT_TRUE(c.contains_minterm(0b100));
  EXPECT_TRUE(c.contains_minterm(0b110));
  EXPECT_FALSE(c.contains_minterm(0b000));
  EXPECT_EQ(c.to_string(3), "1-0");
  EXPECT_THROW(Cube::from_string("1x0"), std::invalid_argument);
}

TEST(Cube, TopCoversEverything) {
  const Cube t = Cube::top();
  EXPECT_EQ(t.num_literals(), 0u);
  for (Minterm m = 0; m < 8; ++m) EXPECT_TRUE(t.contains_minterm(m));
}

TEST(Cube, CoversOrdering) {
  const Cube big = Cube::from_string("1--");
  const Cube small = Cube::from_string("1-0");
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
  EXPECT_TRUE(big.covers(big));
}

TEST(Cube, IntersectionLogic) {
  const Cube a = Cube::from_string("1-");
  const Cube b = Cube::from_string("-0");
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.intersect(b), Cube::from_string("10"));
  const Cube c = Cube::from_string("0-");
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.conflict_count(c), 1u);
}

TEST(Cube, TryMergeAdjacent) {
  Cube merged;
  EXPECT_TRUE(Cube::from_string("101").try_merge(Cube::from_string("100"), &merged));
  EXPECT_EQ(merged, Cube::from_string("10-"));
  EXPECT_FALSE(Cube::from_string("101").try_merge(Cube::from_string("010"), &merged));
  EXPECT_FALSE(Cube::from_string("10-").try_merge(Cube::from_string("100"), &merged));
}

TEST(Cube, WithoutDropsLiteral) {
  const Cube c = Cube::from_string("101");
  EXPECT_EQ(c.without(0), Cube::from_string("10-"));
  EXPECT_EQ(c.without(2), Cube::from_string("-01"));
}

// --- TruthTable / Cover ---------------------------------------------------------

TEST(TruthTable, OnOffDcPartition) {
  TruthTable tt(3);
  tt.set_on(1);
  tt.set_dc(2);
  EXPECT_TRUE(tt.is_on(1));
  EXPECT_TRUE(tt.is_dc(2));
  EXPECT_TRUE(tt.is_off(0));
  EXPECT_EQ(tt.on_count(), 1u);
  EXPECT_EQ(tt.on_minterms().size(), 1u);
  EXPECT_EQ(tt.off_minterms().size(), 6u);
  EXPECT_THROW(TruthTable(25), std::invalid_argument);
}

TEST(Cover, EvaluateAndImplements) {
  TruthTable tt(2);  // XOR
  tt.set_on(0b01);
  tt.set_on(0b10);
  Cover c(2);
  c.add(Cube::from_string("01"));
  c.add(Cube::from_string("10"));
  EXPECT_TRUE(c.implements(tt));
  EXPECT_TRUE(c.evaluate(0b10));
  EXPECT_FALSE(c.evaluate(0b11));
  Cover wrong(2);
  wrong.add(Cube::from_string("1-"));
  EXPECT_FALSE(wrong.implements(tt));
}

TEST(Cover, RemoveContained) {
  Cover c(3);
  c.add(Cube::from_string("1--"));
  c.add(Cube::from_string("1-0"));  // contained
  c.add(Cube::from_string("1--"));  // duplicate
  c.remove_contained();
  EXPECT_EQ(c.num_cubes(), 1u);
}

// --- Quine-McCluskey ------------------------------------------------------------

TEST(QM, PrimesOfXorAreMinterms) {
  TruthTable tt(2);
  tt.set_on(0b01);
  tt.set_on(0b10);
  const auto primes = prime_implicants(tt);
  EXPECT_EQ(primes.size(), 2u);
}

TEST(QM, FullOnSetCollapsesToTop) {
  TruthTable tt(3);
  for (Minterm m = 0; m < 8; ++m) tt.set_on(m);
  const Cover c = minimize_qm(tt);
  ASSERT_EQ(c.num_cubes(), 1u);
  EXPECT_EQ(c.cubes()[0].num_literals(), 0u);
}

TEST(QM, ConstantZeroIsEmptyCover) {
  TruthTable tt(3);
  const Cover c = minimize_qm(tt);
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(c.implements(tt));
}

TEST(QM, ClassicTextbookFunction) {
  // f = sum m(0,1,2,5,6,7) over 3 vars: minimal SOP has 3 cubes of 2
  // literals (one of the classic two-solution cases).
  TruthTable tt(3);
  for (Minterm m : {0, 1, 2, 5, 6, 7}) tt.set_on(static_cast<Minterm>(m));
  const Cover c = minimize_qm(tt);
  EXPECT_TRUE(c.implements(tt));
  EXPECT_EQ(c.num_cubes(), 3u);
  EXPECT_EQ(c.num_literals(), 6u);
}

TEST(QM, DontCaresEnlargeCubes) {
  // f on {7}, dc {3,5,6}: the single cube can keep only one literal? No:
  // largest prime within ON u DC containing 7 is "11-"/"1-1"/"-11".
  TruthTable tt(3);
  tt.set_on(7);
  tt.set_dc(3);
  tt.set_dc(5);
  tt.set_dc(6);
  const Cover c = minimize_qm(tt);
  EXPECT_TRUE(c.implements(tt));
  ASSERT_EQ(c.num_cubes(), 1u);
  EXPECT_EQ(c.cubes()[0].num_literals(), 2u);
}

class MinimizerProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  TruthTable random_table(std::size_t vars, Rng& rng, double p_on, double p_dc) {
    TruthTable tt(vars);
    for (Minterm m = 0; m < tt.num_minterms(); ++m) {
      const double u = rng.unit();
      if (u < p_on) {
        tt.set_on(m);
      } else if (u < p_on + p_dc) {
        tt.set_dc(m);
      }
    }
    return tt;
  }
};

TEST_P(MinimizerProperty, QmImplementsRandomTables) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 10; ++iter) {
    const TruthTable tt = random_table(2 + rng.below(5), rng, 0.4, 0.2);
    const Cover c = minimize_qm(tt);
    EXPECT_TRUE(c.implements(tt));
  }
}

TEST_P(MinimizerProperty, EspressoImplementsRandomTables) {
  Rng rng(GetParam() * 13 + 1);
  for (int iter = 0; iter < 10; ++iter) {
    const TruthTable tt = random_table(2 + rng.below(7), rng, 0.35, 0.25);
    const Cover c = minimize_espresso(tt);
    EXPECT_TRUE(c.implements(tt));
  }
}

TEST_P(MinimizerProperty, EspressoNeverWorseThanMinterms) {
  Rng rng(GetParam() * 7 + 3);
  const TruthTable tt = random_table(6, rng, 0.4, 0.1);
  const Cover c = minimize_espresso(tt);
  EXPECT_LE(c.num_cubes(), tt.on_count());
}

TEST_P(MinimizerProperty, QmNeverWorseThanEspressoOnCubes) {
  // QM is exact on the cube count it optimizes (with literal tie-break);
  // espresso-lite must not beat it.
  Rng rng(GetParam() * 31 + 5);
  const TruthTable tt = random_table(5, rng, 0.4, 0.15);
  const Cover exact = minimize_qm(tt);
  const Cover heur = minimize_espresso(tt);
  EXPECT_LE(exact.num_cubes(), heur.num_cubes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizerProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

// --- cost ------------------------------------------------------------------------

TEST(Cost, SingleCubeCover) {
  Cover c(3);
  c.add(Cube::from_string("10-"));  // 2 literals, one complemented
  const LogicCost cost = cover_cost(c);
  EXPECT_EQ(cost.cubes, 1u);
  EXPECT_EQ(cost.literals, 2u);
  EXPECT_DOUBLE_EQ(cost.gate_equivalents, 1.0 + 0.5);  // AND2 + one INV
}

TEST(Cost, MultiCubeSharesInverters) {
  Cover c(2);
  c.add(Cube::from_string("0-"));
  c.add(Cube::from_string("-0"));
  // Two 1-literal terms (0 GE each), OR2 (1 GE), two distinct inverters.
  const LogicCost cost = cover_cost(c);
  EXPECT_DOUBLE_EQ(cost.gate_equivalents, 1.0 + 2 * 0.5);
}

TEST(Cost, BlockAddsUp) {
  Cover a(2), b(2);
  a.add(Cube::from_string("11"));
  b.add(Cube::from_string("00"));
  const LogicCost cost = block_cost({a, b});
  EXPECT_EQ(cost.cubes, 2u);
  EXPECT_EQ(cost.literals, 4u);
  EXPECT_DOUBLE_EQ(flipflop_ge(3), 12.0);
}

}  // namespace
}  // namespace stc
