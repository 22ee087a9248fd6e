// Tests for the cube-calculus core (logic/cubelist): unate-recursive
// tautology / complement / containment, the multi-output PLA cube list,
// the multi-output espresso engine built on them, and the shared-product
// netlist instantiation.

#include <gtest/gtest.h>

#include "benchdata/iwls93.hpp"
#include "encoding/encoded_fsm.hpp"
#include "logic/cost.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/qm.hpp"
#include "netlist/builder.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

Cover make_cover(std::size_t num_vars, std::initializer_list<const char*> cubes) {
  Cover c(num_vars);
  for (const char* s : cubes) c.add(Cube::from_string(s));
  return c;
}

// --- unate-recursive tautology -------------------------------------------------

TEST(Tautology, GoldenCases) {
  // The top cube alone is a tautology.
  EXPECT_TRUE(is_tautology(make_cover(3, {"---"})));
  // x + x' is a tautology.
  EXPECT_TRUE(is_tautology(make_cover(1, {"1", "0"})));
  // Both halves of a splitting variable.
  EXPECT_TRUE(is_tautology(make_cover(2, {"1-", "01", "00"})));
  // A classic binate cover of the whole 3-space.
  EXPECT_TRUE(is_tautology(make_cover(3, {"1--", "01-", "001", "000"})));
}

TEST(Tautology, NegativeCases) {
  EXPECT_FALSE(is_tautology(Cover(3)));  // empty cover
  EXPECT_FALSE(is_tautology(make_cover(2, {"1-", "01"})));  // misses 00
  // Unate cover without the top row is never a tautology.
  EXPECT_FALSE(is_tautology(make_cover(3, {"1--", "-1-", "--1"})));
}

TEST(Tautology, MatchesDenseEvaluationOnRandomCovers) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t nv = 1 + rng.below(6);
    Cover c(nv);
    const std::size_t n_cubes = rng.below(8);
    for (std::size_t k = 0; k < n_cubes; ++k) {
      std::uint64_t care = rng.below(std::size_t{1} << nv);
      std::uint64_t value = rng.below(std::size_t{1} << nv) & care;
      c.add(Cube{care, value});
    }
    bool dense = true;
    for (Minterm m = 0; m < (Minterm{1} << nv); ++m) dense = dense && c.evaluate(m);
    EXPECT_EQ(is_tautology(c), dense) << "iter " << iter;
  }
}

// --- complement ---------------------------------------------------------------

TEST(Complement, GoldenCases) {
  // Complement of the empty cover is the top cube.
  const Cover all = complement_cover(Cover(2));
  ASSERT_EQ(all.num_cubes(), 1u);
  EXPECT_EQ(all.cubes()[0].num_literals(), 0u);
  // Complement of the top cube is empty.
  EXPECT_TRUE(complement_cover(make_cover(2, {"--"})).empty());
  // De Morgan on a single product: (ab)' = a' + b'.
  const Cover demorgan = complement_cover(make_cover(2, {"11"}));
  EXPECT_EQ(demorgan.num_cubes(), 2u);
  for (Minterm m = 0; m < 4; ++m)
    EXPECT_EQ(demorgan.evaluate(m), m != 0b11);
}

TEST(Complement, RoundTripsOnRandomCovers) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t nv = 1 + rng.below(7);
    Cover c(nv);
    const std::size_t n_cubes = rng.below(10);
    for (std::size_t k = 0; k < n_cubes; ++k) {
      std::uint64_t care = rng.below(std::size_t{1} << nv);
      std::uint64_t value = rng.below(std::size_t{1} << nv) & care;
      c.add(Cube{care, value});
    }
    const Cover comp = complement_cover(c);
    for (Minterm m = 0; m < (Minterm{1} << nv); ++m)
      ASSERT_NE(comp.evaluate(m), c.evaluate(m)) << "iter " << iter << " m " << m;
  }
}

// --- cofactor / containment / sharp / supercube -------------------------------

TEST(Cofactor, DropsDisjointAndStripsFixedLiterals) {
  const Cover c = make_cover(3, {"11-", "0-1", "1-0"});
  const Cover cof = cofactor(c, Cube::from_string("1--"));
  // "0-1" is disjoint; the others lose their x2 literal.
  EXPECT_EQ(cof.num_cubes(), 2u);
  for (Minterm m = 0; m < 8; ++m) {
    if (m & 0b100) EXPECT_EQ(c.evaluate(m), cof.evaluate(m & 0b011));
  }
}

TEST(Containment, CubeInCover) {
  EXPECT_TRUE(cover_contains_cube(make_cover(2, {"1-"}), Cube::from_string("11")));
  // Two halves together contain the whole left column.
  EXPECT_TRUE(cover_contains_cube(make_cover(2, {"11", "10"}), Cube::from_string("1-")));
  EXPECT_FALSE(cover_contains_cube(make_cover(2, {"11"}), Cube::from_string("1-")));
}

TEST(Containment, CoverInCover) {
  const Cover big = make_cover(3, {"1--", "-1-"});
  const Cover small = make_cover(3, {"11-", "1-1"});
  EXPECT_TRUE(cover_contains_cover(big, small));
  EXPECT_FALSE(cover_contains_cover(small, big));
}

TEST(Sharp, SubtractsCover) {
  // (--) # (1-) = (0-).
  const auto r = sharp(Cube::top(), make_cover(2, {"1-"}));
  Cover rc(2);
  for (const Cube& q : r) rc.add(q);
  for (Minterm m = 0; m < 4; ++m) EXPECT_EQ(rc.evaluate(m), !(m & 0b10));
  // (1-) # (11) = (10).
  const auto r2 = sharp(Cube::from_string("1-"), make_cover(2, {"11"}));
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0], Cube::from_string("10"));
}

TEST(Supercube, SmallestEnclosingCube) {
  EXPECT_EQ(supercube({Cube::from_string("10"), Cube::from_string("11")}),
            Cube::from_string("1-"));
  EXPECT_EQ(supercube({Cube::from_string("00"), Cube::from_string("11")}),
            Cube::from_string("--"));
  EXPECT_EQ(supercube({Cube::from_string("101")}), Cube::from_string("101"));
}

// --- CubeList -----------------------------------------------------------------

TEST(CubeListOps, MergeAndDominate) {
  CubeList cl(2, 2);
  cl.add(Cube::from_string("11"), 0b01);
  cl.add(Cube::from_string("11"), 0b10);
  cl.merge_identical_inputs();
  ASSERT_EQ(cl.num_cubes(), 1u);
  EXPECT_EQ(cl.cubes()[0].out, 0b11u);

  cl.add(Cube::from_string("1-"), 0b11);  // dominates the merged 11 cube
  cl.remove_dominated();
  ASSERT_EQ(cl.num_cubes(), 1u);
  EXPECT_EQ(cl.cubes()[0].in, Cube::from_string("1-"));
}

TEST(CubeListOps, OutputCoverAndLiterals) {
  CubeList cl(3, 2);
  cl.add(Cube::from_string("11-"), 0b11);
  cl.add(Cube::from_string("--1"), 0b10);
  EXPECT_EQ(cl.output_cover(0).num_cubes(), 1u);
  EXPECT_EQ(cl.output_cover(1).num_cubes(), 2u);
  EXPECT_EQ(cl.num_input_literals(), 3u);
  EXPECT_EQ(cl.num_output_literals(), 3u);
  EXPECT_TRUE(cl.evaluate(0b110, 0));
  EXPECT_FALSE(cl.evaluate(0b001, 0));
  EXPECT_TRUE(cl.evaluate(0b001, 1));
}

// --- multi-output espresso ----------------------------------------------------

TEST(EspressoMv, SharesIdenticalProducts) {
  // Two outputs that are the same function must end up driven by the same
  // single product term.
  TruthTable f0(3), f1(3);
  for (Minterm m = 0; m < 8; ++m) {
    if ((m & 0b011) == 0b011) {
      f0.set_on(m);
      f1.set_on(m);
    }
  }
  const CubeList r = minimize_espresso_mv(PlaSpec::from_tables({f0, f1}));
  ASSERT_EQ(r.num_cubes(), 1u);
  EXPECT_EQ(r.cubes()[0].out, 0b11u);
  EXPECT_EQ(r.cubes()[0].in, Cube::from_string("-11"));
  EXPECT_TRUE(r.implements({f0, f1}));
}

TEST(EspressoMv, ConstantOneOutputsExpandToTheUniverse) {
  // A constant-1 output has an empty OFF cover, so its EXPAND index has no
  // words at all. Here it is the last output, and in the second spec the
  // only one, so there is no EXPAND scratch either.
  TruthTable f0(3), f1(3), ones(3);
  for (Minterm m = 0; m < 8; ++m) {
    if ((m & 0b101) == 0b100) f0.set_on(m);
    if (m & 0b100) f1.set_on(m);
    else f1.set_dc(m);
    ones.set_on(m);
  }
  const CubeList r = minimize_espresso_mv(PlaSpec::from_tables({f0, f1}));
  EXPECT_TRUE(r.implements({f0, f1}));
  ASSERT_EQ(r.output_cover(1).num_cubes(), 1u);
  EXPECT_EQ(r.output_cover(1).cubes()[0], Cube::top());

  const CubeList only = minimize_espresso_mv(PlaSpec::from_tables({ones}));
  ASSERT_EQ(only.num_cubes(), 1u);
  EXPECT_EQ(only.cubes()[0], (MCube{Cube::top(), 0b1}));
}

TEST(EspressoMv, OutputRaisingSharesSubsumedProducts) {
  // f0 = ab, f1 = ab + a'b' : the ab product must be shared (raised onto
  // f1's output part) rather than re-derived.
  TruthTable f0(2), f1(2);
  f0.set_on(0b11);
  f1.set_on(0b11);
  f1.set_on(0b00);
  const CubeList r = minimize_espresso_mv(PlaSpec::from_tables({f0, f1}));
  EXPECT_TRUE(r.implements({f0, f1}));
  EXPECT_EQ(r.num_cubes(), 2u);  // ab (both outputs) + a'b' (f1 only)
  for (const MCube& m : r.cubes())
    if (m.in == Cube::from_string("11")) EXPECT_EQ(m.out, 0b11u);
}

TEST(EspressoMv, RandomMultiOutputTablesImplement) {
  Rng rng(29);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t nv = 2 + rng.below(5);
    const std::size_t no = 1 + rng.below(4);
    std::vector<TruthTable> tables;
    for (std::size_t b = 0; b < no; ++b) {
      TruthTable tt(nv);
      for (Minterm m = 0; m < tt.num_minterms(); ++m) {
        const double u = rng.unit();
        if (u < 0.35) tt.set_on(m);
        else if (u < 0.55) tt.set_dc(m);
      }
      tables.push_back(tt);
    }
    const CubeList r = minimize_espresso_mv(PlaSpec::from_tables(tables));
    EXPECT_TRUE(r.implements(tables)) << "iter " << iter;
  }
}

// --- corpus-wide invariants ---------------------------------------------------

class CorpusLogic : public ::testing::TestWithParam<std::string> {};

/// implements() must hold for every next-state and output function of
/// every corpus machine, through the encoded cover-based spec (this is
/// the invariant the synthesis flow relies on).
TEST_P(CorpusLogic, MinimizedSpecImplementsEveryFunction) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
  const CubeList r = minimize_espresso_mv(enc.spec);
  EXPECT_TRUE(r.implements(tables)) << GetParam();
}

/// Differential vs the exact minimizer on the small corpus functions:
/// per function, exact QM never needs more cubes than the heuristic; per
/// machine, the shared multi-output PLA is no worse than the per-output
/// QM block in both cube count and gate-equivalent cost.
TEST_P(CorpusLogic, MultiOutputNoWorseThanPerOutputQmOnSmallMachines) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  if (enc.num_vars() > 10) GTEST_SKIP() << "QM reference impractical";

  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());

  LogicCost qm_total;
  for (const auto& tt : tables) {
    const Cover exact = minimize_qm(tt);
    const Cover heur = minimize_espresso(tt);
    EXPECT_TRUE(exact.implements(tt));
    EXPECT_TRUE(heur.implements(tt));
    EXPECT_LE(exact.num_cubes(), heur.num_cubes());
    qm_total += cover_cost(exact);
  }

  const LogicCost mv = pla_cost(minimize_espresso_mv(enc.spec));
  EXPECT_LE(mv.cubes, qm_total.cubes) << GetParam();
  EXPECT_LE(mv.gate_equivalents, qm_total.gate_equivalents) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllMachines, CorpusLogic,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(std::remove(name.begin(), name.end(), '_'),
                                      name.end());
                           return name;
                         });

// --- shared-product netlist instantiation -------------------------------------

TEST(BuildPla, MatchesCubeListSemantics) {
  CubeList cl(3, 3);
  cl.add(Cube::from_string("11-"), 0b011);
  cl.add(Cube::from_string("--1"), 0b010);
  // Output 2 has no terms: constant 0.
  Netlist nl;
  std::vector<NetId> vars;
  for (int k = 0; k < 3; ++k) vars.push_back(nl.add_input("v" + std::to_string(k)));
  const auto outs = build_pla(nl, cl, vars);
  ASSERT_EQ(outs.size(), 3u);
  for (NetId o : outs) nl.add_output(o, "o" + std::to_string(o));
  nl.finalize();

  const std::vector<std::uint8_t> st = nl.initial_state();
  std::vector<std::uint8_t> values;
  for (Minterm m = 0; m < 8; ++m) {
    std::vector<std::uint8_t> in;
    for (int k = 0; k < 3; ++k) in.push_back((m >> k) & 1);
    nl.evaluate(in, st, values);
    for (std::size_t b = 0; b < 3; ++b)
      EXPECT_EQ(values[outs[b]] != 0, cl.evaluate(m, b)) << "m=" << m << " b=" << b;
  }
}

TEST(BuildPla, SharedProductBuiltOnce) {
  // Two outputs driven by the same cube: the AND gate must appear once.
  CubeList cl(2, 2);
  cl.add(Cube::from_string("11"), 0b11);
  Netlist nl;
  std::vector<NetId> vars = {nl.add_input("a"), nl.add_input("b")};
  const auto outs = build_pla(nl, cl, vars);
  EXPECT_EQ(outs[0], outs[1]);  // single shared term, no OR needed
  // 2 inputs + 1 AND gate only.
  EXPECT_EQ(nl.num_nets(), 3u);
}

TEST(BuildPla, NoDanglingTermWhenOutputIsConstOne) {
  // A literal-free cube makes output 0 constant 1; the "11" term feeds
  // only that output, so no AND gate may be instantiated for it.
  CubeList cl(2, 2);
  cl.add(Cube::top(), 0b01);
  cl.add(Cube::from_string("11"), 0b01);
  cl.add(Cube::from_string("10"), 0b10);
  Netlist nl;
  std::vector<NetId> vars = {nl.add_input("a"), nl.add_input("b")};
  const auto outs = build_pla(nl, cl, vars);
  for (NetId o : outs) nl.add_output(o, "o" + std::to_string(o));
  nl.finalize();
  // 2 inputs + const1 (output 0) + inverter + AND for "10": no gate for "11".
  EXPECT_EQ(nl.num_nets(), 5u);
  // pla_cost mirrors the instantiation: one AND2 + one inverter, no ORs.
  EXPECT_DOUBLE_EQ(pla_cost(cl).gate_equivalents, 1.0 + 0.5);
  const std::vector<std::uint8_t> st = nl.initial_state();
  std::vector<std::uint8_t> values;
  for (Minterm m = 0; m < 4; ++m) {
    const std::vector<std::uint8_t> in = {(m & 1) != 0, (m & 2) != 0};
    nl.evaluate(in, st, values);
    EXPECT_TRUE(values[outs[0]]);
    EXPECT_EQ(values[outs[1]] != 0, cl.evaluate(m, 1));
  }
}

TEST(BuildPla, TautologyCubeAndEmptyOutput) {
  CubeList cl(2, 2);
  cl.add(Cube::top(), 0b01);  // output 0 constant 1; output 1 constant 0
  Netlist nl;
  std::vector<NetId> vars = {nl.add_input("a"), nl.add_input("b")};
  const auto outs = build_pla(nl, cl, vars);
  for (NetId o : outs) nl.add_output(o, "o" + std::to_string(o));
  nl.finalize();
  const std::vector<std::uint8_t> st = nl.initial_state();
  std::vector<std::uint8_t> values;
  nl.evaluate({false, true}, st, values);
  EXPECT_TRUE(values[outs[0]]);
  EXPECT_FALSE(values[outs[1]]);
}

// --- shared-product cost model ------------------------------------------------

TEST(PlaCost, CountsSharedProductsOnce) {
  CubeList cl(3, 2);
  cl.add(Cube::from_string("11-"), 0b11);  // AND2 shared by both outputs
  cl.add(Cube::from_string("-01"), 0b01);  // AND2 for output 0 only
  const LogicCost c = pla_cost(cl);
  EXPECT_EQ(c.cubes, 2u);
  EXPECT_EQ(c.literals, 4u + 3u);  // 4 input literals + 3 OR-plane connections
  // GE: two AND2 (1 each) + one OR2 for output 0 + one inverter (var 1
  // complemented in the second cube).
  EXPECT_DOUBLE_EQ(c.gate_equivalents, 2.0 + 1.0 + 0.5);
}

}  // namespace
}  // namespace stc
