// Multi-level synthesis layer: algebraic division identities, kernel
// goldens, greedy extraction, and the corpus-wide technology-equivalence
// harness.
//
// The load-bearing property is that a multi_level netlist is simulation-
// equivalent to its two_level twin: algebraic division is an identity on
// cube sets, so the factored network computes the same boolean functions
// and the 64-lane engines must produce word-for-word identical outputs
// and next-state under any stimulus. The CorpusTechEquivalence suites
// below pin that for every bundled KISS machine on the fig-1 and fig-4
// architectures; CI refuses to pass when they are filtered out.

#include <gtest/gtest.h>

#include <set>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "logic/cost.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/factor.hpp"
#include "netlist/eval64.hpp"
#include "ostr/ostr.hpp"
#include "synth/flow.hpp"
#include "util/rng.hpp"
#include "engine_names.hpp"

namespace stc {
namespace {

FCube fc(std::initializer_list<LitId> lits) { return FCube(lits); }

SopExpr sop(std::initializer_list<FCube> cubes) {
  SopExpr s;
  s.cubes.assign(cubes);
  s.normalize();
  return s;
}

/// Boolean form of an input-literal-only SopExpr (no node references).
Cover cover_from_sop(const SopExpr& s, std::size_t num_vars) {
  Cover out(num_vars);
  for (const FCube& c : s.cubes) {
    Cube q;
    for (LitId l : c) {
      const std::uint64_t bit = std::uint64_t{1} << (l / 2);
      q.care |= bit;
      if (!(l & 1)) q.value |= bit;
    }
    out.add(q);
  }
  return out;
}

/// XOR-style mutual containment via the unate-recursive tautology check.
bool equivalent_covers(const Cover& a, const Cover& b) {
  return cover_contains_cover(a, b) && cover_contains_cover(b, a);
}

/// quotient * divisor + remainder, re-expanded as a plain cube set.
SopExpr reexpand(const DivisionResult& d, const SopExpr& divisor) {
  SopExpr out;
  for (const FCube& qc : d.quotient.cubes)
    for (const FCube& dc : divisor.cubes) {
      FCube u;
      std::set_union(qc.begin(), qc.end(), dc.begin(), dc.end(),
                     std::back_inserter(u));
      out.cubes.push_back(std::move(u));
    }
  for (const FCube& rc : d.remainder.cubes) out.cubes.push_back(rc);
  out.normalize();
  return out;
}

// --- algebraic division ------------------------------------------------------

// Variables a..g as positive literals.
constexpr LitId A = 0, B = 2, C = 4, D = 6, E = 8, F = 10, G = 12;

TEST(AlgebraicDivision, TextbookQuotientAndRemainder) {
  // f = ac + ad + bc + bd + e,  d = a + b  ->  q = c + d, r = e.
  const SopExpr f = sop({{A, C}, {A, D}, {B, C}, {B, D}, {E}});
  const SopExpr div = sop({{A}, {B}});
  const DivisionResult res = divide(f, div);
  EXPECT_EQ(res.quotient, sop({{C}, {D}}));
  EXPECT_EQ(res.remainder, sop({{E}}));
  EXPECT_EQ(reexpand(res, div), f);
}

TEST(AlgebraicDivision, NonDivisorYieldsEmptyQuotient) {
  const SopExpr f = sop({{A, C}, {B, D}});
  const SopExpr div = sop({{A}, {B}});  // b*q would need bd's partner ac/b
  const DivisionResult res = divide(f, div);
  EXPECT_TRUE(res.quotient.cubes.empty());
  EXPECT_EQ(res.remainder, f);
}

TEST(AlgebraicDivision, WholeFunctionDivisorGivesUnitQuotient) {
  const SopExpr f = sop({{A, C}, {B, C}});
  const DivisionResult res = divide(f, f);
  EXPECT_EQ(res.quotient, sop({FCube{}}));  // the literal-free cube
  EXPECT_TRUE(res.remainder.cubes.empty());
}

TEST(AlgebraicDivision, QuotientByCube) {
  const SopExpr f = sop({{A, B, C}, {A, B, D}, {A, E}});
  const auto q = quotient_by_cube(f, fc({A, B}));
  EXPECT_EQ(q, std::vector<FCube>({{C}, {D}}));
  EXPECT_EQ(common_cube(q), FCube{});
  EXPECT_EQ(common_cube(f.cubes), fc({A}));
}

/// Randomized property: for random covers and divisors drawn from their
/// own kernel sets, quotient * divisor + remainder re-expands to exactly
/// the original cube set, and to a boolean-equivalent cover (mutual
/// containment via is_tautology).
TEST(AlgebraicDivision, RandomReexpansionIsIdentity) {
  Rng rng(0xD1F1DE);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t num_vars = 4 + rng.below(5);  // 4..8
    SopExpr f;
    const std::size_t cubes = 2 + rng.below(10);
    for (std::size_t i = 0; i < cubes; ++i) {
      FCube c;
      for (std::size_t v = 0; v < num_vars; ++v) {
        if (rng.chance(0.45))
          c.push_back(rng.chance(0.5) ? pos_lit(v) : neg_lit(v));
      }
      f.cubes.push_back(std::move(c));
    }
    f.normalize();

    // Divisors: every kernel of f, plus a random unrelated cover.
    std::vector<SopExpr> divisors;
    for (Kernel& k : enumerate_kernels(f)) divisors.push_back(std::move(k.kernel));
    {
      SopExpr d;
      for (int i = 0; i < 3; ++i) {
        FCube c;
        for (std::size_t v = 0; v < num_vars; ++v)
          if (rng.chance(0.3))
            c.push_back(rng.chance(0.5) ? pos_lit(v) : neg_lit(v));
        d.cubes.push_back(std::move(c));
      }
      d.normalize();
      divisors.push_back(std::move(d));
    }

    const Cover f_cover = cover_from_sop(f, num_vars);
    for (const SopExpr& d : divisors) {
      if (d.cubes.empty()) continue;
      const DivisionResult res = divide(f, d);
      ASSERT_EQ(reexpand(res, d), f) << "iter " << iter;
      ASSERT_TRUE(equivalent_covers(cover_from_sop(reexpand(res, d), num_vars),
                                    f_cover))
          << "iter " << iter;
    }
  }
}

// --- kernels -----------------------------------------------------------------

TEST(Kernels, GoldenKernelSetOfTheClassicExample) {
  // f = adf + aef + bdf + bef + cdf + cef + g  (Brayton's example):
  // the kernel set must contain a+b+c (co-kernels df, ef), d+e
  // (co-kernels af, bf, cf), their product quotient by f, and f itself
  // (f is cube-free thanks to g).
  const SopExpr f = sop({{A, D, F}, {A, E, F}, {B, D, F}, {B, E, F},
                         {C, D, F}, {C, E, F}, {G}});
  std::set<std::vector<FCube>> kernels;
  std::set<std::vector<FCube>> cokernels_of_de;
  for (const Kernel& k : enumerate_kernels(f)) {
    kernels.insert(k.kernel.cubes);
    if (k.kernel == sop({{D}, {E}}))
      cokernels_of_de.insert({k.cokernel});
  }
  EXPECT_TRUE(kernels.count(sop({{A}, {B}, {C}}).cubes));
  EXPECT_TRUE(kernels.count(sop({{D}, {E}}).cubes));
  EXPECT_TRUE(kernels.count(
      sop({{A, D}, {A, E}, {B, D}, {B, E}, {C, D}, {C, E}}).cubes));
  EXPECT_TRUE(kernels.count(f.cubes));  // cube-free: its own kernel
  // d+e is produced by a 2-literal co-kernel like af (deduped to one rep).
  ASSERT_EQ(cokernels_of_de.size(), 1u);
  EXPECT_EQ((*cokernels_of_de.begin())[0].size(), 2u);
}

TEST(Kernels, CubeBoundFunctionHasNoKernelsBeyondQuotients) {
  // f = ab + ac = a(b + c): dividing out the common cube leaves b+c.
  const SopExpr f = sop({{A, B}, {A, C}});
  const auto kernels = enumerate_kernels(f);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].kernel, sop({{B}, {C}}));
  EXPECT_EQ(kernels[0].cokernel, fc({A}));
}

// --- extraction --------------------------------------------------------------

/// Exhaustive per-minterm equivalence of a factored network against the
/// PLA it came from.
void expect_factored_equivalent(const CubeList& pla, const FactoredNetwork& fn) {
  ASSERT_EQ(fn.num_outputs, pla.num_outputs());
  std::vector<bool> node_vals, out_vals;
  for (Minterm m = 0; m < (Minterm{1} << pla.num_vars()); ++m) {
    fn.evaluate_all(m, node_vals, out_vals);
    for (std::size_t b = 0; b < pla.num_outputs(); ++b)
      ASSERT_EQ(out_vals[b], pla.evaluate(m, b)) << "minterm " << m << " out " << b;
  }
}

TEST(Extraction, SharedCubeBecomesOneNode) {
  // Both outputs contain the product abc; extraction must leave a single
  // shared AND node referenced from both.
  CubeList pla(4, 2);
  pla.add(Cube::from_string("-111"), 0b01);  // abc (vars 0,1,2)
  pla.add(Cube::from_string("1111"), 0b10);  // abcd
  pla.add(Cube::from_string("0111"), 0b10);  // abc!d
  const FactoredNetwork fn = extract_factored(pla);
  expect_factored_equivalent(pla, fn);
  EXPECT_GE(fn.num_nodes(), 1u);
  // The expanded form has 3+4+4 = 11 literals; sharing abc caps it at 8.
  EXPECT_LE(fn.num_literals(), 8u);
}

TEST(Extraction, KernelIsSharedAcrossOutputs) {
  // f1 = ab + ac, f2 = db + dc: the kernel b+c is worth one node.
  CubeList pla(4, 2);
  pla.add(Cube::from_string("--11"), 0b01);   // ab
  pla.add(Cube::from_string("-1-1"), 0b01);   // ac
  pla.add(Cube::from_string("1-1-"), 0b10);   // db
  pla.add(Cube::from_string("11--"), 0b10);   // dc
  const FactoredNetwork fn = extract_factored(pla);
  expect_factored_equivalent(pla, fn);
  EXPECT_EQ(fn.num_nodes(), 1u);
  EXPECT_EQ(fn.nodes[0].cubes.size(), 2u);  // the OR node b+c
  EXPECT_EQ(fn.num_literals(), 6u);         // b+c, a*x, d*x
}

TEST(Extraction, ConstantAndEmptyOutputsSurvive) {
  CubeList pla(3, 3);
  pla.add(Cube::top(), 0b001);               // output 0 == 1
  pla.add(Cube::from_string("1--"), 0b100);  // output 2 = var 2
  // output 1 has no cubes: constant 0.
  const FactoredNetwork fn = extract_factored(pla);
  expect_factored_equivalent(pla, fn);
  EXPECT_TRUE(fn.outputs[1].cubes.empty());
  ASSERT_EQ(fn.outputs[0].cubes.size(), 1u);
  EXPECT_TRUE(fn.outputs[0].cubes[0].empty());
}

TEST(Extraction, RandomPlasStayEquivalentAndNeverGainLiterals) {
  Rng rng(0xFAC7);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t num_vars = 4 + rng.below(4);   // 4..7
    const std::size_t num_outs = 1 + rng.below(5);   // 1..5
    CubeList pla(num_vars, num_outs);
    const std::size_t cubes = 3 + rng.below(16);
    for (std::size_t i = 0; i < cubes; ++i) {
      Cube c;
      for (std::size_t v = 0; v < num_vars; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << v;
        if (rng.chance(0.6)) {
          c.care |= bit;
          if (rng.chance(0.5)) c.value |= bit;
        }
      }
      pla.add(c, 1 + rng.below((std::uint64_t{1} << num_outs) - 1));
    }
    pla.merge_identical_inputs();

    // Literal budget of the un-factored per-output expansion.
    std::size_t expanded = 0;
    for (const SopExpr& s : sops_from_cubelist(pla)) expanded += s.num_literals();

    const FactoredNetwork fn = extract_factored(pla);
    expect_factored_equivalent(pla, fn);
    EXPECT_LE(fn.num_literals(), expanded) << "iter " << iter;
  }
}

TEST(Extraction, EspressoOutputOfACorpusMachineFactorsSmaller) {
  const MealyMachine m = load_benchmark("dk14");
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const CubeList pla = minimize_espresso_mv(enc.spec);
  const FactoredNetwork fn = extract_factored(pla);

  std::vector<bool> node_vals, out_vals;
  Rng rng(0x914);
  for (int i = 0; i < 2000; ++i) {
    const Minterm mt = rng.below(Minterm{1} << pla.num_vars());
    fn.evaluate_all(mt, node_vals, out_vals);
    for (std::size_t b = 0; b < pla.num_outputs(); ++b)
      ASSERT_EQ(out_vals[b], pla.evaluate(mt, b));
  }
  // The factored form must beat the flat two-level literal count.
  EXPECT_LT(factored_cost(fn).literals, pla_cost(pla).literals);
  EXPECT_GT(fn.num_nodes(), 0u);
}

// --- cost tagging (micro-fix) ------------------------------------------------

TEST(CostTechnology, FactoredCostIsTaggedMultiLevel) {
  CubeList pla(3, 1);
  pla.add(Cube::from_string("11-"), 1);
  const FactoredNetwork fn = extract_factored(pla);
  EXPECT_EQ(factored_cost(fn).tech, Technology::kMultiLevel);
  EXPECT_EQ(pla_cost(pla).tech, Technology::kTwoLevel);
  EXPECT_STREQ(technology_name(Technology::kTwoLevel), "two_level");
  EXPECT_STREQ(technology_name(Technology::kMultiLevel), "multi_level");
}

TEST(CostTechnology, MixingTechnologiesInOneAccumulationThrows) {
  CubeList pla(3, 1);
  pla.add(Cube::from_string("11-"), 1);
  const LogicCost two = pla_cost(pla);
  const LogicCost ml = factored_cost(extract_factored(pla));

  LogicCost total;       // zero accumulator adopts the first operand's tech
  total += ml;
  EXPECT_EQ(total.tech, Technology::kMultiLevel);
  EXPECT_THROW(total += two, std::logic_error);

  LogicCost total2;
  total2 += two;
  EXPECT_THROW(total2 += ml, std::logic_error);
}

TEST(CostTechnology, MinimizeForRejectsASpecThatDisagreesWithItsTables) {
  // The espresso path minimizes the spec, so a spec describing other
  // functions than the tables is a caller error, never a silent detour.
  std::vector<TruthTable> tables(3, TruthTable(4));
  for (std::size_t b = 0; b < tables.size(); ++b) tables[b].set_on(static_cast<Minterm>(b));
  const PlaSpec spec = PlaSpec::from_tables(tables);
  const MinimizedBlock mb = minimize_for(spec, tables, MinimizerKind::kEspresso);
  EXPECT_TRUE(mb.pla.has_value());
  EXPECT_TRUE(mb.covers.empty());  // one two-level form per block

  EXPECT_THROW(minimize_for(PlaSpec{}, tables, MinimizerKind::kEspresso),
               std::invalid_argument);
  const std::vector<TruthTable> fewer(tables.begin(), tables.begin() + 2);
  EXPECT_THROW(minimize_for(spec, fewer, MinimizerKind::kEspresso), std::invalid_argument);
  const std::vector<TruthTable> wider(3, TruthTable(5));
  EXPECT_THROW(minimize_for(spec, wider, MinimizerKind::kEspresso), std::invalid_argument);
  // The exact QM path reads only the tables.
  EXPECT_EQ(minimize_for(PlaSpec{}, tables, MinimizerKind::kQuineMcCluskey).covers.size(), 3u);
}

TEST(CostTechnology, ZeroOutputBlockTakesTheEspressoPath) {
  // A one-state factor of a pipeline realization has no next-state bits.
  PlaSpec spec;
  spec.num_vars = 12;
  spec.on = CubeList(12, 0);
  spec.dc = CubeList(12, 0);
  const MinimizedBlock mb =
      minimize_for(spec, {}, MinimizerKind::kAuto, Technology::kMultiLevel);
  ASSERT_TRUE(mb.pla.has_value());
  EXPECT_EQ(mb.pla->num_cubes(), 0u);
  ASSERT_TRUE(mb.factored.has_value());
  EXPECT_EQ(mb.tech(), Technology::kMultiLevel);
  EXPECT_EQ(mb.cost().literals, 0u);
  EXPECT_TRUE(mb.degradations.empty());
}

// --- corpus-wide technology equivalence (the differential harness) -----------

ControllerStructure fig1_for(const std::string& name, Technology tech) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())),
                    MinimizerKind::kAuto, tech);
}

ControllerStructure fig4_for(const std::string& name, Technology tech) {
  const MealyMachine m = load_benchmark(name);
  OstrOptions opts;
  opts.max_nodes = 4000;  // budgeted: fig4 shape, not OSTR quality, matters
  const OstrResult res = solve_ostr(m, opts);
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  return build_fig4(m, real, MinimizerKind::kAuto, tech);
}

/// Drive both netlists with identical pseudo-random 64-lane stimulus from
/// their reset states and require word-for-word identical primary outputs
/// and next-state (DFF D) words every cycle. The multi-level netlist is
/// additionally evaluated with the event-driven engine, which must agree
/// with its own flat evaluation on every net -- deep shared cones are
/// exactly what the fanout-cone scheduler did not see before this layer.
void expect_word_for_word_equivalent(const Netlist& two, const Netlist& multi,
                                     std::size_t cycles, std::uint64_t seed) {
  ASSERT_EQ(two.num_inputs(), multi.num_inputs());
  ASSERT_EQ(two.num_outputs(), multi.num_outputs());
  ASSERT_EQ(two.num_dffs(), multi.num_dffs());
  CompiledNetlist ca(two), cb(multi);
  const LaneFaultMasks none(cb);
  EventScratch ev;

  std::vector<std::uint64_t> in(two.num_inputs(), 0);
  std::vector<std::uint64_t> da(two.num_dffs()), db(multi.num_dffs());
  for (std::size_t k = 0; k < two.num_dffs(); ++k) {
    da[k] = two.gate(two.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    db[k] = multi.gate(multi.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    ASSERT_EQ(da[k], db[k]) << "reset state differs at dff " << k;
  }
  std::vector<std::uint64_t> va(two.num_nets()), vb(multi.num_nets());

  Rng rng(seed);
  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    for (auto& w : in) w = rng.next();
    ca.evaluate(in.data(), da.data(), va.data());
    cb.evaluate(in.data(), db.data(), vb.data());
    cb.evaluate_event(none, in.data(), db.data(), ev);
    for (NetId id = 0; id < multi.num_nets(); ++id)
      ASSERT_EQ(ev.values[id], vb[id]) << "event engine, net " << id;
    for (std::size_t o = 0; o < two.num_outputs(); ++o)
      ASSERT_EQ(va[two.outputs()[o]], vb[multi.outputs()[o]])
          << "cycle " << cyc << " output " << o;
    for (std::size_t k = 0; k < two.num_dffs(); ++k) {
      da[k] = va[ca.dff_d(k)];
      db[k] = vb[cb.dff_d(k)];
      ASSERT_EQ(da[k], db[k]) << "cycle " << cyc << " next-state bit " << k;
    }
  }
}

class CorpusTechEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusTechEquivalence, Fig1MultiLevelMatchesTwoLevelWordForWord) {
  const ControllerStructure two = fig1_for(GetParam(), Technology::kTwoLevel);
  const ControllerStructure multi = fig1_for(GetParam(), Technology::kMultiLevel);
  EXPECT_EQ(multi.tech, Technology::kMultiLevel);
  ASSERT_TRUE(multi.logic_ml.has_value());
  EXPECT_EQ(multi.logic_ml->tech, Technology::kMultiLevel);
  expect_word_for_word_equivalent(two.nl, multi.nl, 48, 0xFAC1);
}

TEST_P(CorpusTechEquivalence, Fig4MultiLevelMatchesTwoLevelWordForWord) {
  const ControllerStructure two = fig4_for(GetParam(), Technology::kTwoLevel);
  const ControllerStructure multi = fig4_for(GetParam(), Technology::kMultiLevel);
  expect_word_for_word_equivalent(two.nl, multi.nl, 48, 0xFAC4);
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, CorpusTechEquivalence,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- fault-campaign parity on factored netlists ------------------------------

std::set<std::pair<NetId, bool>> fault_set(const std::vector<Fault>& faults) {
  std::set<std::pair<NetId, bool>> s;
  for (const Fault& f : faults) s.insert({f.net, f.stuck_value});
  return s;
}

/// Multi-level cones interact with fanout-cone scheduling, glitch
/// suppression and fault masks on intermediate nets; both lane engines
/// must still match the serial oracle fault for fault.
void expect_campaign_parity(const ControllerStructure& cs, std::size_t cycles) {
  const SelfTestPlan plan = SelfTestPlan::two_session(cycles);
  const auto all = enumerate_stuck_faults(cs.nl);
  std::vector<Fault> list;
  const std::size_t cap = 120;  // serial oracle: one self-test per fault
  const std::size_t stride = all.size() <= cap ? 1 : (all.size() + cap - 1) / cap;
  for (std::size_t i = 0; i < all.size(); i += stride) list.push_back(all[i]);

  const CoverageResult serial = measure_coverage(cs, plan, list);
  const auto serial_undet = fault_set(serial.undetected);
  for (const CampaignEngine engine :
       {CampaignEngine::kEvent, CampaignEngine::kFlat}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      CampaignOptions opt;
      opt.engine = engine;
      opt.num_threads = threads;
      opt.lane_words = 1;  // 63-fault batches: tbk's sample takes two per session
      const CampaignResult par = run_fault_campaign(cs, plan, opt, list);
      EXPECT_EQ(par.raw.total, serial.total);
      EXPECT_EQ(par.raw.detected, serial.detected)
          << engine_name(engine) << " threads=" << threads;
      EXPECT_EQ(fault_set(par.raw.undetected), serial_undet)
          << engine_name(engine) << " threads=" << threads;
    }
  }
}

TEST(FactoredCampaign, Dk27PipelineParityAcrossEnginesAndThreads) {
  expect_campaign_parity(fig4_for("dk27", Technology::kMultiLevel), 48);
}

TEST(FactoredCampaign, TbkPipelineParityAcrossEnginesAndThreads) {
  expect_campaign_parity(fig4_for("tbk", Technology::kMultiLevel), 32);
}

}  // namespace
}  // namespace stc
