// Integration tests: the controller structures of Figs. 1-4 must behave
// exactly like the specification FSM in system mode, and the self-test
// machinery must reproduce the paper's testability claims.

#include <gtest/gtest.h>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "fsm/generate.hpp"
#include "netlist/export.hpp"
#include "ostr/ostr.hpp"
#include "structure_golden.hpp"
#include "synth/flow.hpp"

namespace stc {
namespace {

/// Drive a structure's netlist functionally (test_mode = 0) with symbolic
/// inputs and compare outputs bit-for-bit against the machine.
void expect_netlist_matches_fsm(const ControllerStructure& cs, const MealyMachine& m,
                                std::uint64_t seed, std::size_t cycles) {
  Rng rng(seed);
  auto st = cs.nl.initial_state();
  State s = m.reset_state();
  const std::size_t obits = m.effective_output_bits();

  for (std::size_t k = 0; k < cycles; ++k) {
    const Input sym = static_cast<Input>(rng.below(m.num_inputs()));
    std::vector<bool> in(cs.nl.num_inputs(), false);
    for (std::size_t b = 0; b < cs.pi.size(); ++b) {
      for (std::size_t slot = 0; slot < cs.nl.inputs().size(); ++slot)
        if (cs.nl.inputs()[slot] == cs.pi[b]) in[slot] = (sym >> b) & 1;
    }
    // test_mode (fig2) stays 0.
    const auto out = cs.nl.step(in, st);

    const Output expect = m.output(s, sym);
    for (std::size_t b = 0; b < obits && b < out.size(); ++b)
      ASSERT_EQ(out[b], ((expect >> b) & 1) != 0)
          << "cycle " << k << " output bit " << b;
    s = m.next(s, sym);
  }
}

class StructureBehavior : public ::testing::TestWithParam<const char*> {
 protected:
  MealyMachine machine() const {
    const std::string name = GetParam();
    if (name == "paper_fig5") return paper_example_fsm();
    if (name == "shiftreg") return shift_register_fsm(3);
    if (name == "serial_adder") return serial_adder_fsm();
    if (name == "count6") return counter_fsm(6);
    if (name == "rand") return random_mealy(17, 5, 4, 4);
    return paper_example_fsm();
  }
};

TEST_P(StructureBehavior, Fig1MatchesFsm) {
  const MealyMachine m = machine();
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  expect_netlist_matches_fsm(build_fig1(enc), m, 1, 200);
}

TEST_P(StructureBehavior, Fig2MatchesFsmInSystemMode) {
  const MealyMachine m = machine();
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  expect_netlist_matches_fsm(build_fig2(enc), m, 2, 200);
}

TEST_P(StructureBehavior, Fig3MatchesFsm) {
  const MealyMachine m = machine();
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  expect_netlist_matches_fsm(build_fig3(enc), m, 3, 200);
}

TEST_P(StructureBehavior, Fig4MatchesFsm) {
  const MealyMachine m = machine();
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  expect_netlist_matches_fsm(build_fig4(m, real), m, 4, 200);
}

TEST_P(StructureBehavior, Fig4TrivialRealizationAlsoMatches) {
  // The doubling realization (identity pair) through the fig4 builder.
  const MealyMachine m = machine();
  const Partition id = Partition::identity(m.num_states());
  const Realization real = build_realization(m, id, id);
  expect_netlist_matches_fsm(build_fig4(m, real), m, 5, 150);
}

INSTANTIATE_TEST_SUITE_P(Machines, StructureBehavior,
                         ::testing::Values("paper_fig5", "shiftreg", "serial_adder",
                                           "count6", "rand"));

// --- structural properties -----------------------------------------------------

TEST(Structures, FlipflopCounts) {
  const MealyMachine m = paper_example_fsm();  // 4 states -> 2 state bits
  const EncodedFsm enc = encode_fsm(m, natural_encoding(4));
  EXPECT_EQ(build_fig1(enc).nl.num_dffs(), 2u);
  EXPECT_EQ(build_fig2(enc).nl.num_dffs(), 4u);  // R + T
  EXPECT_EQ(build_fig3(enc).nl.num_dffs(), 4u);  // R + R'
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  EXPECT_EQ(build_fig4(m, real).nl.num_dffs(), 2u);  // 1 + 1
}

TEST(Structures, Fig2MuxAddsDelay) {
  const MealyMachine m = paper_example_fsm();
  const EncodedFsm enc = encode_fsm(m, natural_encoding(4));
  EXPECT_GT(build_fig2(enc).nl.depth(), build_fig1(enc).nl.depth());
}

TEST(Structures, Fig4HasNoDirectFeedback) {
  // Pipeline property: no combinational path from any R1 Q pin back into
  // R1's own D pin (and same for R2). Verify via fanin reachability.
  const MealyMachine m = shift_register_fsm(3);
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure cs = build_fig4(m, real);
  const Netlist& nl = cs.nl;

  auto reaches = [&](NetId from, NetId to) {
    // DFS backwards from `to` through combinational fanins.
    std::vector<NetId> stack{to};
    std::vector<bool> seen(nl.num_nets(), false);
    while (!stack.empty()) {
      const NetId cur = stack.back();
      stack.pop_back();
      if (cur == from) return true;
      if (seen[cur]) continue;
      seen[cur] = true;
      if (nl.gate(cur).type == GateType::kDff) continue;  // registered boundary
      for (NetId f : nl.gate(cur).fanins) stack.push_back(f);
    }
    return false;
  };

  for (std::size_t bank = 0; bank < 2; ++bank) {
    const auto& reg = bank == 0 ? cs.reg_a : cs.reg_b;
    for (std::size_t i : reg) {
      const NetId q = nl.dffs()[i];
      for (std::size_t j : reg) {
        const NetId d = nl.gate(nl.dffs()[j]).fanins[0];
        EXPECT_FALSE(reaches(q, d))
            << "combinational feedback within bank " << bank;
      }
    }
  }
}

// --- self-test behavior -----------------------------------------------------------

TEST(SelfTest, GoldenSignatureIsDeterministic) {
  const MealyMachine m = paper_example_fsm();
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure cs = build_fig4(m, real);
  const auto a = run_self_test(cs, SelfTestPlan::two_session(64));
  const auto b = run_self_test(cs, SelfTestPlan::two_session(64));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.register_sigs.size(), 2u);  // one compacting bank per session
}

TEST(SelfTest, InjectedFaultChangesSignature) {
  const MealyMachine m = paper_example_fsm();
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure cs = build_fig4(m, real);
  const auto golden = run_self_test(cs, SelfTestPlan::two_session(128));
  // Stuck-at on the first primary input must be caught.
  const Fault f{cs.pi[0], true};
  EXPECT_NE(run_self_test(cs, SelfTestPlan::two_session(128), f), golden);
}

TEST(SelfTest, PipelineFullCoverageOnPaperExample) {
  const MealyMachine m = paper_example_fsm();
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure cs = build_fig4(m, real);
  const auto cov = measure_coverage(cs, SelfTestPlan::two_session(256));
  EXPECT_DOUBLE_EQ(cov.coverage(), 1.0)
      << "undetected: " << cov.undetected.size();
}

TEST(SelfTest, ConventionalBistMissesFeedbackFaults) {
  // The paper's drawback (3): with T generating and the feedback path
  // bypassed, stuck-ats on the R -> C lines stay undetected.
  const MealyMachine m = paper_example_fsm();
  const EncodedFsm enc = encode_fsm(m, natural_encoding(4));
  const ControllerStructure cs = build_fig2(enc);
  const auto cov =
      measure_coverage(cs, SelfTestPlan::conventional(512),
                       faults_on_nets(cs.feedback_nets));
  EXPECT_EQ(cov.detected, 0u);
  EXPECT_EQ(cov.total, 2 * cs.feedback_nets.size());
}

TEST(SelfTest, PipelineCoversWhatConventionalMisses) {
  const MealyMachine m = paper_example_fsm();
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure fig4 = build_fig4(m, real);
  // All register Q nets in fig4 (the analogue of the feedback lines) are
  // exercised and observed across the two sessions.
  std::vector<NetId> reg_nets;
  for (std::size_t i : fig4.reg_a) reg_nets.push_back(fig4.nl.dffs()[i]);
  for (std::size_t i : fig4.reg_b) reg_nets.push_back(fig4.nl.dffs()[i]);
  const auto cov = measure_coverage(fig4, SelfTestPlan::two_session(256),
                                    faults_on_nets(reg_nets));
  EXPECT_DOUBLE_EQ(cov.coverage(), 1.0);
}

TEST(SelfTest, MoreCyclesNeverReduceCoverageMuch) {
  const MealyMachine m = serial_adder_fsm();
  const EncodedFsm enc = encode_fsm(m, natural_encoding(2));
  const ControllerStructure cs = build_fig3(enc);
  const auto short_cov = measure_coverage(cs, SelfTestPlan::two_session(16));
  const auto long_cov = measure_coverage(cs, SelfTestPlan::two_session(512));
  EXPECT_GE(long_cov.coverage() + 0.05, short_cov.coverage());
}

TEST(SelfTest, UnfinalizedNetlistRejected) {
  ControllerStructure cs;
  cs.nl.add_input("x");
  EXPECT_THROW(run_self_test(cs, SelfTestPlan::two_session(4)), std::logic_error);
}

// --- flow ------------------------------------------------------------------------

TEST(Flow, RunFlowEndToEnd) {
  const MealyMachine m = shift_register_fsm(3);
  FlowOptions opts;
  opts.with_fault_sim = true;
  opts.bist_cycles = 64;
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok());
  EXPECT_EQ(res.fig4.flipflops, res.ostr.best.flipflops);
  EXPECT_EQ(res.fig1.flipflops, ceil_log2(m.num_states()));
  EXPECT_EQ(res.fig2.flipflops, 2 * ceil_log2(m.num_states()));
  ASSERT_TRUE(res.fig2.feedback_coverage.has_value());
  EXPECT_DOUBLE_EQ(*res.fig2.feedback_coverage, 0.0);
  EXPECT_TRUE(res.fig4.coverage.has_value());
}

TEST(Flow, FlowWithoutFaultSimSkipsCoverage) {
  const FlowResult res = run_flow(paper_example_fsm());
  EXPECT_FALSE(res.fig1.coverage.has_value());
  EXPECT_TRUE(res.verification.ok());
}

// --- one shared block for figs. 1-3 -------------------------------------------

void expect_same_cost(const LogicCost& a, const LogicCost& b) {
  EXPECT_EQ(a.tech, b.tech);
  EXPECT_EQ(a.cubes, b.cubes);
  EXPECT_EQ(a.literals, b.literals);
  EXPECT_EQ(a.gate_equivalents, b.gate_equivalents);
}

/// Field-for-field equality of two structure reports (no fault simulation).
void expect_same_report(const StructureReport& a, const StructureReport& b) {
  SCOPED_TRACE(a.kind);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.technology, b.technology);
  EXPECT_EQ(a.flipflops, b.flipflops);
  EXPECT_EQ(a.area_ge, b.area_ge);  // exact: same netlist
  EXPECT_EQ(a.depth, b.depth);
  expect_same_cost(a.logic, b.logic);
  ASSERT_EQ(a.logic_ml.has_value(), b.logic_ml.has_value());
  if (a.logic_ml) expect_same_cost(*a.logic_ml, *b.logic_ml);
  EXPECT_EQ(a.factored_nodes, b.factored_nodes);
  ASSERT_EQ(a.degradations.size(), b.degradations.size());
  for (std::size_t k = 0; k < a.degradations.size(); ++k) {
    EXPECT_EQ(a.degradations[k].stage, b.degradations[k].stage);
    EXPECT_EQ(a.degradations[k].degraded, b.degradations[k].degraded);
    EXPECT_EQ(a.degradations[k].reason, b.degradations[k].reason);
  }
}

FlowOptions structure_only(Technology tech) {
  FlowOptions opts;
  opts.technology = tech;
  opts.ostr.max_nodes = 4000;  // figs. 1-3 do not depend on the OSTR result
  return opts;
}

class SharedBlock
    : public ::testing::TestWithParam<std::tuple<std::string, Technology>> {};

TEST_P(SharedBlock, FlowFiguresEqualStandaloneBuilds) {
  const auto& [name, tech] = GetParam();
  const MealyMachine m = load_benchmark(name);
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const FlowOptions opts = structure_only(tech);
  const FlowResult res = run_flow(m, opts);

  const ControllerStructure alone[] = {build_fig1(enc, MinimizerKind::kAuto, tech),
                                       build_fig2(enc, MinimizerKind::kAuto, tech),
                                       build_fig3(enc, MinimizerKind::kAuto, tech)};
  const StructureReport* flow[] = {&res.fig1, &res.fig2, &res.fig3};
  for (std::size_t k = 0; k < 3; ++k)
    expect_same_report(*flow[k], measure_structure(alone[k], opts));
  if (name == "s1" && tech == Technology::kMultiLevel) {
    // The structure goldens leave this flow to the run above.
    const StructureReport* figs[] = {&res.fig1, &res.fig2, &res.fig3, &res.fig4};
    for (std::size_t k = 0; k < 4; ++k)
      expect_matches(*figs[k], kS1MultiLevelGolden[k], tech);
  }

  // The exported netlists of one shared block equal the standalone ones.
  const MinimizedBlock block = minimize_combined(enc, MinimizerKind::kAuto, tech);
  const ControllerStructure shared[] = {build_fig1(enc, block), build_fig2(enc, block),
                                        build_fig3(enc, block)};
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(shared[k].kind, alone[k].kind);
    EXPECT_EQ(write_verilog(shared[k].nl, "c"), write_verilog(alone[k].nl, "c"))
        << alone[k].kind;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKissMachines, SharedBlock,
    ::testing::Combine(::testing::ValuesIn(benchmark_names()),
                       ::testing::Values(Technology::kTwoLevel, Technology::kMultiLevel)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + technology_name(std::get<1>(info.param));
    });

TEST(SharedBlock, TruncatedBlockLabelsEveryFigure) {
  // A deadline that has already passed: factoring the shared block is cut
  // at once, and each of figs. 1-3 carries that label first.
  const MealyMachine m = load_benchmark("bbara");
  FlowOptions opts = structure_only(Technology::kMultiLevel);
  opts.budget = Budget::deadline_ms(0);
  const FlowResult res = run_flow(m, opts);
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const MinimizedBlock block =
      minimize_combined(enc, MinimizerKind::kAuto, Technology::kMultiLevel, opts.budget);
  ASSERT_FALSE(block.degradations.empty());
  EXPECT_EQ(block.degradations.front().stage, "factor");
  for (const StructureReport* s : {&res.fig1, &res.fig2, &res.fig3}) {
    SCOPED_TRACE(s->kind);
    ASSERT_GE(s->degradations.size(), block.degradations.size());
    for (std::size_t k = 0; k < block.degradations.size(); ++k) {
      EXPECT_EQ(s->degradations[k].stage, block.degradations[k].stage);
      EXPECT_TRUE(s->degradations[k].degraded);
      EXPECT_EQ(s->degradations[k].reason, "deadline");
    }
  }
  // The standalone builders report the same labels.
  const ControllerStructure alone[] = {
      build_fig1(enc, MinimizerKind::kAuto, Technology::kMultiLevel, opts.budget),
      build_fig2(enc, MinimizerKind::kAuto, Technology::kMultiLevel, opts.budget),
      build_fig3(enc, MinimizerKind::kAuto, Technology::kMultiLevel, opts.budget)};
  const StructureReport* flow[] = {&res.fig1, &res.fig2, &res.fig3};
  for (std::size_t k = 0; k < 3; ++k)
    expect_same_report(*flow[k], measure_structure(alone[k], opts));
}

}  // namespace
}  // namespace stc
