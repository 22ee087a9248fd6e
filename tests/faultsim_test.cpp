// Tests for the bit-parallel fault-simulation engine: the compiled 64-lane
// evaluator, structural fault collapsing, and the parallel campaign driver.
// The load-bearing property is signature-exact agreement with the serial
// oracle (measure_coverage) on the detected-fault *set*, not just the count.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "fleet/defects.hpp"
#include "netlist/builder.hpp"
#include "netlist/eval64.hpp"
#include "ostr/ostr.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "engine_names.hpp"
#include "scalar_step.hpp"
#include "session_model.hpp"

namespace stc {
namespace {

ControllerStructure fig1_for(const std::string& name,
                             MinimizerKind mk = MinimizerKind::kAuto) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())), mk);
}

ControllerStructure fig4_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  return build_fig4(m, real);
}

std::set<std::pair<NetId, bool>> fault_set(const std::vector<Fault>& faults) {
  std::set<std::pair<NetId, bool>> s;
  for (const Fault& f : faults) s.insert({f.net, f.stuck_value});
  return s;
}

// --- compiled evaluator ------------------------------------------------------

TEST(CompiledNetlist, MatchesScalarEvaluateWithLaneFaults) {
  const ControllerStructure cs = fig1_for("dk27");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl);
  LaneFaultMasks masks(cn);

  const auto faults = enumerate_stuck_faults(nl);
  Rng rng(42);

  // A batch of random faults on random lanes.
  std::vector<LaneFault> batch;
  for (unsigned lane = 1; lane <= 63 && lane <= faults.size(); ++lane) {
    const Fault& f = faults[rng.below(faults.size())];
    batch.push_back({f.net, f.stuck_value, lane});
  }
  masks.set(batch);

  std::vector<std::uint64_t> in_lanes(nl.num_inputs());
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs());
  std::vector<std::uint64_t> lane_values(nl.num_nets());
  std::vector<std::uint8_t> in(nl.num_inputs());
  std::vector<std::uint8_t> scalar_values;

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> state = nl.initial_state();
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) in[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k) state[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_inputs(); ++k)
      in_lanes[k] = in[k] ? ~std::uint64_t{0} : 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k)
      dff_lanes[k] = state[k] ? ~std::uint64_t{0} : 0;

    cn.evaluate(masks, in_lanes.data(), dff_lanes.data(), lane_values.data());

    // Lane 0: fault-free reference.
    nl.evaluate(in, state, scalar_values);
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ((lane_values[id] >> 0) & 1, scalar_values[id] ? 1u : 0u)
          << "net " << id << " lane 0";

    // Every faulty lane matches the scalar evaluator with that fault forced.
    for (const LaneFault& lf : batch) {
      nl.evaluate(in, state, scalar_values, lf.net, lf.stuck_value);
      for (NetId id = 0; id < nl.num_nets(); ++id)
        ASSERT_EQ((lane_values[id] >> lf.lane) & 1, scalar_values[id] ? 1u : 0u)
            << "net " << id << " lane " << lf.lane;
    }
  }
}

TEST(CompiledNetlist, WideLanesMatchScalarEvaluateOnHighLanes) {
  // W = 8 (512 lanes): faults pinned to lanes across the whole word group,
  // including the top word, must each reproduce the scalar evaluator's
  // faulty values while lane 0 stays fault-free.
  const ControllerStructure cs = fig1_for("dk27");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl, 8);
  LaneFaultMasks masks(cn);
  ASSERT_EQ(cn.num_lanes(), 512u);

  const auto faults = enumerate_stuck_faults(nl);
  Rng rng(99);
  std::vector<LaneFault> batch;
  for (const unsigned lane : {1u, 63u, 64u, 127u, 200u, 321u, 448u, 511u}) {
    const Fault& f = faults[rng.below(faults.size())];
    batch.push_back({f.net, f.stuck_value, lane});
  }
  masks.set(batch);

  const unsigned W = cn.lane_words();
  std::vector<std::uint64_t> in_lanes(nl.num_inputs() * W);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs() * W);
  std::vector<std::uint64_t> lane_values(nl.num_nets() * W);
  std::vector<std::uint8_t> in(nl.num_inputs());
  std::vector<std::uint8_t> scalar_values;

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> state = nl.initial_state();
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) in[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k) state[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_inputs(); ++k)
      for (unsigned w = 0; w < W; ++w)
        in_lanes[k * W + w] = in[k] ? ~std::uint64_t{0} : 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k)
      for (unsigned w = 0; w < W; ++w)
        dff_lanes[k * W + w] = state[k] ? ~std::uint64_t{0} : 0;

    cn.evaluate(masks, in_lanes.data(), dff_lanes.data(), lane_values.data());

    nl.evaluate(in, state, scalar_values);
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ(lane_values[id * W] & 1, scalar_values[id] ? 1u : 0u)
          << "net " << id << " lane 0";

    for (const LaneFault& lf : batch) {
      nl.evaluate(in, state, scalar_values, lf.net, lf.stuck_value);
      for (NetId id = 0; id < nl.num_nets(); ++id)
        ASSERT_EQ((lane_values[id * W + (lf.lane >> 6)] >> (lf.lane & 63)) & 1,
                  scalar_values[id] ? 1u : 0u)
            << "net " << id << " lane " << lf.lane;
    }
  }
}

TEST(CompiledNetlist, RejectsUnsupportedLaneWords) {
  const ControllerStructure cs = fig1_for("shiftreg");
  for (const unsigned bad : {0u, 2u, 3u, 5u, 16u})
    EXPECT_THROW(CompiledNetlist cn(cs.nl, bad), std::invalid_argument)
        << "lane_words=" << bad;
}

TEST(CompiledNetlist, ClearFaultsRestoresFaultFree) {
  const ControllerStructure cs = fig1_for("shiftreg");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl);
  LaneFaultMasks masks(cn);
  masks.set({{nl.outputs()[0], true, 5}});
  masks.clear();

  std::vector<std::uint64_t> in_lanes(nl.num_inputs(), 0);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs(), 0);
  std::vector<std::uint64_t> values(nl.num_nets());
  cn.evaluate(masks, in_lanes.data(), dff_lanes.data(), values.data());
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const std::uint64_t w = values[id];
    EXPECT_TRUE(w == 0 || w == ~std::uint64_t{0}) << "net " << id;
  }
}

TEST(CompiledNetlist, RequiresFinalize) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(CompiledNetlist cn(nl), std::logic_error);
}

// --- scalar step scratch ------------------------------------------------------

TEST(NetlistStep, ReusedScratchMatchesFreshScratch) {
  // step() writes every net's byte each cycle, so a values buffer reused
  // across cycles (and faults) holds nothing stale.
  const ControllerStructure cs = fig1_for("dk27");
  const Netlist& nl = cs.nl;
  const auto faults = enumerate_stuck_faults(nl);
  Rng rng(7);
  std::vector<std::uint8_t> s1 = nl.initial_state(), s2 = nl.initial_state();
  std::vector<std::uint8_t> in(nl.num_inputs());
  std::vector<std::uint8_t> values;
  for (int k = 0; k < 100; ++k) {
    for (std::size_t b = 0; b < in.size(); ++b) in[b] = rng.below(2) != 0;
    const Fault& f = faults[rng.below(faults.size())];
    const auto expect = step_outputs(nl, in, s1, f.net, f.stuck_value);
    nl.step(in, s2, values, f.net, f.stuck_value);
    std::vector<std::uint8_t> out;
    for (const NetId o : nl.outputs()) out.push_back(values[o]);
    ASSERT_EQ(out, expect) << "cycle " << k;
    ASSERT_EQ(s1, s2) << "cycle " << k;
  }
}

// --- fault collapsing --------------------------------------------------------

TEST(CollapseFaults, BufferChainCollapsesNotGateFlipsPolarity) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b1 = nl.add_gate(GateType::kBuf, {a});
  const NetId b2 = nl.add_gate(GateType::kBuf, {b1});
  const NetId inv = nl.add_not(b2);
  nl.add_output(inv, "o");
  nl.finalize();

  const auto faults = enumerate_stuck_faults(nl);  // 4 nets x 2
  const auto cf = collapse_faults(nl, faults);
  // a/sa0 == b1/sa0 == b2/sa0 == inv/sa1, and the mirrored polarity class.
  EXPECT_EQ(cf.num_classes(), 2u);
  ASSERT_EQ(cf.class_of.size(), faults.size());
  // a/sa0 (index 0) and inv/sa1 (index 7) share a class.
  EXPECT_EQ(cf.class_of[0], cf.class_of[7]);
  // a/sa1 (index 1) and inv/sa0 (index 6) share the other.
  EXPECT_EQ(cf.class_of[1], cf.class_of[6]);
  EXPECT_NE(cf.class_of[0], cf.class_of[1]);
}

TEST(CollapseFaults, AndOrControllingValuesCollapse) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g_and = nl.add_and({a, b});
  const NetId c = nl.add_input("c");
  const NetId g_or = nl.add_or({g_and, c});
  nl.add_output(g_or, "o");
  nl.finalize();

  const auto faults = enumerate_stuck_faults(nl);
  const auto cf = collapse_faults(nl, faults);
  const auto cls = [&](NetId net, bool sv) {
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (faults[i].net == net && faults[i].stuck_value == sv) return cf.class_of[i];
    return SIZE_MAX;
  };
  // a/sa0 == b/sa0 == and/sa0 == or/sa0? No: AND feeds OR, sa0 does not
  // propagate through OR inputs. a/sa0 == b/sa0 == and/sa0 only.
  EXPECT_EQ(cls(a, false), cls(b, false));
  EXPECT_EQ(cls(a, false), cls(g_and, false));
  EXPECT_NE(cls(g_and, false), cls(g_or, false));
  // and/sa1 == or/sa1 == c/sa1 (controlling value of OR).
  EXPECT_EQ(cls(g_and, true), cls(g_or, true));
  EXPECT_EQ(cls(c, true), cls(g_or, true));
  // Non-controlling polarities stay separate.
  EXPECT_NE(cls(a, true), cls(g_and, true));
}

TEST(CollapseFaults, FanoutAndObservedNetsBlockCollapsing) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b1 = nl.add_gate(GateType::kBuf, {a});  // a also observed below
  nl.add_output(a, "tap");  // a is a primary output: cannot fold into b1
  const NetId c = nl.add_input("c");
  const NetId b2 = nl.add_gate(GateType::kBuf, {c});
  const NetId b3 = nl.add_gate(GateType::kBuf, {c});  // c has two readers
  nl.add_output(b1, "o1");
  nl.add_output(b2, "o2");
  nl.add_output(b3, "o3");
  nl.finalize();

  const auto faults = enumerate_stuck_faults(nl);
  const auto cf = collapse_faults(nl, faults);
  EXPECT_EQ(cf.num_classes(), faults.size());  // nothing may collapse
}

TEST(CollapseFaults, ClassMembersHaveIdenticalSerialDetection) {
  const ControllerStructure cs = fig1_for("dk27");
  const auto faults = enumerate_stuck_faults(cs.nl);
  const auto cf = collapse_faults(cs.nl, faults);
  ASSERT_LT(cf.num_classes(), faults.size()) << "expected some collapsing";

  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  const Signatures golden = run_self_test(cs, plan);
  std::vector<int> class_verdict(cf.num_classes(), -1);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool det = run_self_test(cs, plan, faults[i]) != golden;
    int& v = class_verdict[cf.class_of[i]];
    if (v == -1) {
      v = det ? 1 : 0;
    } else {
      ASSERT_EQ(v, det ? 1 : 0) << "fault " << faults[i].describe(cs.nl)
                                << " disagrees with its class representative";
    }
  }
}

// --- campaign equivalence ----------------------------------------------------

class CampaignEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(CampaignEquivalence, BothLaneEnginesMatchSerialOracleAtAllThreadCounts) {
  const ControllerStructure cs = fig1_for(GetParam());

  // The serial oracle costs one full self-test per fault, so cap the
  // compared list with a deterministic stride on the big machines; small
  // machines compare their complete fault list.
  const auto all = enumerate_stuck_faults(cs.nl);
  std::vector<Fault> list;
  const std::size_t cap = 160;
  const std::size_t stride = all.size() <= cap ? 1 : (all.size() + cap - 1) / cap;
  for (std::size_t i = 0; i < all.size(); i += stride) list.push_back(all[i]);
  const CollapsedFaults cf = collapse_faults(cs.nl, list);

  // thorough and autonomous run 2-4 sessions, so lanes retire mid-plan.
  for (const SelfTestPlan& plan :
       {SelfTestPlan::two_session(48), SelfTestPlan::thorough(48),
        SelfTestPlan::autonomous(48)}) {
    const OracleRun oracle = run_oracle(cs, plan, list);
    const CoverageResult serial = oracle.coverage();
    const auto serial_undet = fault_set(serial.undetected);
    const std::size_t sessions = plan.sessions.size();
    const SessionWork work = survivors_per_session(cs, plan, oracle.representatives(cf));

    for (const unsigned lane_words : kSupportedLaneWords) {
      const std::size_t runs = work.runs(faults_per_run(lane_words));
      for (const CampaignEngine engine :
           {CampaignEngine::kEvent, CampaignEngine::kFlat}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          for (const bool collapse : {true, false}) {
            CampaignOptions opt;
            opt.engine = engine;
            opt.num_threads = threads;
            opt.collapse = collapse;
            opt.lane_words = lane_words;
            const CampaignResult par = run_fault_campaign(cs, plan, opt, list);
            EXPECT_EQ(par.raw.total, serial.total);
            EXPECT_EQ(par.raw.detected, serial.detected)
                << "engine=" << engine_name(engine)
                << " threads=" << threads << " collapse=" << collapse
                << " lane_words=" << lane_words << " sessions=" << sessions;
            EXPECT_EQ(fault_set(par.raw.undetected), serial_undet)
                << "engine=" << engine_name(engine)
                << " threads=" << threads << " collapse=" << collapse
                << " lane_words=" << lane_words << " sessions=" << sessions;
            if (collapse) {
              EXPECT_LE(par.collapsed_total, par.raw.total);
              // One run per (session, batch) of that session's runners.
              EXPECT_EQ(par.session_runs, runs)
                  << "lane_words=" << lane_words << " sessions=" << sessions;
              EXPECT_EQ(par.fault_sessions_skipped, work.skipped())
                  << "lane_words=" << lane_words << " sessions=" << sessions;
            }
            // Activity accounting: the flat engine evaluates everything; the
            // event engine never does more work than flat.
            EXPECT_GT(par.cycles_simulated, 0u);
            if (engine == CampaignEngine::kFlat) {
              EXPECT_DOUBLE_EQ(par.mean_activity(), 1.0);
            } else {
              EXPECT_LE(par.mean_activity(), 1.0);
              EXPECT_GT(par.mean_activity(), 0.0);
            }
          }
        }
      }
    }
  }
}

TEST(Campaign, WiderLanesTakeFewerSessionRuns) {
  const ControllerStructure cs = fig1_for("bbara");
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  const SessionWork work =
      survivors_per_session(cs, plan, run_oracle(cs, plan, enumerate_stuck_faults(cs.nl)));
  std::size_t prev_runs = SIZE_MAX;
  for (const unsigned lane_words : kSupportedLaneWords) {
    CampaignOptions opt;
    opt.lane_words = lane_words;
    opt.collapse = false;
    const CampaignResult r = run_fault_campaign(cs, plan, opt);
    EXPECT_EQ(r.session_runs, work.runs(faults_per_run(lane_words)));
    EXPECT_LE(r.session_runs, prev_runs);
    prev_runs = r.session_runs;
  }
}

TEST(Campaign, RejectsUnsupportedLaneWordsUpFront) {
  const ControllerStructure cs = fig1_for("dk27");
  const SelfTestPlan plan = SelfTestPlan::two_session(16);
  for (const unsigned bad : {0u, 2u, 3u, 5u, 16u}) {
    CampaignOptions opt;
    opt.lane_words = bad;
    try {
      run_fault_campaign(cs, plan, opt);
      FAIL() << "lane_words=" << bad << " must be rejected";
    } catch (const Error& e) {
      // A typed invalid-input error that names the accepted values.
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("1, 4 or 8"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Campaign, ValidateReportsAllInvalidFieldsAtOnce) {
  const ControllerStructure cs = fig1_for("dk27");
  CampaignOptions opt;
  opt.engine = static_cast<CampaignEngine>(99);
  opt.lane_words = 7;
  opt.num_threads = 0;
  SelfTestPlan empty_plan;  // no sessions
  try {
    run_fault_campaign(cs, empty_plan, opt);
    FAIL() << "invalid options must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    // Every problem is named in ONE error, not discovered one at a time.
    const std::string ctx = e.context();
    EXPECT_NE(ctx.find("engine"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("lane_words"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("num_threads"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("sessions"), std::string::npos) << ctx;
  }
}

TEST(Campaign, OracleAndKernelRejectTheSameBadPlans) {
  // One plan check: the serial oracle and the lane kernel both answer an
  // unrunnable plan with a typed error, never a silent 0 or a bare throw.
  const ControllerStructure cs = fig1_for("dk27");
  SelfTestPlan no_sessions;
  SelfTestPlan width0 = SelfTestPlan::two_session(16);
  width0.output_misr_width = 0;
  SelfTestPlan width65 = SelfTestPlan::two_session(16);
  width65.output_misr_width = 65;
  const std::pair<SelfTestPlan, std::string> cases[] = {
      {no_sessions, "plan has no sessions"},
      {width0, "plan output_misr_width must be in [1, 64]; got 0"},
      {width65, "plan output_misr_width must be in [1, 64]; got 65"},
  };
  for (const auto& [plan, expected] : cases) {
    const std::string& name = expected;
    EXPECT_EQ(plan_problems(plan), expected);
    for (const bool oracle : {true, false}) {
      try {
        if (oracle)
          measure_coverage(cs, plan);
        else
          run_fault_campaign(cs, plan);
        ADD_FAILURE() << name << " accepted by the " << (oracle ? "oracle" : "kernel");
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << name;
        EXPECT_NE(e.context().find(expected), std::string::npos)
            << name << ": " << e.context();
      }
    }
  }
}

TEST(Campaign, OracleAndKernelRejectTheSameBadFault) {
  // One fault-list check: a fault on a net the netlist does not have is a
  // typed error naming the net and the net count, raised before any work
  // by the serial oracle, the campaign (collapsing or not) and the
  // functional pass -- never an out-of-range read.
  const MealyMachine m = load_benchmark("dk27");
  const ControllerStructure cs =
      build_fig2(encode_fsm(m, natural_encoding(m.num_states())));
  const NetId bad = static_cast<NetId>(cs.nl.num_nets() + 1000000);
  const std::vector<Fault> list = {{0, false}, {bad, true}};
  const SelfTestPlan plan = SelfTestPlan::conventional(16);
  CampaignOptions no_collapse;
  no_collapse.collapse = false;
  const std::pair<const char*, std::function<void()>> engines[] = {
      {"measure_coverage", [&] { measure_coverage(cs, plan, list); }},
      {"run_self_test", [&] { run_self_test(cs, plan, list[1]); }},
      {"collapsing campaign", [&] { run_fault_campaign(cs, plan, {}, list); }},
      {"campaign", [&] { run_fault_campaign(cs, plan, no_collapse, list); }},
      {"functional pass", [&] { measure_functional_coverage(cs, 16, list); }},
  };
  for (const auto& [name, run] : engines) {
    try {
      run();
      ADD_FAILURE() << name << " accepted a fault on net " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << name;
      EXPECT_NE(e.context().find("net=" + std::to_string(bad)), std::string::npos)
          << name << ": " << e.context();
      EXPECT_NE(e.context().find("nets=" + std::to_string(cs.nl.num_nets())),
                std::string::npos)
          << name << ": " << e.context();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, CampaignEquivalence,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

TEST(Campaign, Fig4PipelineMatchesSerialOracle) {
  const ControllerStructure cs = fig4_for("dk27");
  const SelfTestPlan plan = SelfTestPlan::two_session(64);
  const CoverageResult serial = measure_coverage(cs, plan);
  CampaignOptions opt;
  opt.num_threads = 2;
  const CampaignResult par = run_fault_campaign(cs, plan, opt);
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
}

TEST(Campaign, AutonomousAndThoroughPlansMatchSerialOracle) {
  const ControllerStructure cs = fig4_for("shiftreg");
  for (const SelfTestPlan& plan :
       {SelfTestPlan::autonomous(48), SelfTestPlan::thorough(32),
        SelfTestPlan::conventional(64)}) {
    const CoverageResult serial = measure_coverage(cs, plan);
    const CampaignResult par = run_fault_campaign(cs, plan);
    EXPECT_EQ(par.raw.detected, serial.detected);
    EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
  }
}

TEST(Campaign, PartialOutputChunksMatchSerialOracle) {
  // More observed outputs than MISR bits, in a count the width does not
  // divide: every cycle ends on a partial output chunk, whose unused MISR
  // rows must absorb 0 in the lane kernel as in the oracle. Narrow MISRs
  // alias often, so a stray row value shows up as a changed verdict.
  const ControllerStructure cs = fig1_for("dk14");
  ASSERT_EQ(cs.po.size() % 2, 1u);
  for (const std::size_t width : {2u, 3u, 4u}) {
    SelfTestPlan plan = SelfTestPlan::two_session(48);
    plan.output_misr_width = width;
    const CoverageResult serial = measure_coverage(cs, plan);
    const CampaignResult par = run_fault_campaign(cs, plan);
    EXPECT_EQ(par.raw.detected, serial.detected) << "width " << width;
    EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected))
        << "width " << width;
  }
}

TEST(Campaign, ConstNetFaultsInjectIdenticallyInBothEngines) {
  // enumerate_stuck_faults skips constant drivers, but a caller-supplied
  // list may include them; the scalar oracle and the mask-based compiled
  // engine must then agree that the fault *is* injected and detected.
  ControllerStructure cs;
  Netlist& nl = cs.nl;
  const NetId a = nl.add_input("a");
  cs.pi = {a};
  const NetId one = nl.add_const(true);
  const NetId q = nl.add_dff("r", false);
  const NetId d = nl.add_xor({a, q});
  nl.connect_dff(q, d);
  cs.reg_a = {0};
  const NetId o = nl.add_and({d, one});  // one/sa0 forces the output low
  nl.add_output(o, "o");
  cs.po = {o};
  nl.finalize();

  const SelfTestPlan plan = SelfTestPlan::two_session(32);
  const std::vector<Fault> list = faults_on_nets({one});
  const CoverageResult serial = measure_coverage(cs, plan, list);
  const CampaignResult par = run_fault_campaign(cs, plan, {}, list);
  EXPECT_EQ(serial.detected, 1u);  // sa0 detected, sa1 is redundant
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
}

TEST(Campaign, ExplicitFaultSubsetAndEmptyList) {
  const ControllerStructure cs = fig1_for("shiftreg");
  const SelfTestPlan plan = SelfTestPlan::two_session(32);
  const auto all = enumerate_stuck_faults(cs.nl);
  std::vector<Fault> subset(all.begin(), all.begin() + all.size() / 2);

  const CoverageResult serial = measure_coverage(cs, plan, subset);
  const CampaignResult par = run_fault_campaign(cs, plan, {}, subset);
  EXPECT_EQ(par.raw.total, subset.size());
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));

  const CampaignResult empty =
      run_fault_campaign(cs, plan, {}, std::vector<Fault>{});
  EXPECT_EQ(empty.raw.total, 0u);
  EXPECT_EQ(empty.session_runs, 0u);
  EXPECT_DOUBLE_EQ(empty.coverage(), 1.0);
}

// --- flat hand-off -----------------------------------------------------------
//
// In fig2 the test register T drives block C with fresh patterns every
// cycle, so the event engine re-evaluates nearly every op (98% on tbk).
// Every event lane run then hands off to the flat evaluator after its
// 64-cycle window (LaneCycle's kHandoffWindow).

ControllerStructure tbk_fig2() {
  const MealyMachine m = load_benchmark("tbk");
  return build_fig2(encode_fsm(m, natural_encoding(m.num_states())));
}

TEST(FlatHandoff, BusyEventRunsMatchFlatAndCountEveryFlatCycle) {
  const ControllerStructure cs = tbk_fig2();
  CampaignOptions opt;
  opt.lane_words = 4;
  opt.engine = CampaignEngine::kFlat;
  const CampaignResult flat =
      run_fault_campaign(cs, SelfTestPlan::conventional(256), opt);
  opt.engine = CampaignEngine::kEvent;
  const CampaignResult event =
      run_fault_campaign(cs, SelfTestPlan::conventional(256), opt);
  // The window alone: the same batches, stopped where the hand-off starts.
  const CampaignResult window =
      run_fault_campaign(cs, SelfTestPlan::conventional(64), opt);

  EXPECT_EQ(event.raw.detected, flat.raw.detected);
  EXPECT_EQ(fault_set(event.raw.undetected), fault_set(flat.raw.undetected));
  EXPECT_EQ(event.session_runs, flat.session_runs);
  EXPECT_EQ(event.cycles_simulated, flat.cycles_simulated);
  ASSERT_EQ(window.session_runs, event.session_runs);
  EXPECT_GT(window.mean_activity(), 0.3);
  // Every run handed off, and each of its flat cycles counts num_ops().
  EXPECT_EQ(event.ops_evaluated,
            window.ops_evaluated +
                (event.cycles_simulated - window.cycles_simulated) *
                    event.ops_per_cycle);
}

TEST(FlatHandoff, BusyFleetRunsKeepTheirSignatures) {
  const ControllerStructure cs = tbk_fig2();
  SelfTestPlan plan = SelfTestPlan::conventional(256);
  plan.output_misr_width = 8;
  const auto warm = make_campaign_warm_state(cs, plan.output_misr_width, 4);
  const FleetDefectSampler sampler = make_defect_sampler(cs, DefectSpec{});
  FleetShardStats stats[2];
  const CampaignEngine engines[2] = {CampaignEngine::kEvent, CampaignEngine::kFlat};
  for (int e = 0; e < 2; ++e) {
    Budget unlimited;
    ASSERT_TRUE(run_fleet_shard(cs, plan, *warm, 0xF1EE7, 0, 512, sampler,
                                engines[e], unlimited, stats[e]));
  }
  EXPECT_EQ(stats[0].instances, 512u);
  EXPECT_EQ(stats[0].po_stream_detected, stats[1].po_stream_detected);
  EXPECT_EQ(stats[0].any_stream_detected, stats[1].any_stream_detected);
  EXPECT_EQ(stats[0].misr_detected, stats[1].misr_detected);
  EXPECT_EQ(stats[0].sig_detected, stats[1].sig_detected);
  EXPECT_EQ(stats[0].signature_histogram, stats[1].signature_histogram);
  EXPECT_EQ(stats[0].cycles, stats[1].cycles);
}

// --- golden coverage regression ----------------------------------------------
//
// Exact detected counts for two corpus machines. Everything in the stack is
// deterministic, so these numbers must not drift; a change here means the
// simulation semantics changed (update deliberately, with DESIGN.md).

TEST(CampaignGolden, Dk27Fig4TwoSession128) {
  const ControllerStructure cs = fig4_for("dk27");
  const CampaignResult r = run_fault_campaign(cs, SelfTestPlan::two_session(128));
  const CoverageResult serial = measure_coverage(cs, SelfTestPlan::two_session(128));
  EXPECT_EQ(r.raw.total, serial.total);
  EXPECT_EQ(r.raw.detected, serial.detected);
  // Golden values (recorded at PR 2): the pipeline structure is fully
  // testable by the two-session plan.
  EXPECT_EQ(r.raw.total, 56u);
  EXPECT_EQ(r.raw.detected, 56u);
}

TEST(CampaignGolden, BbaraFig1TwoSession48) {
  const ControllerStructure cs = fig1_for("bbara");
  const CampaignResult r = run_fault_campaign(cs, SelfTestPlan::two_session(48));
  const CoverageResult serial = measure_coverage(cs, SelfTestPlan::two_session(48));
  EXPECT_EQ(r.raw.total, serial.total);
  EXPECT_EQ(r.raw.detected, serial.detected);
  // Golden values (recorded at PR 2): a short plan on the conventional
  // structure leaves a nonempty undetected set.
  EXPECT_EQ(r.raw.total, 304u);
  EXPECT_EQ(r.raw.detected, 257u);
}

// --- wide-output signature regression ----------------------------------------
//
// The former compaction dropped primary outputs beyond the MISR width (and
// beyond bit 63 of the per-cycle word), so faults observable only on a high
// output were silently missed. Build a structure with 70 outputs and check
// a fault on output 68's driver is detected by both engines.

ControllerStructure wide_output_structure() {
  ControllerStructure cs;
  cs.kind = "wide";
  Netlist& nl = cs.nl;
  const NetId a = nl.add_input("a");
  cs.pi = {a};
  const NetId q = nl.add_dff("r", false);
  const NetId d = nl.add_xor({a, q});
  nl.connect_dff(q, d);
  cs.reg_a = {0};
  for (int j = 0; j < 70; ++j) {
    // Distinct driver per output; fanout of d is > 1 so none collapse into it.
    const NetId o = nl.add_gate(GateType::kBuf, {d});
    nl.add_output(o, "out[" + std::to_string(j) + "]");
    cs.po.push_back(o);
  }
  nl.finalize();
  return cs;
}

TEST(WideOutputs, FaultOnHighOutputIsDetected) {
  const ControllerStructure cs = wide_output_structure();
  ASSERT_GT(cs.po.size(), 64u);
  const SelfTestPlan plan = SelfTestPlan::two_session(32);

  const Signatures golden = run_self_test(cs, plan);
  const Fault high{cs.po[68], true};  // stuck-at-1 on output 68's driver
  EXPECT_NE(run_self_test(cs, plan, high), golden)
      << "fault observable only beyond bit 63 must affect the signature";
  const Fault mid{cs.po[40], true};  // beyond the 16-bit MISR width too
  EXPECT_NE(run_self_test(cs, plan, mid), golden);

  const CoverageResult serial = measure_coverage(cs, plan);
  const CampaignResult par = run_fault_campaign(cs, plan);
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
  // Every output-driver fault is observable here.
  for (const Fault& f : serial.undetected)
    EXPECT_TRUE(std::find(cs.po.begin(), cs.po.end(), f.net) == cs.po.end())
        << "undetected fault on observed output net " << f.net;
}

}  // namespace
}  // namespace stc
