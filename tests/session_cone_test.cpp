// Session observation cones: every campaign session runs on the compiled
// fanin cone of what it observes (primary outputs, and the D inputs of the
// banks it clocks in compress or system mode), and skips the survivors
// whose fault net lies outside that cone while their output-MISR
// difference is 0. Verdicts must equal the serial oracle's on every corpus
// pipeline structure, plan, lane width, evaluator and thread count, and
// the work counters must equal the independent model of
// session_model.hpp.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "netlist/eval64.hpp"
#include "ostr/ostr.hpp"
#include "util/rng.hpp"
#include "engine_names.hpp"
#include "session_model.hpp"

namespace stc {

// Names the technology in gtest's parameter printouts (found by ADL).
void PrintTo(Technology tech, std::ostream* os) { *os << technology_name(tech); }

namespace {

/// Fig. 3 or Fig. 4 of a corpus machine. Fig. 4 takes the best pair of a
/// 20000-node OSTR search: any realization gives a pipeline structure, and
/// the cap keeps the big machines' set-up short.
ControllerStructure pipeline_for(const std::string& machine, Technology tech, int fig) {
  const MealyMachine m = load_benchmark(machine);
  if (fig == 3)
    return build_fig3(encode_fsm(m, natural_encoding(m.num_states())),
                      MinimizerKind::kAuto, tech);
  OstrOptions opts;
  opts.max_nodes = 20000;
  const OstrResult ostr = solve_ostr(m, opts);
  return build_fig4(m, build_realization(m, ostr.best.pi, ostr.best.tau),
                    MinimizerKind::kAuto, tech);
}

/// CampaignEquivalence's sample: the whole fault list up to 160 faults,
/// a deterministic stride beyond.
std::vector<Fault> strided_sample(const Netlist& nl) {
  const auto all = enumerate_stuck_faults(nl);
  const std::size_t cap = 160;
  const std::size_t stride = all.size() <= cap ? 1 : (all.size() + cap - 1) / cap;
  std::vector<Fault> list;
  for (std::size_t i = 0; i < all.size(); i += stride) list.push_back(all[i]);
  return list;
}

std::set<std::pair<NetId, bool>> fault_set(const std::vector<Fault>& faults) {
  std::set<std::pair<NetId, bool>> s;
  for (const Fault& f : faults) s.insert({f.net, f.stuck_value});
  return s;
}

NetId d_net(const Netlist& nl, std::size_t dff) { return nl.gate(nl.dffs()[dff]).fanins[0]; }

// --- corpus-wide differential ---------------------------------------------------

using ConeParam = std::tuple<std::string, Technology, int>;

class SessionCone : public ::testing::TestWithParam<ConeParam> {};

TEST_P(SessionCone, CampaignsMatchSerialOracleAndModel) {
  const auto& [machine, tech, fig] = GetParam();
  const ControllerStructure cs = pipeline_for(machine, tech, fig);
  const std::vector<Fault> list = strided_sample(cs.nl);
  const std::vector<Fault> reps = collapse_faults(cs.nl, list).representatives;

  for (const auto& [name, plan] :
       {std::pair<const char*, SelfTestPlan>{"two_session", SelfTestPlan::two_session(48)},
        {"thorough", SelfTestPlan::thorough(48)},
        {"autonomous", SelfTestPlan::autonomous(48)}}) {
    SCOPED_TRACE(name);
    const CoverageResult serial = measure_coverage(cs, plan, list);
    const auto serial_undet = fault_set(serial.undetected);
    const SessionWork work = survivors_per_session(cs, plan, reps);
    for (const unsigned lane_words : kSupportedLaneWords) {
      for (const CampaignEngine engine :
           {CampaignEngine::kEvent, CampaignEngine::kFlat}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          CampaignOptions opt;
          opt.engine = engine;
          opt.num_threads = threads;
          opt.lane_words = lane_words;
          const CampaignResult par = run_fault_campaign(cs, plan, opt, list);
          const std::string where = std::string("engine=") + engine_name(engine) +
                                    " threads=" + std::to_string(threads) +
                                    " lane_words=" + std::to_string(lane_words);
          EXPECT_EQ(par.raw.detected, serial.detected) << where;
          EXPECT_EQ(fault_set(par.raw.undetected), serial_undet) << where;
          EXPECT_EQ(par.faults_simulated, list.size()) << where;
          EXPECT_EQ(par.session_runs, work.runs(faults_per_run(lane_words))) << where;
          EXPECT_EQ(par.fault_sessions_skipped, work.skipped()) << where;
          if (engine == CampaignEngine::kFlat) {
            EXPECT_DOUBLE_EQ(par.mean_activity(), 1.0) << where;
          } else {
            EXPECT_LE(par.mean_activity(), 1.0) << where;
          }
        }
      }
    }
  }
}

std::vector<ConeParam> all_pipelines() {
  std::vector<ConeParam> params;
  for (const std::string& machine : benchmark_names())
    for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel})
      for (const int fig : {3, 4}) params.emplace_back(machine, tech, fig);
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllKissMachines, SessionCone, ::testing::ValuesIn(all_pipelines()),
    [](const ::testing::TestParamInfo<ConeParam>& info) {
      return std::get<0>(info.param) + "_" + technology_name(std::get<1>(info.param)) +
             "_fig" + std::to_string(std::get<2>(info.param));
    });

// --- what the cones skip ----------------------------------------------------------

TEST(SessionConeSkips, PipelineSessionsSkipWhileFullObservationSkipsNothing) {
  // s1's pipeline sessions each observe one register's next-state block
  // and the outputs; fig4's autonomous plan clocks the generating register
  // in system mode and fig2's conventional plan compacts the whole
  // next-state block, so those sessions run the whole netlist.
  const ControllerStructure fig4 = pipeline_for("s1", Technology::kTwoLevel, 4);
  CampaignOptions opt;
  opt.lane_words = 8;
  const CampaignResult piped = run_fault_campaign(fig4, SelfTestPlan::two_session(64), opt);
  EXPECT_GT(piped.fault_sessions_skipped, 0u);
  EXPECT_LT(piped.ops_offered, piped.cycles_simulated * piped.ops_per_cycle);
  const CampaignResult autonomous =
      run_fault_campaign(fig4, SelfTestPlan::autonomous(64), opt);
  EXPECT_EQ(autonomous.fault_sessions_skipped, 0u);
  EXPECT_EQ(autonomous.ops_offered, autonomous.cycles_simulated * autonomous.ops_per_cycle);

  const MealyMachine m = load_benchmark("s1");
  const ControllerStructure fig2 = build_fig2(encode_fsm(m, natural_encoding(m.num_states())));
  const CampaignResult conventional =
      run_fault_campaign(fig2, SelfTestPlan::conventional(64), opt);
  EXPECT_EQ(conventional.fault_sessions_skipped, 0u);
  EXPECT_EQ(conventional.ops_offered,
            conventional.cycles_simulated * conventional.ops_per_cycle);
}

/// A survivor outside the last session's cone whose output-MISR difference
/// is nonzero must still run: the difference evolves under the MISR
/// feedback to a nonzero final signature difference, so the fault is
/// detected although the session cannot reach it. In fig4's first session
/// a C1 fault corrupts R2's compacted state, which the output block reads;
/// when R2's signature aliases, the fault survives into session 2 with a
/// nonzero MISR difference, and C1 lies outside session 2's cone (R2
/// generates there, ignoring C1). A narrow R2 aliases often.
TEST(SessionConeSkips, NonzeroMisrDifferenceOutsideTheConeStillRuns) {
  const ControllerStructure cs = pipeline_for("dk14", Technology::kTwoLevel, 4);
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  SelfTestPlan first = plan;
  first.sessions.resize(1);
  const Signatures golden1 = run_self_test(cs, first);
  const Signatures golden = run_self_test(cs, plan);
  const std::vector<char> cone2 = model_session_cone(cs, plan.sessions[1]);

  std::vector<Fault> carried;  // outside cone 2, nonzero MISR difference
  for (const Fault& f : enumerate_stuck_faults(cs.nl)) {
    if (cone2[f.net]) continue;
    const Signatures s1 = run_self_test(cs, first, f);
    if (s1.register_sigs == golden1.register_sigs && s1.output_sig != golden1.output_sig)
      carried.push_back(f);
  }
  ASSERT_FALSE(carried.empty()) << "no survivor carries a difference out of the cone";
  for (const Fault& f : carried)
    EXPECT_NE(run_self_test(cs, plan, f), golden) << "fault on net " << f.net;

  for (const unsigned lane_words : kSupportedLaneWords) {
    CampaignOptions opt;
    opt.lane_words = lane_words;
    opt.collapse = false;
    const CampaignResult r = run_fault_campaign(cs, plan, opt, carried);
    EXPECT_EQ(r.raw.detected, carried.size()) << "lane_words=" << lane_words;
  }
}

// --- the cone program -------------------------------------------------------------

TEST(SessionConeProgram, MatchesTheWholeProgramOnEveryConeNet) {
  // Session 1 of fig4 observes the outputs and R2's D inputs. The cone
  // program must give every cone net the whole program's value under the
  // same faults, on both evaluators, while skipping ops.
  const ControllerStructure cs = pipeline_for("tbk", Technology::kMultiLevel, 4);
  const Netlist& nl = cs.nl;
  std::vector<NetId> roots = cs.po;
  for (const std::size_t k : cs.reg_b) roots.push_back(d_net(nl, k));
  const std::vector<char> cone = fanin_cone(nl, roots);
  const unsigned W = 4;
  const CompiledNetlist whole(nl, W), part(nl, W, cone);
  ASSERT_LT(part.num_ops(), whole.num_ops());

  LaneFaultMasks masks(whole);
  const auto faults = enumerate_stuck_faults(nl);
  std::vector<LaneFault> batch;
  for (unsigned l = 1; l < 64 * W; ++l)
    batch.push_back({faults[(l * 37) % faults.size()].net,
                     faults[(l * 37) % faults.size()].stuck_value, l});
  masks.set(batch);

  EventScratch ev_whole, ev_part;
  std::vector<std::uint64_t> in(nl.num_inputs() * W), dff(nl.num_dffs() * W);
  std::vector<std::uint64_t> flat_whole(nl.num_nets() * W), flat_part(nl.num_nets() * W);
  Rng rng(0xC0DE);
  for (int cycle = 0; cycle < 32; ++cycle) {
    for (auto& w : in) w = rng.next();
    for (auto& w : dff) w = rng.next();
    whole.evaluate(masks, in.data(), dff.data(), flat_whole.data());
    part.evaluate(masks, in.data(), dff.data(), flat_part.data());
    whole.evaluate_event(masks, in.data(), dff.data(), ev_whole);
    part.evaluate_event(masks, in.data(), dff.data(), ev_part);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (!cone[n]) continue;
      for (unsigned w = 0; w < W; ++w) {
        ASSERT_EQ(flat_part[n * W + w], flat_whole[n * W + w]) << "net " << n;
        ASSERT_EQ(ev_part.values[n * W + w], flat_whole[n * W + w]) << "net " << n;
        ASSERT_EQ(ev_whole.values[n * W + w], flat_whole[n * W + w]) << "net " << n;
      }
    }
  }
}

TEST(SessionConeProgram, RejectsConesThatAreNotFaninClosed) {
  const ControllerStructure cs = pipeline_for("dk27", Technology::kTwoLevel, 4);
  const Netlist& nl = cs.nl;
  std::vector<char> cone(nl.num_nets(), 0);
  cone[cs.po[0]] = 1;  // an output without the logic that drives it
  ASSERT_FALSE(nl.topo_order().empty());
  EXPECT_THROW(CompiledNetlist(nl, 1, cone), std::invalid_argument);
  EXPECT_THROW(CompiledNetlist(nl, 1, std::vector<char>(nl.num_nets() + 1, 1)),
               std::invalid_argument);
  // The closure of that output is accepted and evaluates it.
  const CompiledNetlist part(nl, 1, fanin_cone(nl, {cs.po[0]}));
  EXPECT_LE(part.num_ops(), nl.topo_order().size());
}

TEST(SessionConeProgram, MasksMustFitTheProgram) {
  const ControllerStructure cs = pipeline_for("dk27", Technology::kTwoLevel, 4);
  const CompiledNetlist narrow(cs.nl, 1);
  const LaneFaultMasks wide(cs.nl.num_nets(), 4);
  std::vector<std::uint64_t> in(cs.nl.num_inputs()), dff(cs.nl.num_dffs()),
      values(cs.nl.num_nets());
  EXPECT_THROW(narrow.evaluate(wide, in.data(), dff.data(), values.data()),
               std::invalid_argument);
  EventScratch ev;
  EXPECT_THROW(narrow.evaluate_event(wide, in.data(), dff.data(), ev),
               std::invalid_argument);
}

}  // namespace
}  // namespace stc
