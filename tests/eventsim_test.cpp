// Tests for the event-driven 64-lane evaluator: word-for-word agreement
// with the flat engine over the whole corpus (with and without installed
// fault batches), the reset-to-full-eval invariant around the masks'
// set() / clear() / session boundaries, and targeted edge cases -- const-only
// cones, XOR gates, glitch suppression (a word that returns to its old
// value mid-cascade kills the cone), and faults injected on primary-input
// and DFF-output nets.

#include <gtest/gtest.h>

#include <set>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "netlist/eval64.hpp"
#include "util/rng.hpp"
#include "engine_names.hpp"

namespace stc {
namespace {

ControllerStructure fig1_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

std::set<std::pair<NetId, bool>> fault_set(const std::vector<Fault>& faults) {
  std::set<std::pair<NetId, bool>> s;
  for (const Fault& f : faults) s.insert({f.net, f.stuck_value});
  return s;
}

/// Drive `cycles` pseudo-random source patterns through both engines and
/// require identical words on every net every cycle.
void expect_engines_identical(const Netlist& nl, const CompiledNetlist& cn,
                              const LaneFaultMasks& masks, std::size_t cycles,
                              std::uint64_t seed) {
  EventScratch ev;
  std::vector<std::uint64_t> in(nl.num_inputs(), 0), dff(nl.num_dffs(), 0);
  std::vector<std::uint64_t> flat(nl.num_nets(), 0);
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c) {
    for (auto& w : in) w = (std::uint64_t(rng.below(1u << 16)) << 48) ^
                           (std::uint64_t(rng.below(1u << 16)) << 24) ^
                           rng.below(1u << 16);
    for (auto& w : dff) w = (std::uint64_t(rng.below(1u << 16)) << 40) ^
                            rng.below(1u << 16);
    cn.evaluate_event(masks, in.data(), dff.data(), ev);
    cn.evaluate(masks, in.data(), dff.data(), flat.data());
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ(ev.values[id], flat[id]) << "cycle " << c << " net " << id;
  }
  EXPECT_EQ(ev.cycles, cycles);
  EXPECT_GE(ev.full_evals, 1u);  // the first call takes the reset path
}

/// Wide variant: drive W-word broadcast-free random lane groups through
/// both engines and require identical word groups on every net.
void expect_engines_identical_wide(const Netlist& nl, const CompiledNetlist& cn,
                                   const LaneFaultMasks& masks, std::size_t cycles,
                                   std::uint64_t seed) {
  const unsigned W = cn.lane_words();
  EventScratch ev;
  std::vector<std::uint64_t> in(nl.num_inputs() * W, 0),
      dff(nl.num_dffs() * W, 0);
  std::vector<std::uint64_t> flat(nl.num_nets() * W, 0);
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c) {
    for (auto& w : in) w = (std::uint64_t(rng.below(1u << 16)) << 48) ^
                           (std::uint64_t(rng.below(1u << 16)) << 24) ^
                           rng.below(1u << 16);
    for (auto& w : dff) w = (std::uint64_t(rng.below(1u << 16)) << 40) ^
                            rng.below(1u << 16);
    cn.evaluate_event(masks, in.data(), dff.data(), ev);
    cn.evaluate(masks, in.data(), dff.data(), flat.data());
    for (NetId id = 0; id < nl.num_nets(); ++id)
      for (unsigned w = 0; w < W; ++w)
        ASSERT_EQ(ev.values[id * W + w], flat[id * W + w])
            << "cycle " << c << " net " << id << " word " << w;
  }
}

// --- corpus-wide differential ------------------------------------------------

class EventEvaluator : public ::testing::TestWithParam<std::string> {};

TEST_P(EventEvaluator, MatchesFlatEngineWordForWord) {
  const ControllerStructure cs = fig1_for(GetParam());
  CompiledNetlist cn(cs.nl);
  LaneFaultMasks masks(cn);
  // Fault-free.
  expect_engines_identical(cs.nl, cn, masks, 48, 0xE1);
  // With a full 63-fault batch installed (set() invalidates resident
  // state, so the next evaluate_event must re-seed via a full evaluation).
  const auto faults = enumerate_stuck_faults(cs.nl);
  std::vector<LaneFault> batch;
  for (unsigned l = 1; l <= 63 && l <= faults.size(); ++l)
    batch.push_back({faults[(l * 7) % faults.size()].net,
                     faults[(l * 7) % faults.size()].stuck_value, l});
  masks.set(batch);
  expect_engines_identical(cs.nl, cn, masks, 48, 0xE2);
  // And again after clearing -- the masks must be fully gone.
  masks.clear();
  expect_engines_identical(cs.nl, cn, masks, 24, 0xE3);
}

TEST_P(EventEvaluator, WideLanesMatchFlatEngineWordForWord) {
  const ControllerStructure cs = fig1_for(GetParam());
  const auto faults = enumerate_stuck_faults(cs.nl);
  for (const unsigned W : {4u, 8u}) {
    CompiledNetlist cn(cs.nl, W);
    LaneFaultMasks masks(cn);
    ASSERT_EQ(cn.lane_words(), W);
    // Fault-free, with per-word independent random stimulus (stress beyond
    // the campaign's broadcast inputs).
    expect_engines_identical_wide(cs.nl, cn, masks, 24, 0xA0 + W);
    // With a full wide batch installed: lanes spread over every word of
    // the group, including the last lane.
    std::vector<LaneFault> batch;
    const unsigned num_lanes = 64 * W;
    for (unsigned l = 1; l < num_lanes - 1; l += 3)
      batch.push_back({faults[(l * 7) % faults.size()].net,
                       faults[(l * 7) % faults.size()].stuck_value, l});
    batch.push_back({faults[0].net, faults[0].stuck_value, num_lanes - 1});
    masks.set(batch);
    expect_engines_identical_wide(cs.nl, cn, masks, 24, 0xB0 + W);
    masks.clear();
    expect_engines_identical_wide(cs.nl, cn, masks, 12, 0xC0 + W);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, EventEvaluator,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- targeted edge cases -----------------------------------------------------

TEST(EventEvaluator, ConstOnlyConesSettleAtResetAndStayQuiet) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId one = nl.add_const(true);
  const NetId zero = nl.add_const(false);
  // A cone fed only by constants...
  const NetId c1 = nl.add_and({one, one});
  const NetId c2 = nl.add_or({c1, zero});
  const NetId c3 = nl.add_not(c2);
  nl.add_output(c3, "const_out");
  // ...and a live cone mixing a const into real logic.
  const NetId m = nl.add_and({a, one});
  nl.add_output(m, "mixed_out");
  nl.finalize();

  CompiledNetlist cn(nl);

  LaneFaultMasks masks(cn);
  EventScratch ev;
  std::vector<std::uint64_t> in(1, 0), flat(nl.num_nets(), 0);
  for (int c = 0; c < 8; ++c) {
    in[0] = (c & 1) ? ~std::uint64_t{0} : 0x1234;
    cn.evaluate_event(masks, in.data(), nullptr, ev);
    cn.evaluate(in.data(), nullptr, flat.data());
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ(ev.values[id], flat[id]) << "net " << id;
  }
  EXPECT_EQ(ev.values[c3], 0u);                    // NOT(1 OR 0) over all lanes
  EXPECT_EQ(ev.values[c1], ~std::uint64_t{0});
}

TEST(EventEvaluator, XorConesPropagateExactly) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId x1 = nl.add_xor({a, b});
  const NetId x2 = nl.add_xor({x1, c});
  const NetId x3 = nl.add_xor({a, b, c});  // 3-input parity, same function
  nl.add_output(x2, "p2");
  nl.add_output(x3, "p3");
  nl.finalize();

  CompiledNetlist cn(nl);

  LaneFaultMasks masks(cn);
  expect_engines_identical(nl, cn, masks, 64, 0x40);
  EventScratch ev;
  std::vector<std::uint64_t> in = {0xF0F0, 0x0FF0, 0x3C3C};
  cn.evaluate_event(masks, in.data(), nullptr, ev);
  EXPECT_EQ(ev.values[x2], ev.values[x3]);  // chained == flat parity
}

TEST(EventEvaluator, GlitchSuppressionKillsConeWhenWordReturnsToOldValue) {
  // x = XOR(a, b) sits in CSR level 0: toggling a and b together makes
  // its re-evaluated word group equal the old one, so the commit is
  // suppressed and the cone below it never wakes.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_xor({a, b});
  const NetId w = nl.add_not(x);
  const NetId y = nl.add_xor({w, a});  // also sees `a` directly: must update
  nl.add_output(w, "w");
  nl.add_output(y, "y");
  nl.finalize();

  CompiledNetlist cn(nl);

  LaneFaultMasks masks(cn);
  EventScratch ev;
  std::vector<std::uint64_t> in = {0, 0};
  std::vector<std::uint64_t> flat(nl.num_nets(), 0);
  cn.evaluate_event(masks, in.data(), nullptr, ev);  // reset path

  for (int c = 1; c <= 6; ++c) {
    in[0] = ~in[0];
    in[1] = ~in[1];  // a and b toggle together: x glitches back to old value
    const std::uint64_t before = ev.ops_evaluated;
    cn.evaluate_event(masks, in.data(), nullptr, ev);
    // x is re-evaluated and suppressed, y is recomputed to a fresh value
    // (it reads `a` directly), and w -- behind the suppressed glitch --
    // never wakes at all.
    EXPECT_EQ(ev.ops_evaluated - before, 2u) << "cycle " << c;
    cn.evaluate(in.data(), nullptr, flat.data());
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ(ev.values[id], flat[id]) << "net " << id;
  }
}

TEST(EventEvaluator, CsrGlitchSuppressionForXorReadingADenseProduct) {
  // s = XOR(p, c) reads the dense product p = AND(a, b); like every XOR it
  // runs on the CSR path, woken by p's commit in the dense sweep. With b
  // held at 1, p mirrors a; toggling a and c together
  // leaves s = p XOR c unchanged, so the recomputed word group equals the
  // old one and the cone below s (w) must not be re-evaluated.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId p = nl.add_and({a, b});
  const NetId s = nl.add_xor({p, c});
  const NetId w = nl.add_not(s);
  const NetId y = nl.add_xor({w, c});  // also sees `c` directly: must update
  nl.add_output(w, "w");
  nl.add_output(y, "y");
  nl.finalize();

  CompiledNetlist cn(nl);

  LaneFaultMasks masks(cn);
  EventScratch ev;
  std::vector<std::uint64_t> in = {0, ~std::uint64_t{0}, 0};  // b = 1
  std::vector<std::uint64_t> flat(nl.num_nets(), 0);
  cn.evaluate_event(masks, in.data(), nullptr, ev);  // reset path

  for (int cyc = 1; cyc <= 6; ++cyc) {
    in[0] = ~in[0];
    in[2] = ~in[2];  // a and c toggle together: s glitches back
    const std::uint64_t before = ev.ops_evaluated;
    cn.evaluate_event(masks, in.data(), nullptr, ev);
    // p (dense) changes, s is re-evaluated and suppressed, y updates; w
    // behind the suppressed glitch does not run.
    EXPECT_EQ(ev.ops_evaluated - before, 3u) << "cycle " << cyc;
    cn.evaluate(in.data(), nullptr, flat.data());
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ(ev.values[id], flat[id]) << "net " << id;
  }
}

TEST(EventEvaluator, ProductReadingALevelOneProductIsChainedNotSlab) {
  // p1 = AND of level-0 sources sits at net level 1; p2 reads it. p2 must
  // take the chained (values[]-reading) path: treating p1's output as a
  // slab literal would AND a stale term word seeded before p1's commit,
  // and p1's commit would never reschedule p2 (regression: classification
  // order in the dense-eligibility pass).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId d = nl.add_input("d");
  const NetId p1 = nl.add_and({a, b});      // level 1, dense
  const NetId p2 = nl.add_and({c, p1, d});  // reads a dense product
  nl.add_output(p1, "p1");
  nl.add_output(p2, "p2");
  nl.finalize();

  CompiledNetlist cn(nl);

  LaneFaultMasks masks(cn);
  EventScratch ev;
  std::vector<std::uint64_t> in(4, 0), flat(nl.num_nets(), 0);
  cn.evaluate_event(masks, in.data(), nullptr, ev);  // reset at all-zero
  in[2] = in[3] = ~std::uint64_t{0};          // c = d = 1
  for (int cyc = 1; cyc <= 4; ++cyc) {
    in[0] = in[1] = (cyc & 1) ? ~std::uint64_t{0} : 0;  // a = b toggle
    cn.evaluate_event(masks, in.data(), nullptr, ev);
    cn.evaluate(in.data(), nullptr, flat.data());
    ASSERT_EQ(ev.values[p1], flat[p1]) << "cycle " << cyc;
    ASSERT_EQ(ev.values[p2], flat[p2]) << "cycle " << cyc;
  }
}

TEST(EventEvaluator, FaultsOnPrimaryInputAndDffOutputNets) {
  // A fault on a source net is applied at drive time; both the campaign
  // engines and the serial oracle must agree on its detection.
  ControllerStructure cs;
  Netlist& nl = cs.nl;
  const NetId a = nl.add_input("a");
  cs.pi = {a};
  const NetId q = nl.add_dff("r", false);
  const NetId d = nl.add_xor({a, q});
  nl.connect_dff(q, d);
  cs.reg_a = {0};
  const NetId o = nl.add_or({d, a});
  nl.add_output(o, "o");
  cs.po = {o};
  nl.finalize();

  const SelfTestPlan plan = SelfTestPlan::two_session(32);
  const std::vector<Fault> list = faults_on_nets({a, q});
  const CoverageResult serial = measure_coverage(cs, plan, list);
  for (const CampaignEngine engine :
       {CampaignEngine::kEvent, CampaignEngine::kFlat}) {
    CampaignOptions opt;
    opt.engine = engine;
    const CampaignResult par = run_fault_campaign(cs, plan, opt, list);
    EXPECT_EQ(par.raw.detected, serial.detected)
        << engine_name(engine);
    EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected))
        << engine_name(engine);
  }
}

TEST(EventEvaluator, ResetFallsBackToOneFullEvaluation) {
  const ControllerStructure cs = fig1_for("dk27");
  CompiledNetlist cn(cs.nl);
  LaneFaultMasks masks(cn);
  EventScratch ev;
  std::vector<std::uint64_t> in(cs.nl.num_inputs(), 0),
      dff(cs.nl.num_dffs(), 0);
  cn.evaluate_event(masks, in.data(), dff.data(), ev);
  EXPECT_EQ(ev.full_evals, 1u);
  cn.evaluate_event(masks, in.data(), dff.data(), ev);
  EXPECT_EQ(ev.full_evals, 1u);  // steady state: incremental
  cn.reset(ev);
  cn.evaluate_event(masks, in.data(), dff.data(), ev);
  EXPECT_EQ(ev.full_evals, 2u);  // explicit reset
  masks.set({{cs.nl.outputs()[0], true, 3}});
  cn.evaluate_event(masks, in.data(), dff.data(), ev);
  EXPECT_EQ(ev.full_evals, 3u);  // mask change forces the full path
  masks.clear();
  cn.evaluate_event(masks, in.data(), dff.data(), ev);
  EXPECT_EQ(ev.full_evals, 4u);
  LaneFaultMasks other(cn);  // same (identity) masks, another owner
  cn.evaluate_event(other, in.data(), dff.data(), ev);
  EXPECT_EQ(ev.full_evals, 5u);
  cn.evaluate_event(other, in.data(), dff.data(), ev);
  EXPECT_EQ(ev.full_evals, 5u);
}

}  // namespace
}  // namespace stc
