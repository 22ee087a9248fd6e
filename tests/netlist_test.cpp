// Tests for the gate-level netlist and the SOP builder (src/netlist).

#include <gtest/gtest.h>

#include <tuple>

#include "logic/qm.hpp"
#include "netlist/builder.hpp"
#include "netlist/eval64.hpp"
#include "util/rng.hpp"
#include "scalar_step.hpp"

namespace stc {
namespace {

TEST(Netlist, CombinationalGateEvaluation) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g_and = nl.add_and({a, b});
  const NetId g_or = nl.add_or({a, b});
  const NetId g_xor = nl.add_xor({a, b});
  const NetId g_not = nl.add_not(a);
  nl.add_output(g_and, "and");
  nl.add_output(g_or, "or");
  nl.add_output(g_xor, "xor");
  nl.add_output(g_not, "not");
  nl.finalize();

  auto st = nl.initial_state();
  for (int av = 0; av < 2; ++av) {
    for (int bv = 0; bv < 2; ++bv) {
      auto out = step_outputs(nl, {av != 0, bv != 0}, st);
      EXPECT_EQ(out[0] != 0, (av & bv) != 0);
      EXPECT_EQ(out[1] != 0, (av | bv) != 0);
      EXPECT_EQ(out[2] != 0, (av ^ bv) != 0);
      EXPECT_EQ(out[3] != 0, av == 0);
    }
  }
}

TEST(Netlist, ConstantsAndBuf) {
  Netlist nl;
  const NetId one = nl.add_const(true);
  const NetId zero = nl.add_const(false);
  const NetId buf = nl.add_gate(GateType::kBuf, {one});
  nl.add_output(buf, "b");
  nl.add_output(zero, "z");
  nl.finalize();
  auto st = nl.initial_state();
  auto out = step_outputs(nl, {}, st);
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
}

TEST(Netlist, DffHoldsStateAcrossCycles) {
  // Toggle flip-flop: D = NOT Q.
  Netlist nl;
  const NetId q = nl.add_dff("t", false);
  const NetId d = nl.add_not(q);
  nl.connect_dff(q, d);
  nl.add_output(q, "q");
  nl.finalize();

  auto st = nl.initial_state();
  std::vector<bool> seq;
  for (int k = 0; k < 4; ++k) seq.push_back(step_outputs(nl, {}, st)[0] != 0);
  EXPECT_EQ(seq, (std::vector<bool>{false, true, false, true}));
}

TEST(Netlist, DffInitValueRespected) {
  Netlist nl;
  const NetId q = nl.add_dff("t", true);
  nl.connect_dff(q, q);
  nl.add_output(q, "q");
  nl.finalize();
  auto st = nl.initial_state();
  EXPECT_TRUE(step_outputs(nl, {}, st)[0]);
}

TEST(Netlist, UnconnectedDffRejected) {
  Netlist nl;
  nl.add_dff("q", false);
  EXPECT_THROW(nl.finalize(), std::logic_error);
}

TEST(Netlist, CombinationalCycleRejected) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  // Build a cycle through two gates by hand: g2 depends on g1, then force
  // g1's fanin to g2 via a fresh gate is impossible through the public
  // API (fanins are fixed at creation), so the only cycle path is via
  // connect_dff -- which is legal. Verify a DFF-broken loop finalizes.
  const NetId q = nl.add_dff("q", false);
  const NetId g = nl.add_and({a, q});
  nl.connect_dff(q, g);
  EXPECT_NO_THROW(nl.finalize());
}

TEST(Netlist, EvaluateRequiresFinalize) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output(nl.add_not(a), "o");
  auto st = nl.initial_state();
  std::vector<std::uint8_t> values;
  EXPECT_THROW(nl.evaluate({true}, st, values), std::logic_error);
}

TEST(Netlist, FaultInjectionForcesNet) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId inv = nl.add_not(a);
  nl.add_output(inv, "o");
  nl.finalize();
  auto st = nl.initial_state();
  // Healthy: out = !a. Fault inv stuck-at-0: out = 0 regardless.
  EXPECT_TRUE(step_outputs(nl, {false}, st)[0]);
  EXPECT_FALSE(step_outputs(nl, {false}, st, inv, false)[0]);
  // Fault on the input net itself.
  EXPECT_FALSE(step_outputs(nl, {false}, st, a, true)[0]);
}

TEST(Netlist, ConnectDffAfterFinalizeNeedsFinalizeAgain) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.add_dff("q", false);
  const NetId g = nl.add_and({a, q});
  nl.connect_dff(q, g);
  nl.add_output(g, "o");
  nl.finalize();
  nl.connect_dff(q, a);
  EXPECT_FALSE(nl.finalized());
  auto st = nl.initial_state();
  std::vector<std::uint8_t> values;
  EXPECT_THROW(nl.evaluate({true}, st, values), std::logic_error);
  EXPECT_THROW(nl.step({true}, st, values), std::logic_error);
  EXPECT_THROW(CompiledNetlist(nl, 1), std::logic_error);
  nl.finalize();
  EXPECT_NO_THROW(CompiledNetlist(nl, 1));
  // The new D net is the one clocked: q loads a, then g = a & q reads it.
  EXPECT_FALSE(step_outputs(nl, {true}, st)[0]);
  EXPECT_TRUE(step_outputs(nl, {true}, st)[0]);
}

TEST(Netlist, GateViewKeepsBuilderFaninOrder) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId q = nl.add_dff("q", true);
  const NetId g = nl.add_or({c, a, q, b, a});
  nl.connect_dff(q, g);
  nl.finalize();
  const GateView v = nl.gate(g);
  EXPECT_EQ(v.type, GateType::kOr);
  EXPECT_EQ(std::vector<NetId>(v.fanins.begin(), v.fanins.end()),
            (std::vector<NetId>{c, a, q, b, a}));
  EXPECT_FALSE(v.dff_init);
  const GateView d = nl.gate(q);
  EXPECT_EQ(d.type, GateType::kDff);
  ASSERT_EQ(d.fanins.size(), 1u);
  EXPECT_EQ(d.fanins[0], g);
  EXPECT_TRUE(d.dff_init);
  EXPECT_EQ(nl.gate(a).fanins.size(), 0u);
  EXPECT_EQ(nl.name(b), "b");
  EXPECT_EQ(nl.name(g), "");
  EXPECT_THROW(nl.gate(static_cast<NetId>(nl.num_nets())), std::out_of_range);
}

TEST(Netlist, ConstantNetTakesStuckAtLikeLaneKernel) {
  // A stuck-at fault on a constant net flips it; the scalar evaluator and
  // the lane kernel's per-net masks must agree on every net.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId one = nl.add_const(true);
  const NetId zero = nl.add_const(false);
  const NetId g_and = nl.add_and({a, one});
  const NetId g_or = nl.add_or({a, zero});
  nl.add_output(g_and, "and");
  nl.add_output(g_or, "or");
  nl.finalize();
  const CompiledNetlist cn(nl, 1);
  LaneFaultMasks masks(cn);
  masks.set({{one, false, 1}, {zero, true, 2}});
  std::vector<std::uint8_t> values;
  const std::vector<std::uint8_t> st = nl.initial_state();
  for (const bool av : {false, true}) {
    const std::uint64_t in = av ? ~std::uint64_t{0} : 0;
    std::vector<std::uint64_t> lanes(nl.num_nets());
    cn.evaluate(masks, &in, nullptr, lanes.data());
    for (const auto& [lane, net, stuck] :
         {std::tuple<unsigned, NetId, bool>{0, kNoNet, false},
          {1, one, false},
          {2, zero, true}}) {
      nl.evaluate({av}, st, values, net, stuck);
      for (NetId id = 0; id < nl.num_nets(); ++id)
        EXPECT_EQ(values[id], (lanes[id] >> lane) & 1)
            << "a=" << av << " lane " << lane << " net " << id;
    }
  }
  nl.evaluate({true}, st, values, one, false);
  EXPECT_EQ(values[g_and], 0);
  nl.evaluate({false}, st, values, zero, true);
  EXPECT_EQ(values[g_or], 1);
}

TEST(Netlist, AreaAndDepthModel) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId g1 = nl.add_and({a, b, c});  // 3-input AND = 2 GE
  const NetId g2 = nl.add_not(g1);         // 0.5 GE
  const NetId q = nl.add_dff("q", false);  // 4 GE
  nl.connect_dff(q, g2);
  nl.add_output(q, "o");
  nl.finalize();
  EXPECT_DOUBLE_EQ(nl.area_ge(), 2.0 + 0.5 + 4.0);
  EXPECT_EQ(nl.depth(), 2u);  // AND then NOT
}

TEST(Netlist, InputArityChecked) {
  Netlist nl;
  nl.add_input("a");
  nl.finalize();
  auto st = nl.initial_state();
  std::vector<std::uint8_t> values;
  EXPECT_THROW(nl.evaluate({}, st, values), std::invalid_argument);
  EXPECT_THROW(nl.evaluate({true, false}, st, values), std::invalid_argument);
}

// --- SOP builder -----------------------------------------------------------------

class SopBuilder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SopBuilder, NetlistMatchesCoverOnAllMinterms) {
  Rng rng(GetParam());
  const std::size_t vars = 2 + rng.below(4);
  TruthTable tt(vars);
  for (Minterm m = 0; m < tt.num_minterms(); ++m)
    if (rng.chance(0.45)) tt.set_on(m);
  const Cover cover = minimize_qm(tt);

  Netlist nl;
  std::vector<NetId> var_nets;
  for (std::size_t v = 0; v < vars; ++v)
    var_nets.push_back(nl.add_input("v" + std::to_string(v)));
  const NetId out = build_sop(nl, cover, var_nets);
  nl.add_output(out, "f");
  nl.finalize();

  auto st = nl.initial_state();
  for (Minterm m = 0; m < tt.num_minterms(); ++m) {
    std::vector<std::uint8_t> in(vars);
    for (std::size_t v = 0; v < vars; ++v) in[v] = (m >> v) & 1;
    EXPECT_EQ(step_outputs(nl, in, st)[0] != 0, cover.evaluate(m)) << "minterm " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SopBuilder, ::testing::Range<std::uint64_t>(0, 10));

TEST(SopBuilderEdge, EmptyCoverIsConstZero) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId out = build_sop(nl, Cover(1), {a});
  nl.add_output(out, "f");
  nl.finalize();
  auto st = nl.initial_state();
  EXPECT_FALSE(step_outputs(nl, {true}, st)[0]);
}

TEST(SopBuilderEdge, TautologyCubeIsConstOne) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  Cover c(1);
  c.add(Cube::top());
  const NetId out = build_sop(nl, c, {a});
  nl.add_output(out, "f");
  nl.finalize();
  auto st = nl.initial_state();
  EXPECT_TRUE(step_outputs(nl, {false}, st)[0]);
}

TEST(SopBuilderEdge, SharedInvertersNotDuplicated) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  Cover c(2);
  c.add(Cube::from_string("00"));
  c.add(Cube::from_string("0-"));
  build_sop(nl, c, {a, b});
  // Only two inverters needed (one per variable), not three.
  std::size_t inverters = 0;
  for (NetId id = 0; id < nl.num_nets(); ++id)
    if (nl.gate(id).type == GateType::kNot) ++inverters;
  EXPECT_EQ(inverters, 2u);
}

TEST(Mux, SelectsCorrectly) {
  Netlist nl;
  const NetId s = nl.add_input("s");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.add_output(build_mux(nl, s, a, b), "y");
  nl.finalize();
  auto st = nl.initial_state();
  EXPECT_TRUE(step_outputs(nl, {true, true, false}, st)[0]);    // sel -> a
  EXPECT_FALSE(step_outputs(nl, {true, false, true}, st)[0]);
  EXPECT_TRUE(step_outputs(nl, {false, false, true}, st)[0]);   // !sel -> b
  EXPECT_FALSE(step_outputs(nl, {false, true, false}, st)[0]);
}

TEST(RegisterBank, InitEncodesLsbFirst) {
  Netlist nl;
  const RegisterBank bank = build_register(nl, "R", 3, 0b101);
  for (NetId q : bank.q) nl.connect_dff(q, q);
  nl.finalize();
  auto st = nl.initial_state();
  EXPECT_EQ(st, (std::vector<std::uint8_t>{1, 0, 1}));
}

}  // namespace
}  // namespace stc
