// Cross-validation sweeps: independent implementations checked against
// each other on the whole corpus -- exact QM vs espresso-lite on every
// encoded table, netlist evaluation vs cover evaluation, session-plan
// structure, and Mm-lattice laws on real benchmark machines.

#include <gtest/gtest.h>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "encoding/encoded_fsm.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/qm.hpp"
#include "netlist/builder.hpp"
#include "ostr/ostr.hpp"
#include "partition/lattice.hpp"

namespace stc {
namespace {

class CorpusTables : public ::testing::TestWithParam<std::string> {
 protected:
  EncodedFsm encoded() const {
    const MealyMachine m = load_benchmark(GetParam());
    return encode_fsm(m, natural_encoding(m.num_states()));
  }
};

TEST_P(CorpusTables, BothMinimizersImplementEveryTable) {
  const EncodedFsm e = encoded();
  for (const auto& tt : e.next_state) {
    EXPECT_TRUE(minimize_qm(tt).implements(tt));
    EXPECT_TRUE(minimize_espresso(tt).implements(tt));
  }
  for (const auto& tt : e.outputs) {
    EXPECT_TRUE(minimize_qm(tt).implements(tt));
    EXPECT_TRUE(minimize_espresso(tt).implements(tt));
  }
}

TEST_P(CorpusTables, ExactNeverBeatenOnCubeCount) {
  const EncodedFsm e = encoded();
  for (const auto& tt : e.next_state)
    EXPECT_LE(minimize_qm(tt).num_cubes(), minimize_espresso(tt).num_cubes());
}

TEST_P(CorpusTables, BuiltSopMatchesCoverEverywhere) {
  const EncodedFsm e = encoded();
  // One representative table through the netlist builder, checked on the
  // full minterm space (including don't-care patterns: netlist must match
  // the *cover*, not the spec, there).
  const Cover cover = minimize_espresso(e.next_state[0]);
  Netlist nl;
  std::vector<NetId> vars;
  for (std::size_t v = 0; v < cover.num_vars(); ++v)
    vars.push_back(nl.add_input("v" + std::to_string(v)));
  nl.add_output(build_sop(nl, cover, vars), "f");
  nl.finalize();
  auto st = nl.initial_state();
  for (Minterm m = 0; m < (Minterm{1} << cover.num_vars()); ++m) {
    std::vector<bool> in(cover.num_vars());
    for (std::size_t v = 0; v < cover.num_vars(); ++v) in[v] = (m >> v) & 1;
    ASSERT_EQ(nl.step(in, st)[0], cover.evaluate(m)) << GetParam() << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallCorpus, CorpusTables,
                         ::testing::Values("paper_fig5", "shiftreg", "bbtas",
                                           "dk15", "dk27", "tav", "count10",
                                           "serial_adder"),
                         [](const auto& info) { return info.param; });

// --- Mm-lattice laws on real machines -------------------------------------------

class CorpusLattice : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusLattice, EveryLatticeElementSatisfiesMmClosure) {
  const MealyMachine m = load_benchmark(GetParam());
  const auto lattice = enumerate_mm_lattice(m, 5000);
  ASSERT_FALSE(lattice.empty());
  for (const auto& mm : lattice) {
    // (pi, tau) with pi = M(tau); m(pi) refines tau (Galois connection).
    EXPECT_EQ(M_operator(m, mm.tau), mm.pi);
    EXPECT_TRUE(m_operator(m, mm.pi).refines(mm.tau));
    EXPECT_TRUE(is_partition_pair(m, mm.pi, mm.tau));
  }
}

TEST_P(CorpusLattice, LatticeClosedUnderJoin) {
  const MealyMachine m = load_benchmark(GetParam());
  const auto lattice = enumerate_mm_lattice(m, 5000);
  ASSERT_FALSE(lattice.empty());
  // The tau components form a join-closed family.
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    for (std::size_t j = i + 1; j < lattice.size() && j < i + 8; ++j) {
      const Partition joined = lattice[i].tau.join(lattice[j].tau);
      bool found = false;
      for (const auto& mm : lattice) found |= (mm.tau == joined);
      EXPECT_TRUE(found) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, CorpusLattice,
                         ::testing::Values("paper_fig5", "shiftreg", "bbtas",
                                           "dk27", "tav"),
                         [](const auto& info) { return info.param; });

// --- session plan structure -------------------------------------------------------

TEST(SessionPlans, TwoSessionSwapsRoles) {
  const auto plan = SelfTestPlan::two_session(100);
  ASSERT_EQ(plan.sessions.size(), 2u);
  EXPECT_EQ(plan.sessions[0].role_a, BilboMode::kGenerate);
  EXPECT_EQ(plan.sessions[0].role_b, BilboMode::kCompress);
  EXPECT_EQ(plan.sessions[1].role_a, BilboMode::kCompress);
  EXPECT_EQ(plan.sessions[1].role_b, BilboMode::kGenerate);
  EXPECT_EQ(plan.sessions[0].cycles, 100u);
  // Distinct seeds between sessions.
  EXPECT_NE(plan.sessions[0].input_seed, plan.sessions[1].input_seed);
}

TEST(SessionPlans, ConventionalHasSingleSession) {
  const auto plan = SelfTestPlan::conventional(64);
  ASSERT_EQ(plan.sessions.size(), 1u);
  EXPECT_EQ(plan.sessions[0].role_b, BilboMode::kGenerate);  // T generates
  EXPECT_EQ(plan.sessions[0].role_a, BilboMode::kCompress);  // R compresses
}

TEST(SessionPlans, AutonomousUsesSystemTransitions) {
  const auto plan = SelfTestPlan::autonomous(64);
  ASSERT_EQ(plan.sessions.size(), 2u);
  EXPECT_EQ(plan.sessions[0].role_a, BilboMode::kSystem);
  EXPECT_EQ(plan.sessions[0].role_b, BilboMode::kCompress);
  EXPECT_EQ(plan.sessions[1].role_b, BilboMode::kSystem);
}

TEST(SessionPlans, ThoroughHasFourReSeededSessions) {
  const auto plan = SelfTestPlan::thorough(100);
  ASSERT_EQ(plan.sessions.size(), 4u);
  // Second pass uses odd session lengths and fresh seeds.
  EXPECT_EQ(plan.sessions[2].cycles % 2, 1u);
  EXPECT_NE(plan.sessions[0].gen_seed, plan.sessions[2].gen_seed);
  EXPECT_NE(plan.sessions[1].input_seed, plan.sessions[3].input_seed);
}

TEST(SessionPlans, ThoroughNeverDetectsFewerThanTwoSession) {
  // More sessions only add observation opportunities.
  const MealyMachine m = load_benchmark("paper_fig5");
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure cs = build_fig4(m, real);
  const auto two = measure_coverage(cs, SelfTestPlan::two_session(64));
  const auto four = measure_coverage(cs, SelfTestPlan::thorough(64));
  EXPECT_GE(four.coverage() + 1e-9, two.coverage());
}

}  // namespace
}  // namespace stc
