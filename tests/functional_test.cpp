// Differential suite for the functional (Fig. 1) coverage sweep.
// measure_functional_coverage runs 511 faults per pass on the compiled
// lane kernel; the reference below is the scalar path it replaced, one
// Netlist::step trace per fault compared output for output with the
// fault-free trace. The two must agree on every verdict, in list order.

#include <gtest/gtest.h>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"

namespace stc {
namespace {

/// One scalar trace per fault: drive `cycles` input-LFSR patterns in
/// system mode (test-mode pin low) and compare the primary outputs of
/// every cycle with the fault-free trace.
CoverageResult scalar_functional_coverage(const ControllerStructure& cs,
                                          std::size_t cycles,
                                          const std::vector<Fault>& list,
                                          std::uint64_t seed = 0x5EED) {
  const Netlist& nl = cs.nl;
  std::vector<std::size_t> pi_slot;
  for (NetId net : cs.pi)
    for (std::size_t k = 0; k < nl.inputs().size(); ++k)
      if (nl.inputs()[k] == net) pi_slot.push_back(k);
  std::vector<bool> in(nl.num_inputs(), false);
  std::vector<bool> values, outs;
  const auto run_trace = [&](std::optional<Fault> fault) {
    const NetId fnet = fault ? fault->net : kNoNet;
    const bool fval = fault ? fault->stuck_value : false;
    Bilbo gen(std::max<std::size_t>(8, cs.pi.size()));
    gen.seed(seed);
    Netlist::SimState state = nl.initial_state();
    std::vector<bool> trace;
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      std::fill(in.begin(), in.end(), false);
      for (std::size_t k = 0; k < cs.pi.size(); ++k) in[pi_slot[k]] = gen.bit(k);
      nl.step(in, state, values, outs, fnet, fval);
      trace.insert(trace.end(), outs.begin(), outs.end());
      gen.clock(BilboMode::kGenerate);
    }
    return trace;
  };

  CoverageResult res;
  res.total = list.size();
  res.simulated = list.size();
  const std::vector<bool> golden = run_trace(std::nullopt);
  for (const Fault& f : list) {
    if (run_trace(f) != golden) {
      ++res.detected;
    } else {
      res.undetected.push_back(f);
    }
  }
  return res;
}

ControllerStructure fig1_for(const std::string& name, Technology tech) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())),
                    MinimizerKind::kAuto, tech);
}

/// At most `cap` faults, by a deterministic stride (the scalar reference
/// costs one trace per fault).
std::vector<Fault> strided_faults(const Netlist& nl, std::size_t cap) {
  const std::vector<Fault> all = enumerate_stuck_faults(nl);
  const std::size_t stride = all.size() <= cap ? 1 : (all.size() + cap - 1) / cap;
  std::vector<Fault> list;
  for (std::size_t i = 0; i < all.size(); i += stride) list.push_back(all[i]);
  return list;
}

void expect_same_result(const CoverageResult& lane, const CoverageResult& ref,
                        const std::string& what) {
  EXPECT_EQ(lane.total, ref.total) << what;
  EXPECT_EQ(lane.simulated, ref.simulated) << what;
  EXPECT_EQ(lane.detected, ref.detected) << what;
  EXPECT_EQ(lane.undetected, ref.undetected) << what;
}

class FunctionalEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(FunctionalEquivalence, LaneKernelMatchesScalarTraces) {
  for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel}) {
    const ControllerStructure cs = fig1_for(GetParam(), tech);
    const std::vector<Fault> list = strided_faults(cs.nl, 160);
    expect_same_result(measure_functional_coverage(cs, 256, list),
                       scalar_functional_coverage(cs, 256, list),
                       GetParam() + (tech == Technology::kTwoLevel ? " 2L" : " ML"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, FunctionalEquivalence,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

TEST(FunctionalCoverage, OneCycleMatchesScalarTraces) {
  for (const char* name : {"dk16", "bbara", "shiftreg"}) {
    const ControllerStructure cs = fig1_for(name, Technology::kTwoLevel);
    const std::vector<Fault> list = enumerate_stuck_faults(cs.nl);
    expect_same_result(measure_functional_coverage(cs, 1, list),
                       scalar_functional_coverage(cs, 1, list), name);
  }
}

TEST(FunctionalCoverage, CutBudgetKeepsExactVerdictsOfAPrefix) {
  // The unit is one fault: a 520-fault allowance runs one full batch of
  // 511 and one of 9, and those verdicts are the reference's.
  const ControllerStructure cs = fig1_for("dk16", Technology::kTwoLevel);
  const std::vector<Fault> all = enumerate_stuck_faults(cs.nl);
  ASSERT_GT(all.size(), 520u);
  Degradation deg;
  const CoverageResult cut = measure_functional_coverage(
      cs, 128, all, 0x5EED, Budget::work_limit(520), &deg);
  CoverageResult ref = scalar_functional_coverage(
      cs, 128, std::vector<Fault>(all.begin(), all.begin() + 520));
  ref.total = all.size();
  expect_same_result(cut, ref, "dk16 cut at 520");
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(deg.reason, "work-allowance");
}

}  // namespace
}  // namespace stc
