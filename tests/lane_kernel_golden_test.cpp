// Lane-kernel goldens: the verdicts and work counters of the three lane
// runs -- campaign (session, batch) runs, packed fleet runs and the
// functional pass -- pinned so that a refactor of the lane-session loop
// can be shown to change neither a verdict nor a unit of counted work.
// CampaignEquivalence and FunctionalEquivalence check the verdicts against
// the serial references; these also pin session_runs, cycles_simulated,
// ops_evaluated (which the flat hand-off reads) and every fleet counter.
// The campaign rows' three work counters were re-recorded when sessions
// began to run on their observation cones (DESIGN.md, "Session
// observation cones"); their verdict fields are unchanged.
// Every row runs with each evaluator pinned (CampaignOptions::engine and
// run_fleet_shard's engine argument; kEvent is the kernel's own policy).
// A failing row prints its actual values in the table's own layout.

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "fleet/fleet.hpp"
#include "ostr/ostr.hpp"
#include "util/hash.hpp"
#include "engine_names.hpp"

namespace stc {
namespace {

ControllerStructure build_for(const std::string& name, int fig, Technology tech) {
  const MealyMachine m = load_benchmark(name);
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  if (fig == 1) return build_fig1(enc, MinimizerKind::kAuto, tech);
  if (fig == 3) return build_fig3(enc, MinimizerKind::kAuto, tech);
  const OstrResult ostr = solve_ostr(m);
  return build_fig4(m, build_realization(m, ostr.best.pi, ostr.best.tau),
                    MinimizerKind::kAuto, tech);
}

/// FNV-1a over a fault list in list order; kNoFaults for an empty list.
std::uint64_t fault_digest(const std::vector<Fault>& faults) {
  std::uint64_t h = kFnvOffset;
  for (const Fault& f : faults) {
    h = fnv1a_u64(h, f.net);
    h = fnv1a_u64(h, f.stuck_value ? 1 : 0);
  }
  return h;
}

constexpr std::uint64_t kNoFaults = kFnvOffset;

// --- campaign runs ------------------------------------------------------------

struct CampaignRow {
  const char* engine;
  unsigned lane_words;
  std::size_t detected;
  std::uint64_t undetected_digest;
  std::size_t session_runs;
  std::uint64_t cycles, ops;
};

void expect_campaign(const ControllerStructure& cs, const SelfTestPlan& plan,
                     const CampaignRow& want) {
  const std::string engine = want.engine;
  ASSERT_TRUE(engine == "event" || engine == "flat") << engine;
  CampaignOptions opt;
  opt.engine = engine == "flat" ? CampaignEngine::kFlat : CampaignEngine::kEvent;
  opt.lane_words = want.lane_words;
  const CampaignResult r = run_fault_campaign(cs, plan, opt);
  std::ostringstream got;
  got << "actual: {\"" << want.engine << "\", " << want.lane_words << ", "
      << r.raw.detected << ", 0x" << std::hex << fault_digest(r.raw.undetected)
      << std::dec << "ull, " << r.session_runs << ", " << r.cycles_simulated << ", "
      << r.ops_evaluated << "}";
  EXPECT_EQ(r.raw.detected, want.detected) << got.str();
  EXPECT_EQ(fault_digest(r.raw.undetected), want.undetected_digest) << got.str();
  EXPECT_EQ(r.session_runs, want.session_runs) << got.str();
  EXPECT_EQ(r.cycles_simulated, want.cycles) << got.str();
  EXPECT_EQ(r.ops_evaluated, want.ops) << got.str();
}

TEST(LaneKernelGolden, TbkMultiLevelFig3Thorough256) {
  const ControllerStructure cs = build_for("tbk", 3, Technology::kMultiLevel);
  const CampaignRow rows[] = {
      {"event", 1, 4611, 0x4400a676814dfde5ull, 133, 34102, 12542590},
      {"event", 4, 4611, 0x4400a676814dfde5ull, 34, 8718, 4443952},
      {"event", 8, 4611, 0x4400a676814dfde5ull, 18, 4616, 2871414},
      {"flat", 1, 4611, 0x4400a676814dfde5ull, 133, 34102, 71709985},
      {"flat", 4, 4611, 0x4400a676814dfde5ull, 34, 8718, 18355749},
      {"flat", 8, 4611, 0x4400a676814dfde5ull, 18, 4616, 9718988},
  };
  for (const CampaignRow& row : rows)
    expect_campaign(cs, SelfTestPlan::thorough(256), row);
}

TEST(LaneKernelGolden, Dk27Fig4TwoSession128) {
  const ControllerStructure cs = build_for("dk27", 4, Technology::kTwoLevel);
  const CampaignRow rows[] = {
      {"event", 1, 56, kNoFaults, 2, 256, 4754},
      {"event", 4, 56, kNoFaults, 2, 256, 4754},
      {"event", 8, 56, kNoFaults, 2, 256, 4754},
      {"flat", 1, 56, kNoFaults, 2, 256, 5248},
      {"flat", 4, 56, kNoFaults, 2, 256, 5248},
      {"flat", 8, 56, kNoFaults, 2, 256, 5248},
  };
  for (const CampaignRow& row : rows)
    expect_campaign(cs, SelfTestPlan::two_session(128), row);
}

// --- fleet runs ---------------------------------------------------------------

/// Every FleetShardStats field; the 64-bucket signature histogram as an
/// FNV-1a digest of its buckets in order.
struct FleetRow {
  std::size_t misr_width;
  std::uint64_t instances, defective, po_stream, any_stream, misr, sig, aliases,
      escapes, session_runs, cycles, histogram_digest;
};

std::uint64_t histogram_digest(const FleetShardStats& st) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t n : st.signature_histogram) h = fnv1a_u64(h, n);
  return h;
}

/// Run instances [0, instances) of a lane_words-1 fleet under the default
/// FleetOptions plan, seeds and defects, as one run_fleet_shard per row's
/// MISR width on each evaluator, and check every row. run_fleet's
/// aggregates equal these for any shard partition.
template <std::size_t N>
void expect_fleet(const ControllerStructure& cs, std::uint64_t instances,
                  const FleetRow (&rows)[N]) {
  const FleetOptions defaults;
  const FleetDefectSampler sampler = make_defect_sampler(cs, defaults.defects);
  for (const CampaignEngine engine : {CampaignEngine::kEvent, CampaignEngine::kFlat}) {
    for (const FleetRow& want : rows) {
      SelfTestPlan plan = defaults.plan;
      plan.output_misr_width = want.misr_width;
      const auto warm = make_campaign_warm_state(cs, want.misr_width, 1);
      Budget unlimited;
      FleetShardStats st;
      ASSERT_TRUE(run_fleet_shard(cs, plan, *warm, defaults.base_seed, 0, instances,
                                  sampler, engine, unlimited, st));
      const FleetRow got{want.misr_width, st.instances, st.defective,
                         st.po_stream_detected, st.any_stream_detected,
                         st.misr_detected, st.sig_detected, st.aliases, st.escapes,
                         st.session_runs, st.cycles, histogram_digest(st)};
      std::ostringstream msg;
      msg << engine_name(engine) << " actual: {" << got.misr_width << ", "
          << got.instances << ", " << got.defective << ", " << got.po_stream << ", "
          << got.any_stream << ", " << got.misr << ", " << got.sig << ", "
          << got.aliases << ", " << got.escapes << ", " << got.session_runs << ", "
          << got.cycles << ", 0x" << std::hex << got.histogram_digest << "ull}";
      EXPECT_EQ(got.instances, want.instances) << msg.str();
      EXPECT_EQ(got.defective, want.defective) << msg.str();
      EXPECT_EQ(got.po_stream, want.po_stream) << msg.str();
      EXPECT_EQ(got.any_stream, want.any_stream) << msg.str();
      EXPECT_EQ(got.misr, want.misr) << msg.str();
      EXPECT_EQ(got.sig, want.sig) << msg.str();
      EXPECT_EQ(got.aliases, want.aliases) << msg.str();
      EXPECT_EQ(got.escapes, want.escapes) << msg.str();
      EXPECT_EQ(got.session_runs, want.session_runs) << msg.str();
      EXPECT_EQ(got.cycles, want.cycles) << msg.str();
      EXPECT_EQ(got.histogram_digest, want.histogram_digest) << msg.str();
    }
  }
}

TEST(LaneKernelGolden, Dk27Fig4Fleet4096) {
  const ControllerStructure cs = build_for("dk27", 4, Technology::kTwoLevel);
  const FleetRow rows[] = {
      {8, 4096, 4096, 4096, 4096, 4087, 4087, 9, 9, 128, 65536, 0xca1824a86ce3b16dull},
      {16, 4096, 4096, 4096, 4096, 4096, 4096, 0, 0, 128, 65536, 0x5f57a6215b54ab91ull},
      {24, 4096, 4096, 4096, 4096, 4096, 4096, 0, 0, 128, 65536, 0x3331c2cfad5a09bdull},
      {40, 4096, 4096, 4096, 4096, 4096, 4096, 0, 0, 128, 65536, 0x2731cbee17406707ull},
  };
  expect_fleet(cs, 4096, rows);
}

// 1000 = 31 * 32 + 8 instances: the last run fills 8 of its 32 lane pairs,
// so its tail lanes carry no chip instance and must not move a count.
TEST(LaneKernelGolden, Dk27Fig4Fleet1000PartialRun) {
  const ControllerStructure cs = build_for("dk27", 4, Technology::kTwoLevel);
  const FleetRow rows[] = {
      {8, 1000, 1000, 1000, 1000, 999, 999, 1, 1, 32, 16384, 0x8d70d85602a89061ull},
      {16, 1000, 1000, 1000, 1000, 1000, 1000, 0, 0, 32, 16384, 0x158fb22c3a4cdab3ull},
  };
  expect_fleet(cs, 1000, rows);
}

// --- functional pass ------------------------------------------------------------

struct FunctionalRow {
  const char* machine;
  std::size_t cycles;
  std::size_t total, detected;
  std::uint64_t undetected_digest;
};

TEST(LaneKernelGolden, Fig1FunctionalVerdicts) {
  const FunctionalRow rows[] = {
      {"bbara", 16, 304, 212, 0x96597d22cfae1802ull},
      {"bbara", 512, 304, 268, 0xdf5c829e195d722cull},
      {"dk16", 16, 530, 358, 0x5c29c75ac51cfc79ull},
      {"dk16", 512, 530, 423, 0x2db96eb7df307d2cull},
  };
  for (const FunctionalRow& want : rows) {
    const ControllerStructure cs = build_for(want.machine, 1, Technology::kTwoLevel);
    const CoverageResult r = measure_functional_coverage(cs, want.cycles);
    std::ostringstream msg;
    msg << "actual: {\"" << want.machine << "\", " << want.cycles << ", " << r.total
        << ", " << r.detected << ", 0x" << std::hex << fault_digest(r.undetected)
        << "ull}";
    EXPECT_EQ(r.simulated, r.total) << msg.str();
    EXPECT_EQ(r.total, want.total) << msg.str();
    EXPECT_EQ(r.detected, want.detected) << msg.str();
    EXPECT_EQ(fault_digest(r.undetected), want.undetected_digest) << msg.str();
  }
}

}  // namespace
}  // namespace stc
