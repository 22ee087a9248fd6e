// Steady-state allocation accounting for the campaign inner loop. The
// global operator new/delete of the test binary are replaced with counting
// wrappers (this affects every test in the binary, but only adds an atomic
// increment per allocation). The property under test: once a campaign's
// scratch is warm, the cycle loop performs no heap allocation -- so the
// total allocation count of run_fault_campaign is *independent of the
// number of BIST cycles* (and of how many batches reuse the scratch). The
// functional sweep keeps the same property, and QM's covering search
// allocates independently of how many nodes it visits.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "logic/qm.hpp"
#include "netlist/eval64.hpp"
#include "ostr/ostr.hpp"
#include "util/rng.hpp"
#include "engine_names.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stc {
namespace {

ControllerStructure fig1_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

ControllerStructure fig4_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  const OstrResult ostr = solve_ostr(m);
  return build_fig4(m, build_realization(m, ostr.best.pi, ostr.best.tau));
}

std::uint64_t count_campaign_allocs(const ControllerStructure& cs,
                                    std::size_t cycles, CampaignEngine engine,
                                    bool collapse, unsigned lane_words = 1) {
  CampaignOptions opt;
  opt.engine = engine;
  opt.num_threads = 1;  // worker threads allocate their own stacks
  opt.collapse = collapse;
  opt.lane_words = lane_words;
  const std::uint64_t before = g_allocations.load();
  const CampaignResult res =
      run_fault_campaign(cs, SelfTestPlan::two_session(cycles), opt);
  EXPECT_GT(res.raw.total, 0u);
  return g_allocations.load() - before;
}

class CampaignAllocations : public ::testing::TestWithParam<CampaignEngine> {};

TEST_P(CampaignAllocations, IndependentOfCycleCount) {
  const ControllerStructure cs = fig1_for("dk27");
  const CampaignEngine engine = GetParam();
  // collapse off: 78 faults -> 2 batches, so the count also covers scratch
  // reuse across batches (banks reset, masks swapped, resident values
  // re-seeded) -- all without touching the heap.
  const std::uint64_t short_run = count_campaign_allocs(cs, 24, engine, false);
  const std::uint64_t long_run = count_campaign_allocs(cs, 240, engine, false);
  EXPECT_EQ(short_run, long_run)
      << "campaign allocations must not scale with BIST cycles (engine "
      << engine_name(engine) << ")";
}

TEST_P(CampaignAllocations, IndependentOfLaneWords) {
  // Wide scratch allocates *larger* vectors, not more of them: the W-word
  // lane groups live in the same per-worker buffers (sized once), the wide
  // banks/MISR keep one row vector each, and the batch/diff-mask vectors
  // are reserved up front. So the allocation count is invariant in the
  // lane width, on top of being invariant in the cycle count.
  const ControllerStructure cs = fig1_for("dk27");
  const CampaignEngine engine = GetParam();
  const std::uint64_t narrow = count_campaign_allocs(cs, 48, engine, false, 1);
  for (const unsigned lane_words : {4u, 8u}) {
    const std::uint64_t wide =
        count_campaign_allocs(cs, 48, engine, false, lane_words);
    EXPECT_EQ(narrow, wide)
        << "campaign allocations must not scale with lane words (engine "
        << engine_name(engine) << ", W=" << lane_words << ")";
  }
}

TEST_P(CampaignAllocations, IndependentOfCycleCountAcrossSessionCones) {
  // fig4's two sessions observe different registers (R2's next-state
  // block, then R1's), so each runs its own cone program: a worker builds
  // the event state of each cone once and then switches between them
  // across batches and sessions without touching the heap.
  const ControllerStructure cs = fig4_for("dk14");
  const auto cone_of = [&](const std::vector<std::size_t>& bank) {
    std::vector<NetId> roots = cs.po;
    for (const std::size_t k : bank) roots.push_back(cs.nl.gate(cs.nl.dffs()[k]).fanins[0]);
    return fanin_cone(cs.nl, roots);
  };
  ASSERT_NE(cone_of(cs.reg_b), cone_of(cs.reg_a));
  const CampaignEngine engine = GetParam();
  const std::uint64_t short_run = count_campaign_allocs(cs, 24, engine, false);
  const std::uint64_t long_run = count_campaign_allocs(cs, 240, engine, false);
  EXPECT_EQ(short_run, long_run) << engine_name(engine);
}

TEST_P(CampaignAllocations, StableAcrossRepeatedCampaigns) {
  const ControllerStructure cs = fig1_for("shiftreg");
  const CampaignEngine engine = GetParam();
  const std::uint64_t first = count_campaign_allocs(cs, 48, engine, true);
  const std::uint64_t second = count_campaign_allocs(cs, 48, engine, true);
  EXPECT_EQ(first, second) << engine_name(engine);
}

TEST(FunctionalAllocations, IndependentOfCycleCount) {
  // The functional sweep sizes its lane scratch and its undetected list
  // once, so a ten times longer sweep allocates exactly as often.
  const ControllerStructure cs = fig1_for("dk16");
  const std::vector<Fault> faults = enumerate_stuck_faults(cs.nl);
  const auto count = [&](std::size_t cycles) {
    const std::uint64_t before = g_allocations.load();
    const CoverageResult r = measure_functional_coverage(cs, cycles, faults);
    EXPECT_EQ(r.simulated, faults.size());
    return g_allocations.load() - before;
  };
  EXPECT_EQ(count(24), count(240));
}

TEST(QmAllocations, IndependentOfNodeCap) {
  // A random 8-variable table (102 ON minterms) whose branch-and-bound
  // runs into both caps: the covered rows of every depth live in one
  // preallocated stack, so 200 times more nodes allocate exactly as often.
  Rng rng(0x5EED);
  TruthTable tt(8);
  for (Minterm m = 0; m < tt.num_minterms(); ++m) {
    const std::uint64_t u = rng.below(8);
    if (u < 3) {
      tt.set_on(m);
    } else if (u < 4) {
      tt.set_dc(m);
    }
  }
  ASSERT_EQ(tt.on_count(), 102u);
  const auto count = [&](std::size_t max_bb_nodes) {
    QmOptions opt;
    opt.max_bb_nodes = max_bb_nodes;
    const std::uint64_t before = g_allocations.load();
    const Cover c = minimize_qm(tt, opt);
    EXPECT_TRUE(c.implements(tt));
    return g_allocations.load() - before;
  };
  EXPECT_EQ(count(1000), count(200000));
}

INSTANTIATE_TEST_SUITE_P(BothLaneEngines, CampaignAllocations,
                         ::testing::Values(CampaignEngine::kEvent,
                                           CampaignEngine::kFlat),
                         [](const auto& info) {
                           return std::string(
                               engine_name(info.param));
                         });

}  // namespace
}  // namespace stc
