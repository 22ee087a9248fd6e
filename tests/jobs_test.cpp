// Tests for the corpus-scale orchestration layer (src/jobs/): the
// work-stealing TaskPool, the keyed JobCache, and run_corpus_sweep.
//
// The properties that matter:
//   * scheduler: every submitted task runs exactly once, nested groups
//     (a job forking campaign chunks) complete without deadlock;
//   * cache: a warm re-run is bit-identical to the cold run -- same
//     StructureReport numbers, same undetected fault set -- and every
//     cache level reports the hit; fig1-fig3 share one combined block,
//     built once per (machine, minimizer, tech) even under eviction;
//   * sweep: results are bit-identical at every --jobs value AND identical
//     to the direct serial measure_structure path;
//   * cancellation: a mid-sweep cancel drains queued jobs as labeled
//     skipped rows and the partial aggregates stay consistent;
//   * run_chunks: a throwing chunk reaches the caller on every path (inline,
//     private pool, shared pool) while every other chunk still runs;
//   * validate(): scheduler-owned campaigns reject nested thread pools.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "benchdata/iwls93.hpp"
#include "encoding/encoding.hpp"
#include "jobs/orchestrator.hpp"
#include "netlist/export.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace stc {
namespace {

// Machines cheap enough to fault-simulate in a unit test (the corpus minus
// the two big searches, s1 and tbk, whose OSTR/campaigns take minutes).
std::vector<std::string> cheap_machines() {
  std::vector<std::string> out;
  for (const std::string& n : benchmark_names())
    if (n != "s1" && n != "tbk") out.push_back(n);
  return out;
}

// --- TaskPool ---------------------------------------------------------------

TEST(TaskPool, EveryTaskRunsExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> ran(500);
  for (auto& r : ran) r.store(0);
  {
    TaskPool::Group group(pool);
    for (std::size_t i = 0; i < ran.size(); ++i)
      group.run([&ran, i] { ran[i].fetch_add(1); });
    group.wait();
  }
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  const auto st = pool.stats();
  EXPECT_EQ(st.workers, 4u);
  EXPECT_EQ(st.tasks_executed, ran.size());
}

TEST(TaskPool, NestedGroupsCompleteWithoutDeadlock) {
  TaskPool pool(3);
  std::atomic<int> leaf_runs{0};
  TaskPool::Group outer(pool);
  for (int j = 0; j < 16; ++j) {
    outer.run([&] {
      // A job forks its chunks and joins by helping -- this must not
      // deadlock even with every worker inside a nested wait().
      TaskPool::Group inner(pool);
      for (int c = 0; c < 8; ++c) inner.run([&] { leaf_runs.fetch_add(1); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaf_runs.load(), 16 * 8);
}

// --- run_chunks: the one parallel loop and its exception barrier -----------

TEST(RunChunks, RunsEachChunkOnceOnAPool) {
  TaskPool pool(2);
  std::vector<std::atomic<int>> ran(17);
  for (auto& r : ran) r.store(0);
  run_chunks(&pool, ran.size(), [&](std::size_t c) { ran[c].fetch_add(1); });
  for (std::size_t c = 0; c < ran.size(); ++c) EXPECT_EQ(ran[c].load(), 1) << c;
}

/// Eight chunks, chunk 3 throws a typed Error: the caller must see that
/// Error, and every other chunk must still have run exactly once.
void expect_barrier(TaskPool* pool) {
  std::vector<std::atomic<int>> ran(8);
  for (auto& r : ran) r.store(0);
  try {
    run_chunks(pool, ran.size(), [&](std::size_t c) {
      ran[c].fetch_add(1);
      if (c == 3) throw Error(ErrorCode::kIo, "chunk failed", "chunk=3");
    });
    ADD_FAILURE() << "expected the chunk's Error on the caller";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_EQ(e.context(), "chunk=3");
  }
  for (std::size_t c = 0; c < ran.size(); ++c) EXPECT_EQ(ran[c].load(), 1) << c;
}

TEST(RunChunks, InlineLoopRethrowsAfterEveryChunk) { expect_barrier(nullptr); }

TEST(RunChunks, PrivatePoolRethrowsAfterEveryChunk) {
  // The pool a num_threads = 4 campaign, fleet or OSTR search runs on.
  EXPECT_EQ(make_private_pool(1), nullptr);
  const std::unique_ptr<TaskPool> pool = make_private_pool(4);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 3u);
  expect_barrier(pool.get());
}

TEST(RunChunks, SharedPoolRethrowsInsideATaskAndKeepsServing) {
  TaskPool pool(3);
  {
    // Called from inside a pool task, the way a scheduled job shards its
    // campaign: chunks land on the worker's own deque.
    TaskPool::Group group(pool);
    group.run([&pool] { expect_barrier(&pool); });
    group.wait();
  }
  // No worker was lost to the throw: a following group runs normally.
  std::vector<std::atomic<int>> ran(32);
  for (auto& r : ran) r.store(0);
  {
    TaskPool::Group group(pool);
    for (std::size_t i = 0; i < ran.size(); ++i)
      group.run([&ran, i] { ran[i].fetch_add(1); });
    group.wait();
  }
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i].load(), 1) << i;
}

// --- CampaignOptions::validate (scheduler-owned campaigns) ------------------

TEST(CampaignValidate, RejectsNestedPoolUnderScheduler) {
  TaskPool pool(1);
  CampaignOptions opt;
  opt.pool = &pool;
  opt.num_threads = 4;  // nested per-campaign pool: forbidden
  try {
    opt.validate(SelfTestPlan::two_session(16));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    // The message must name the orchestrator flag that sizes the pool.
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("num_threads"), std::string::npos)
        << e.what();
  }
  opt.num_threads = 1;  // scheduler-owned jobs pass num_threads = 1: fine
  EXPECT_NO_THROW(opt.validate(SelfTestPlan::two_session(16)));
}

TEST(CampaignValidate, RejectsMismatchedWarmState) {
  const MealyMachine m = load_benchmark("dk27");
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const ControllerStructure fig3 = build_fig3(enc);
  const ControllerStructure fig2 = build_fig2(enc);
  const SelfTestPlan plan = SelfTestPlan::two_session(16);
  auto warm = make_campaign_warm_state(fig3, plan.output_misr_width, 1);
  CampaignOptions opt;
  opt.lane_words = 1;
  opt.warm = warm.get();
  try {
    run_fault_campaign(fig2, plan, opt);  // warm built for fig3, not fig2
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("warm"), std::string::npos);
  }
  // Matching structure: accepted, and results equal the warm-free path.
  const CampaignResult cold = run_fault_campaign(fig3, plan);
  const CampaignResult hot = run_fault_campaign(fig3, plan, opt);
  EXPECT_EQ(cold.raw.total, hot.raw.total);
  EXPECT_EQ(cold.raw.detected, hot.raw.detected);
  EXPECT_EQ(cold.raw.undetected, hot.raw.undetected);
  EXPECT_GE(campaign_warm_reuses(*warm) + campaign_warm_builds(*warm), 1u);
}

// --- JobCache: cold vs warm determinism -------------------------------------

void expect_identical(const CampaignJobResult& a, const CampaignJobResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.error, b.error);
  EXPECT_EQ(a.report.kind, b.report.kind);
  EXPECT_EQ(a.report.technology, b.report.technology);
  EXPECT_EQ(a.report.flipflops, b.report.flipflops);
  EXPECT_EQ(a.report.area_ge, b.report.area_ge);  // exact: same netlist
  EXPECT_EQ(a.report.depth, b.report.depth);
  EXPECT_EQ(a.report.logic.literals, b.report.logic.literals);
  EXPECT_EQ(a.report.logic.cubes, b.report.logic.cubes);
  EXPECT_EQ(a.report.logic_ml.has_value(), b.report.logic_ml.has_value());
  if (a.report.logic_ml)
    EXPECT_EQ(a.report.logic_ml->literals, b.report.logic_ml->literals);
  EXPECT_EQ(a.report.factored_nodes, b.report.factored_nodes);
  EXPECT_EQ(a.report.total_faults, b.report.total_faults);
  EXPECT_EQ(a.report.coverage, b.report.coverage);  // exact double
  EXPECT_EQ(a.report.feedback_coverage, b.report.feedback_coverage);
  // Bit-identical fault verdicts, not just the same ratio:
  EXPECT_EQ(a.coverage.total, b.coverage.total);
  EXPECT_EQ(a.coverage.detected, b.coverage.detected);
  EXPECT_EQ(a.coverage.simulated, b.coverage.simulated);
  EXPECT_EQ(a.coverage.undetected, b.coverage.undetected);
}

TEST(JobCache, WarmRerunIsBitIdenticalAndAllHits) {
  JobCache cache;
  std::vector<CampaignJobSpec> specs;
  // Corpus-wide over the OSTR-free architectures; fig4 (which pays the
  // OSTR search) on a small subset.
  for (const std::string& name : cheap_machines()) {
    for (ArchKind arch : {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3}) {
      CampaignJobSpec s;
      s.machine = name;
      s.arch = arch;
      s.bist_cycles = 64;
      s.functional_cycles = 128;
      specs.push_back(s);
    }
  }
  for (const std::string& name : {"paper_fig5", "dk27", "serial_adder"}) {
    CampaignJobSpec s;
    s.machine = name;
    s.arch = ArchKind::kFig4;
    s.bist_cycles = 64;
    specs.push_back(s);
  }

  std::vector<CampaignJobResult> cold, warm;
  for (const CampaignJobSpec& s : specs) cold.push_back(run_campaign_job(s, cache));
  const JobCacheStats mid = cache.stats();
  for (const CampaignJobSpec& s : specs) warm.push_back(run_campaign_job(s, cache));
  const JobCacheStats after = cache.stats();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(cold[i], warm[i],
                     specs[i].machine + "/" + arch_name(specs[i].arch));
    EXPECT_TRUE(warm[i].machine_cached);
    EXPECT_TRUE(warm[i].structure_cached);
    if (specs[i].arch != ArchKind::kFig1) EXPECT_TRUE(warm[i].warm_cached);
  }
  // The warm pass added exactly one hit per cache lookup and zero misses.
  EXPECT_EQ(after.machine_misses, mid.machine_misses);
  EXPECT_EQ(after.structure_misses, mid.structure_misses);
  EXPECT_EQ(after.warm_misses, mid.warm_misses);
  EXPECT_EQ(after.ostr_misses, mid.ostr_misses);
  EXPECT_EQ(after.machine_hits, mid.machine_hits + specs.size());
  EXPECT_EQ(after.structure_hits, mid.structure_hits + specs.size());
  EXPECT_GT(after.hits(), 0u);
  EXPECT_GT(after.hit_rate(), 0.0);
  // Warm campaigns lease scratch from the free-list: reuses were counted.
  EXPECT_GT(after.scratch_reuses, 0u);
}

TEST(JobCache, StructureKeyIsContentNotName) {
  JobCache cache;
  // Two names, identical machine content: one structure build, one hit.
  const auto loader = [](const std::string&) { return load_benchmark("dk27"); };
  auto a = cache.machine("alias_a", loader);
  auto b = cache.machine("alias_b", loader);
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  OstrOptions oopt;
  bool hit_a = true, hit_b = false;
  cache.structure(a, ArchKind::kFig2, Technology::kTwoLevel,
                  MinimizerKind::kAuto, oopt, Budget(), &hit_a);
  cache.structure(b, ArchKind::kFig2, Technology::kTwoLevel,
                  MinimizerKind::kAuto, oopt, Budget(), &hit_b);
  EXPECT_FALSE(hit_a);
  EXPECT_TRUE(hit_b);  // same fingerprint -> same entry, no rebuild
}

// --- JobCache: the shared block level ---------------------------------------

std::shared_ptr<JobCache::StructureEntry> fig_structure(
    JobCache& cache, const std::shared_ptr<JobCache::MachineEntry>& m, ArchKind arch,
    Technology tech) {
  return cache.structure(m, arch, tech, MinimizerKind::kAuto, OstrOptions{}, Budget());
}

TEST(JobCacheBlock, Fig1ToFig3ShareOneBlock) {
  for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel}) {
    JobCache cache;
    auto m = cache.machine("dk14");
    for (ArchKind arch : {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3})
      fig_structure(cache, m, arch, tech);
    const JobCacheStats st = cache.stats();
    EXPECT_EQ(st.block_misses, 1u) << technology_name(tech);
    EXPECT_EQ(st.block_hits, 2u) << technology_name(tech);
    EXPECT_EQ(st.structure_misses, 3u);
    // Both levels count in the totals.
    EXPECT_EQ(st.hits(), st.machine_hits + st.block_hits);
    EXPECT_EQ(st.misses(), st.machine_misses + st.block_misses + st.structure_misses);
  }
}

TEST(JobCacheBlock, ConcurrentRequestsBuildOnce) {
  JobCache cache;
  auto m = cache.machine("tav");
  std::vector<const MinimizedBlock*> got(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      got[t] = cache.block(*m, MinimizerKind::kAuto, Technology::kMultiLevel, Budget()).get();
    });
  for (auto& th : threads) th.join();
  for (const MinimizedBlock* b : got) EXPECT_EQ(b, got[0]);
  const JobCacheStats st = cache.stats();
  EXPECT_EQ(st.block_misses, 1u);
  EXPECT_EQ(st.block_hits, 3u);
  // Another (minimizer, tech) is a separate block.
  EXPECT_NE(cache.block(*m, MinimizerKind::kAuto, Technology::kTwoLevel, Budget()).get(), got[0]);
  EXPECT_EQ(cache.stats().block_misses, 2u);
}

TEST(JobCacheBlock, CachedStructuresEqualUncachedBuilds) {
  JobCache cache;
  auto m = cache.machine("dk14");
  for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel}) {
    const ControllerStructure alone[] = {
        build_fig1(m->encoded, MinimizerKind::kAuto, tech),
        build_fig2(m->encoded, MinimizerKind::kAuto, tech),
        build_fig3(m->encoded, MinimizerKind::kAuto, tech)};
    const ArchKind archs[] = {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3};
    for (std::size_t k = 0; k < 3; ++k) {
      const auto s = fig_structure(cache, m, archs[k], tech);
      SCOPED_TRACE(alone[k].kind + " " + technology_name(tech));
      EXPECT_EQ(s->cs.kind, alone[k].kind);
      EXPECT_EQ(s->cs.tech, alone[k].tech);
      EXPECT_EQ(write_verilog(s->cs.nl, "c"), write_verilog(alone[k].nl, "c"));
      EXPECT_EQ(s->cs.logic.literals, alone[k].logic.literals);
      EXPECT_EQ(s->cs.logic.gate_equivalents, alone[k].logic.gate_equivalents);
      ASSERT_EQ(s->cs.logic_ml.has_value(), alone[k].logic_ml.has_value());
      if (alone[k].logic_ml)
        EXPECT_EQ(s->cs.logic_ml->literals, alone[k].logic_ml->literals);
      EXPECT_EQ(s->cs.factored_nodes, alone[k].factored_nodes);
      EXPECT_EQ(s->cs.degradations.size(), alone[k].degradations.size());
    }
  }
}

TEST(JobCacheBlock, EvictedStructuresRebuildFromTheKeptBlock) {
  JobCache cache(1);  // room for one structure: every new one evicts
  auto m = cache.machine("dk14");
  const std::string first = write_verilog(
      fig_structure(cache, m, ArchKind::kFig1, Technology::kMultiLevel)->cs.nl, "c");
  for (int round = 0; round < 2; ++round)
    for (ArchKind arch : {ArchKind::kFig2, ArchKind::kFig3, ArchKind::kFig1})
      fig_structure(cache, m, arch, Technology::kMultiLevel);
  const std::string again = write_verilog(
      fig_structure(cache, m, ArchKind::kFig1, Technology::kMultiLevel)->cs.nl, "c");
  EXPECT_EQ(again, first);
  const JobCacheStats st = cache.stats();
  EXPECT_GT(st.structure_evictions, 0u);
  // Eight requests: each new figure evicted the last, so only the final
  // repeat of fig1 hit -- yet the block was built once.
  EXPECT_EQ(st.structure_misses, 7u);
  EXPECT_EQ(st.structure_hits, 1u);
  EXPECT_EQ(st.block_misses, 1u);
  EXPECT_EQ(st.block_hits, 6u);
}

// --- JobCache: hit accounting and the fig4 OSTR label -----------------------

CampaignJobSpec synthesis_job(const std::string& machine, ArchKind arch, Technology tech) {
  CampaignJobSpec s;
  s.machine = machine;
  s.arch = arch;
  s.tech = tech;
  s.with_fault_sim = false;
  return s;
}

TEST(JobCache, RetryAfterAnInjectedBuildFailureCountsAMiss) {
  const CampaignJobSpec spec = synthesis_job("dk27", ArchKind::kFig2, Technology::kTwoLevel);
  for (const std::string point : {"cache.machine.build", "cache.structure.build"}) {
    SCOPED_TRACE(point);
    faultpoints::reset();
    faultpoints::arm(point, FaultSpec{});  // the first build fails once
    JobCache cache;
    const CampaignJobResult failed = run_campaign_job(spec, cache);
    EXPECT_TRUE(failed.failed());
    EXPECT_EQ(failed.error_code, ErrorCode::kIo);
    const CampaignJobResult retry = run_campaign_job(spec, cache);
    ASSERT_FALSE(retry.failed()) << retry.error;
    // The retry built what the failure left unbuilt: a miss, not a hit.
    const JobCacheStats st = cache.stats();
    if (point == "cache.machine.build") {
      EXPECT_FALSE(retry.machine_cached);
      EXPECT_EQ(st.machine_hits, 0u);
      EXPECT_EQ(st.machine_misses, 2u);
    } else {
      EXPECT_TRUE(retry.machine_cached);
      EXPECT_FALSE(retry.structure_cached);
      EXPECT_EQ(st.structure_hits, 0u);
      EXPECT_EQ(st.structure_misses, 2u);
    }
  }
  faultpoints::reset();
}

TEST(JobCache, Fig4CarriesTheOstrTruncationLabel) {
  const CampaignJobSpec spec = synthesis_job("dk16", ArchKind::kFig4, Technology::kMultiLevel);
  // The job node cap truncates dk16's search: fig4 says so first.
  JobCache capped;
  const CampaignJobResult r = run_campaign_job(spec, capped);
  ASSERT_FALSE(r.failed()) << r.error;
  ASSERT_FALSE(r.report.degradations.empty());
  EXPECT_EQ(r.report.degradations.front().stage, "ostr");
  EXPECT_EQ(r.report.degradations.front().reason, "work-allowance");
  // An expired deadline cuts the search first, then the fig4 logic.
  JobCache cut;
  const CampaignJobResult d = run_campaign_job(spec, cut, Budget::deadline_ms(0));
  ASSERT_FALSE(d.failed()) << d.error;
  ASSERT_GE(d.report.degradations.size(), 2u);
  EXPECT_EQ(d.report.degradations.front().stage, "ostr");
  EXPECT_EQ(d.report.degradations.front().reason, "deadline");
  // run_flow reports the same label on its fig4.
  FlowOptions opts;
  opts.ostr.max_nodes = kJobOstrMaxNodes;
  const FlowResult flow = run_flow(load_benchmark("dk16"), opts);
  ASSERT_FALSE(flow.fig4.degradations.empty());
  EXPECT_EQ(flow.fig4.degradations.front().detail, flow.ostr.degradation.detail);
}

// --- JobCache: budget-bound artifacts stay with their budget ----------------

void expect_same_report(const StructureReport& a, const StructureReport& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.technology, b.technology);
  EXPECT_EQ(a.flipflops, b.flipflops);
  EXPECT_EQ(a.area_ge, b.area_ge);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.logic.cubes, b.logic.cubes);
  EXPECT_EQ(a.logic.literals, b.logic.literals);
  ASSERT_EQ(a.logic_ml.has_value(), b.logic_ml.has_value());
  if (a.logic_ml) EXPECT_EQ(a.logic_ml->literals, b.logic_ml->literals);
  EXPECT_EQ(a.factored_nodes, b.factored_nodes);
  ASSERT_EQ(a.degradations.size(), b.degradations.size());
  for (std::size_t k = 0; k < a.degradations.size(); ++k) {
    EXPECT_EQ(a.degradations[k].stage, b.degradations[k].stage);
    EXPECT_EQ(a.degradations[k].reason, b.degradations[k].reason);
    EXPECT_EQ(a.degradations[k].detail, b.degradations[k].detail);
  }
}

TEST(JobCachePublish, ExpiredDeadlineJobLeavesNothingForAnUnbudgetedJob) {
  for (const CampaignJobSpec& spec :
       {synthesis_job("bbara", ArchKind::kFig2, Technology::kMultiLevel),
        synthesis_job("dk16", ArchKind::kFig4, Technology::kMultiLevel)}) {
    SCOPED_TRACE(spec.machine + "/" + arch_name(spec.arch));
    JobCache shared, fresh;
    const CampaignJobResult cut = run_campaign_job(spec, shared, Budget::deadline_ms(0));
    ASSERT_FALSE(cut.failed()) << cut.error;
    ASSERT_FALSE(cut.report.degradations.empty());
    const CampaignJobResult after = run_campaign_job(spec, shared);
    const CampaignJobResult alone = run_campaign_job(spec, fresh);
    ASSERT_FALSE(after.failed()) << after.error;
    EXPECT_FALSE(after.structure_cached);
    expect_same_report(after.report, alone.report);
  }
}

TEST(JobCachePublish, OneBudgetSharesATruncatedBlock) {
  JobCache cache;
  auto m = cache.machine("bbara");
  const auto lookup = [&](ArchKind arch, const Budget& budget) {
    bool hit = false;
    cache.structure(m, arch, Technology::kMultiLevel, MinimizerKind::kAuto, OstrOptions{},
                    budget, &hit);
    return hit;
  };
  // One budget copy (run_flow's case): one truncated block for figs. 1-3,
  // and its structures are served again under that budget only.
  const Budget expired = Budget::deadline_ms(0);
  for (ArchKind arch : {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3})
    EXPECT_FALSE(lookup(arch, expired));
  EXPECT_EQ(cache.stats().block_misses, 1u);
  EXPECT_EQ(cache.stats().block_hits, 2u);
  EXPECT_TRUE(lookup(ArchKind::kFig2, expired));
  EXPECT_FALSE(lookup(ArchKind::kFig2, Budget::deadline_ms(0)));

  // Distinct expired budgets build the block each time.
  const std::size_t before = cache.stats().block_misses;
  for (int k = 0; k < 3; ++k) {
    const auto b = cache.block(*m, MinimizerKind::kAuto, Technology::kMultiLevel,
                               Budget::deadline_ms(0));
    ASSERT_FALSE(b->degradations.empty());
    EXPECT_EQ(b->degradations.front().reason, "deadline");
  }
  EXPECT_EQ(cache.stats().block_misses, before + 3);

  // An unbudgeted lookup builds the complete block, which then serves
  // every caller, whatever its budget.
  const auto full = cache.block(*m, MinimizerKind::kAuto, Technology::kMultiLevel, Budget());
  EXPECT_TRUE(full->degradations.empty());
  EXPECT_EQ(cache.stats().block_misses, before + 4);
  const std::size_t hits = cache.stats().block_hits;
  EXPECT_EQ(cache.block(*m, MinimizerKind::kAuto, Technology::kMultiLevel, Budget()), full);
  EXPECT_EQ(cache.block(*m, MinimizerKind::kAuto, Technology::kMultiLevel, expired), full);
  EXPECT_EQ(cache.stats().block_hits, hits + 2);
  EXPECT_EQ(cache.stats().block_misses, before + 4);
}

TEST(JobCachePublish, ConcurrentDistinctBudgetsOnOneKey) {
  JobCache cache(4);
  auto m = cache.machine("dk14");
  constexpr std::size_t kThreads = 4;
  std::vector<std::shared_ptr<JobCache::StructureEntry>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Distinct allowances: distinct tags, so no thread serves another.
      const Budget budget = Budget::work_limit(t);
      got[t] = cache.structure(m, ArchKind::kFig2, Technology::kMultiLevel,
                               MinimizerKind::kAuto, OstrOptions{}, budget);
      bool hit = true;
      cache.warm(got[t], 8, &hit);
      EXPECT_FALSE(hit);
    });
  for (auto& th : threads) th.join();
  for (const auto& s : got) {
    EXPECT_TRUE(s->tagged);
    EXPECT_GT(s->cs.nl.area_ge(), 0.0);
  }
  const JobCacheStats st = cache.stats();
  EXPECT_EQ(st.structure_misses, kThreads);
  EXPECT_EQ(st.structure_hits, 0u);
  EXPECT_EQ(st.block_misses, kThreads);
  EXPECT_EQ(st.warm_misses, kThreads);
  EXPECT_EQ(st.warm_hits, 0u);
}

// --- Corpus sweep: determinism and serial equivalence -----------------------

SweepOptions small_sweep(std::size_t jobs) {
  SweepOptions sw;
  sw.machines = {"paper_fig5", "shiftreg", "tav", "dk27", "serial_adder"};
  sw.job.bist_cycles = 64;
  sw.job.functional_cycles = 128;
  sw.jobs = jobs;
  return sw;
}

TEST(CorpusSweep, ResultsIdenticalAtEveryJobCount) {
  JobCache c1, c4, c8;
  const CorpusReport r1 = run_corpus_sweep(small_sweep(1), c1);
  const CorpusReport r4 = run_corpus_sweep(small_sweep(4), c4);
  const CorpusReport r8 = run_corpus_sweep(small_sweep(8), c8);
  ASSERT_EQ(r1.rows.size(), r4.rows.size());
  ASSERT_EQ(r1.rows.size(), r8.rows.size());
  for (std::size_t i = 0; i < r1.rows.size(); ++i) {
    // Same submission order at every width (ordered retirement)...
    EXPECT_EQ(r1.rows[i].spec.machine, r4.rows[i].spec.machine);
    EXPECT_EQ(arch_name(r1.rows[i].spec.arch), arch_name(r4.rows[i].spec.arch));
    // ...and bit-identical results.
    const std::string label = r1.rows[i].spec.machine + "/" +
                              arch_name(r1.rows[i].spec.arch);
    expect_identical(r1.rows[i], r4.rows[i], label + " jobs1-vs-4");
    expect_identical(r1.rows[i], r8.rows[i], label + " jobs1-vs-8");
  }
  EXPECT_EQ(r1.jobs_completed, r1.jobs_total);
  EXPECT_EQ(r4.faults_detected, r1.faults_detected);
  EXPECT_EQ(r8.faults_detected, r1.faults_detected);
  EXPECT_EQ(r4.area_ge, r1.area_ge);
}

TEST(CorpusSweep, MatchesDirectSerialMeasureStructure) {
  JobCache cache;
  const SweepOptions sw = small_sweep(4);
  const CorpusReport rep = run_corpus_sweep(sw, cache);
  for (const CampaignJobResult& row : rep.rows) {
    if (row.spec.arch != ArchKind::kFig2 && row.spec.arch != ArchKind::kFig3)
      continue;  // fig1/fig4 paths exercised above; keep the test fast
    const MealyMachine m = load_benchmark(row.spec.machine);
    const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
    const ControllerStructure cs = row.spec.arch == ArchKind::kFig2
                                       ? build_fig2(enc)
                                       : build_fig3(enc);
    FlowOptions fopt;
    fopt.with_fault_sim = true;
    fopt.bist_cycles = sw.job.bist_cycles;
    fopt.functional_cycles = sw.job.functional_cycles;
    CoverageResult cov;
    const StructureReport ref = measure_structure(cs, fopt, &cov);
    SCOPED_TRACE(row.spec.machine + "/" + arch_name(row.spec.arch));
    EXPECT_EQ(ref.area_ge, row.report.area_ge);
    EXPECT_EQ(ref.total_faults, row.report.total_faults);
    EXPECT_EQ(ref.coverage, row.report.coverage);
    EXPECT_EQ(cov.undetected, row.coverage.undetected);
  }
}

TEST(CorpusSweep, JobRowEqualsMeasureStructureAtDefaultOptions) {
  // No job names a lane width: run_campaign_job, its cached warm state
  // included, runs at CampaignOptions' default width, so even the
  // width-dependent activity equals a default measure_structure's.
  JobCache cache;
  for (ArchKind arch : {ArchKind::kFig2, ArchKind::kFig3, ArchKind::kFig4}) {
    CampaignJobSpec spec;
    spec.machine = "bbara";
    spec.arch = arch;
    const CampaignJobResult row = run_campaign_job(spec, cache);
    ASSERT_TRUE(row.error.empty()) << row.error;
    OstrOptions ostr;
    ostr.max_nodes = kJobOstrMaxNodes;
    const auto s = cache.structure(cache.machine(spec.machine), arch, spec.tech,
                                   spec.minimizer, ostr, Budget());
    FlowOptions fopt;
    fopt.with_fault_sim = true;
    fopt.bist_cycles = spec.bist_cycles;
    fopt.functional_cycles = spec.functional_cycles;
    CoverageResult cov;
    const StructureReport ref = measure_structure(s->cs, fopt, &cov);
    SCOPED_TRACE(arch_name(arch));
    ASSERT_TRUE(ref.activity.has_value());
    EXPECT_EQ(ref.coverage, row.report.coverage);
    EXPECT_EQ(ref.activity, row.report.activity);
    EXPECT_EQ(cov.undetected, row.coverage.undetected);

    // The activity does tell widths apart: at 64 lanes it differs.
    fopt.campaign.lane_words = 1;
    EXPECT_NE(measure_structure(s->cs, fopt).activity, row.report.activity);
  }
}

TEST(CorpusSweep, RowOrderIsMachineMajorThenTechThenArch) {
  SweepOptions sw;
  sw.machines = {"a", "b"};
  sw.techs = {Technology::kTwoLevel, Technology::kMultiLevel};
  sw.archs = {ArchKind::kFig1, ArchKind::kFig2};
  sw.repeat = 2;
  const auto specs = expand_sweep(sw);
  ASSERT_EQ(specs.size(), 2u * 2u * 2u * 2u);
  EXPECT_EQ(specs[0].machine, "a");
  EXPECT_EQ(specs[0].tech, Technology::kTwoLevel);
  EXPECT_EQ(arch_name(specs[0].arch), std::string("fig1"));
  EXPECT_EQ(arch_name(specs[1].arch), std::string("fig2"));
  EXPECT_EQ(specs[2].tech, Technology::kMultiLevel);
  EXPECT_EQ(specs[4].machine, "b");
  EXPECT_EQ(specs[8].machine, "a");  // second repeat restarts the list
}

TEST(CorpusSweep, ExpandCopiesTheJobTemplate) {
  SweepOptions sw;
  sw.machines = {"a"};
  sw.archs = {ArchKind::kFig4};
  sw.job.machine = "ignored";
  sw.job.functional_cycles = 99;
  sw.job.bist_cycles = 77;
  sw.job.fleet_instances = 9;
  sw.job.fleet_widths = {12};
  const auto specs = expand_sweep(sw);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].machine, "a");  // machine, arch, tech come from the axes
  EXPECT_EQ(arch_name(specs[0].arch), std::string("fig4"));
  EXPECT_EQ(specs[0].functional_cycles, 99u);  // everything else from the template
  EXPECT_EQ(specs[0].bist_cycles, 77u);
  EXPECT_EQ(specs[0].fleet_instances, 9u);
  EXPECT_EQ(specs[0].fleet_widths, std::vector<std::size_t>{12});
}

// --- Cancellation -----------------------------------------------------------

TEST(CorpusSweep, PreCancelledSweepDrainsToSkippedRows) {
  auto cancel = std::make_shared<CancelToken>();
  cancel->request();
  SweepOptions sw = small_sweep(4);
  sw.cancel = cancel;
  JobCache cache;
  const CorpusReport rep = run_corpus_sweep(sw, cache);
  EXPECT_TRUE(rep.cancelled);
  EXPECT_EQ(rep.jobs_skipped, rep.jobs_total);
  EXPECT_EQ(rep.jobs_completed, 0u);
  EXPECT_EQ(rep.total_faults, 0u);
  for (const auto& row : rep.rows) EXPECT_TRUE(row.skipped);
}

TEST(CorpusSweep, MidSweepCancelDrainsToValidPartialAggregates) {
  auto cancel = std::make_shared<CancelToken>();
  SweepOptions sw = small_sweep(2);
  sw.cancel = cancel;
  JobCache cache;
  std::size_t rows_seen = 0;
  std::size_t streamed = 0;
  const CorpusReport rep =
      run_corpus_sweep(sw, cache, [&](const CampaignJobResult& row) {
        (void)row;
        ++streamed;
        if (++rows_seen == 3) cancel->request();  // cancel mid-flight
      });
  EXPECT_TRUE(rep.cancelled);
  EXPECT_EQ(streamed, rep.jobs_total);  // every row retired, none dropped
  EXPECT_EQ(rep.jobs_completed + rep.jobs_skipped + rep.jobs_failed,
            rep.jobs_total);
  EXPECT_GE(rep.jobs_completed, 3u);  // the rows seen before the cancel
  EXPECT_EQ(rep.jobs_failed, 0u);     // cancellation is NOT an error
  // Aggregates cover exactly the completed rows.
  std::size_t detected = 0;
  for (const auto& row : rep.rows)
    if (!row.skipped && row.error.empty()) detected += row.coverage.detected;
  EXPECT_EQ(rep.faults_detected, detected);
}

}  // namespace
}  // namespace stc
