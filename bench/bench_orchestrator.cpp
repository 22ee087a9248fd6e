// Orchestration throughput (google-benchmark): corpus sweeps on the
// jobs/ work-stealing scheduler with the keyed artifact cache.
//
// Axes and counters:
//   * BM_CorpusSweep_Cold/jobs:N   -- fresh cache per iteration: measures
//     end-to-end sweep throughput (synthesis + campaigns) as the pool
//     widens; counters report jobs/sec, cache hit rate and pool
//     utilization (busy worker-seconds over available worker-seconds).
//   * BM_CorpusSweep_Warm/jobs:N   -- one shared cache, iterations re-run
//     the same job list: every build is a hit, so this isolates the
//     scheduler + campaign cost (the re-queued-job path of a service).
//   * BM_CampaignJob_WarmVsCold    -- a single job with and without a
//     pre-filled cache: the per-job saving the cache buys.
//
// The archived BENCH_orchestrator.json tracks sweep throughput across PRs
// (compare two archives with scripts/bench_diff.py, which renders a
// dedicated scheduler-scaling section from the jobs axis). Results are
// bit-identical at every jobs value by construction; these benches only
// measure time.

#include <benchmark/benchmark.h>

#include "jobs/orchestrator.hpp"

namespace {

using namespace stc;

SweepOptions sweep_options(std::size_t jobs) {
  SweepOptions sw;
  // The cheap half of the paper set: enough heterogeneity for stealing to
  // matter, small enough for a bench iteration.
  sw.machines = {"paper_fig5", "shiftreg", "dk27", "serial_adder", "bbtas"};
  sw.job.bist_cycles = 64;
  sw.job.functional_cycles = 128;
  sw.jobs = jobs;
  return sw;
}

void report(benchmark::State& state, const CorpusReport& rep, double seconds) {
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(rep.jobs_completed) * state.iterations() / seconds);
  state.counters["cache_hit_rate"] = rep.cache.hit_rate();
  state.counters["pool_utilization"] = rep.pool_utilization();
  state.counters["steals"] = static_cast<double>(rep.pool.steals);
}

void BM_CorpusSweep_Cold(benchmark::State& state) {
  const SweepOptions sw = sweep_options(static_cast<std::size_t>(state.range(0)));
  CorpusReport rep;
  double seconds = 0.0;
  for (auto _ : state) {
    JobCache cache;  // cold: every build is a miss
    rep = run_corpus_sweep(sw, cache);
    seconds += rep.wall_seconds;
    benchmark::DoNotOptimize(rep.faults_detected);
  }
  report(state, rep, seconds);
}
BENCHMARK(BM_CorpusSweep_Cold)
    ->ArgName("jobs")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CorpusSweep_Warm(benchmark::State& state) {
  const SweepOptions sw = sweep_options(static_cast<std::size_t>(state.range(0)));
  JobCache cache;  // shared: all iterations after the first are hits
  {
    CorpusReport prime = run_corpus_sweep(sw, cache);  // fill the cache
    benchmark::DoNotOptimize(prime.faults_detected);
  }
  CorpusReport rep;
  double seconds = 0.0;
  for (auto _ : state) {
    rep = run_corpus_sweep(sw, cache);
    seconds += rep.wall_seconds;
    benchmark::DoNotOptimize(rep.faults_detected);
  }
  report(state, rep, seconds);
}
BENCHMARK(BM_CorpusSweep_Warm)
    ->ArgName("jobs")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CampaignJob_Cold(benchmark::State& state) {
  CampaignJobSpec spec;
  spec.machine = "dk27";
  spec.arch = ArchKind::kFig3;
  spec.bist_cycles = 64;
  for (auto _ : state) {
    JobCache cache;
    const CampaignJobResult r = run_campaign_job(spec, cache);
    benchmark::DoNotOptimize(r.coverage.detected);
  }
}
BENCHMARK(BM_CampaignJob_Cold)->Unit(benchmark::kMillisecond);

void BM_CampaignJob_Warm(benchmark::State& state) {
  CampaignJobSpec spec;
  spec.machine = "dk27";
  spec.arch = ArchKind::kFig3;
  spec.bist_cycles = 64;
  JobCache cache;
  benchmark::DoNotOptimize(run_campaign_job(spec, cache).coverage.detected);
  for (auto _ : state) {
    const CampaignJobResult r = run_campaign_job(spec, cache);
    benchmark::DoNotOptimize(r.coverage.detected);
  }
}
BENCHMARK(BM_CampaignJob_Warm)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
