// Workload `service`: a closed batch through the BIST-synthesis daemon.
//
// Each pass creates a fresh spool under the work directory and submits
// 138 jobs (set-up, setup_s): every corpus machine except s1 and tbk x
// fig1..fig4 x {two_level, multi_level} with fault simulation, plus fleet
// jobs on dk27 and dk512 fig4 at 10^5 instances each. The long jobs go
// first, and each pass orders every class of jobs afresh from the seed: a
// drain's time depends on when the long jobs are claimed, and one order
// per run would carry that into wall_s. The timed region is run_daemon in
// drain mode with min(4, nproc) workers and a cold JobCache. Job latency
// runs from the daemon's "claim" log line to its "done" line. The run
// reports its fastest drain (see Reps) and its fastest set-up.
// Checks: every job retires to done/ with a parseable result, and a
// seeded sample of jobs re-run with run_campaign_job must reproduce the
// spooled result field by field.

#include <algorithm>
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "benchdata/iwls93.hpp"
#include "jobs/daemon.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stcbench {

using namespace stc;

namespace {

// 10^5 instances per fleet job, over its four MISR widths. At 10^5 per
// width the dk512 fleet job alone ran 6.7 s of a 6.8 s drain, so the drain
// timed one job on one CPU and its spread was that CPU's.
constexpr std::uint64_t kFleetInstances = 25000;  // per MISR width
constexpr std::size_t kRerunSample = 3;
constexpr std::size_t kSetupReps = 8;  // per drain

/// The batch's jobs in a fixed order (each pass shuffles it).
std::vector<CampaignJobSpec> job_specs(std::uint64_t seed) {
  std::vector<CampaignJobSpec> specs;
  for (const std::string& name : benchmark_names()) {
    if (name == "s1" || name == "tbk") continue;  // fig1 coverage alone: 629 s / 43 s
    for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel})
      for (const ArchKind arch :
           {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3, ArchKind::kFig4}) {
        CampaignJobSpec s;
        s.machine = name;
        s.arch = arch;
        s.tech = tech;
        s.with_fault_sim = true;
        specs.push_back(s);
      }
  }
  for (const char* name : {"dk27", "dk512"}) {
    CampaignJobSpec s;
    s.machine = name;
    s.arch = ArchKind::kFig4;
    s.fleet_instances = kFleetInstances;
    s.fleet_seed = splitmix64(seed ^ 0xF1EE7);
    specs.push_back(s);
  }
  return specs;
}

/// Jobs are submitted by class: fleet jobs, then fig1 jobs (functional
/// coverage, up to about 2 s), then the rest (mostly a few ms). A drain's
/// wall time is the batch's makespan on the daemon's workers, and a long
/// job claimed last adds most of its own length to it.
int submission_class(const CampaignJobSpec& s) {
  if (s.fleet_instances > 0) return 0;
  return s.arch == ArchKind::kFig1 ? 1 : 2;
}

std::string job_label(const CampaignJobSpec& s) {
  return strprintf("%s %s %s%s", s.machine.c_str(), arch_name(s.arch),
                   technology_name(s.tech), s.fleet_instances > 0 ? " fleet" : "");
}

/// The SpoolResult fields the daemon derives from a job outcome, rendered
/// and parsed back so numbers carry the spool's precision.
SpoolResult spooled_fields(const CampaignJobResult& r) {
  SpoolResult s;
  s.id = "rerun";
  s.status = r.failed() ? "failed" : "done";
  if (r.report.coverage) s.coverage = *r.report.coverage;
  s.total_faults = r.report.total_faults;
  s.area_ge = r.report.area_ge;
  if (r.fleet) s.fleet_instances = r.fleet->instances_simulated();
  for (const Degradation& d : r.report.degradations) {
    const std::string line = render_degradation(d);
    if (line.empty()) continue;
    if (!s.degradation.empty()) s.degradation += "; ";
    s.degradation += line;
  }
  return parse_spool_result(render_spool_result(s), "rerun");
}

}  // namespace

void run_service(Context& ctx) {
  Outcome& out = ctx.out;
  const std::vector<CampaignJobSpec> specs = job_specs(ctx.seed);
  const std::size_t n = specs.size();
  const std::string spool_root =
      std::string(kWorkDir) + "/spool-" + std::to_string(ctx.seed);

  // One drain's measurements; the run reports its fastest drain (Reps).
  struct Drain {
    double wall = 0.0;
    std::vector<double> latency, overhead, run;
    TaskPool::Stats pool;
    double pool_wall = 0.0;
    JobCacheStats cache;
  };
  std::vector<Drain> drains;
  Reps reps;
  std::vector<SpoolResult> first_results(n);  // by index into specs
  int next_track_base = 0;
  Clock::time_point traced_from = Clock::now();

  const std::vector<Pass> passes = run_passes(ctx, [&](std::size_t pass) {
    if (ctx.trace.recording() && pass == 1) traced_from = Clock::now();
    const std::string spool = spool_root + "-" + std::to_string(pass);
    // Submission i is specs[order[i]]: the long jobs first (see
    // submission_class), each class in an order drawn from the seed.
    std::vector<std::size_t> order = seeded_order(n, ctx.seed * 1000003u + pass);
    std::stable_sort(order.begin(), order.end(), [&specs](std::size_t a, std::size_t b) {
      return submission_class(specs[a]) < submission_class(specs[b]);
    });

    // Set-up: a fresh spool holding every job. Every submit fsyncs, and
    // fsync latency here varies several-fold from one call to the next,
    // so the set-up is repeated and the drain uses the last spool.
    std::vector<std::string> ids(n);
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      std::filesystem::remove_all(spool);
      Trace::Span span(ctx.trace, "jobs/queue", strprintf("new spool, submit %zu jobs", n));
      JobQueue fresh(spool);
      for (std::size_t i = 0; i < n; ++i) {
        SpoolJob job;
        job.id = strprintf("job%03zu", i);  // fixed width: id order = submission order
        job.spec = specs[order[i]];
        ids[i] = fresh.submit(job);
      }
      reps.add("setup", span.close());
    }
    const JobQueue queue(spool);

    // Timed: drain the spool through the daemon with a cold cache.
    std::map<std::string, Clock::time_point> claimed, retired;
    DaemonOptions opt;
    opt.spool_dir = spool;
    opt.jobs = ctx.threads;
    opt.drain = true;
    opt.log = [&claimed, &retired](const std::string& line) {
      const Clock::time_point now = Clock::now();
      const std::vector<std::string> words = split_ws(line);
      if (words.size() < 2) return;
      if (words[0] == "claim") claimed[words[1]] = now;
      if (words[0] == "done" || words[0] == "failed" || words[0] == "failed-stuck")
        retired[words[1]] = now;
    };
    JobCache cache;
    Trace::Span span(ctx.trace, "jobs/daemon", strprintf("run_daemon drain %zu jobs", n));
    const DaemonReport rep = run_daemon(opt, cache);
    Drain d;
    d.wall = span.close();
    d.pool = rep.pool;
    d.pool_wall = rep.wall_seconds;
    d.cache = rep.cache;
    reps.add("drain", d.wall);
    out.check(rep.jobs_done == n && rep.jobs_failed == 0 && rep.jobs_stuck == 0,
              strprintf("pass %zu: %zu of %zu jobs done, %zu failed, %zu stuck", pass,
                        rep.jobs_done, n, rep.jobs_failed, rep.jobs_stuck));

    // Per-job latency and overhead; job spans go on one track per slot.
    std::vector<Clock::time_point> slot_free;
    for (std::size_t i = 0; i < n; ++i) {
      const CampaignJobSpec& spec = specs[order[i]];
      const std::optional<SpoolResult> r = queue.result(ids[i]);
      const bool timed = claimed.count(ids[i]) && retired.count(ids[i]);
      out.check(r && r->status == "done" && timed,
                strprintf("%s (%s): not retired to done/", ids[i].c_str(),
                          job_label(spec).c_str()));
      if (!r || !timed) continue;
      const Clock::time_point a = claimed[ids[i]], b = retired[ids[i]];
      const double latency = seconds_between(a, b);
      d.latency.push_back(latency);
      d.overhead.push_back(latency - r->seconds);
      d.run.push_back(r->seconds);
      if (pass == 0) first_results[order[i]] = *r;
      if (ctx.trace.recording()) {
        std::size_t slot = 0;
        while (slot < slot_free.size() && slot_free[slot] > a) ++slot;
        if (slot == slot_free.size()) slot_free.push_back(b);
        slot_free[slot] = b;
        ctx.trace.add_span("jobs/orchestrator", ids[i] + " " + job_label(spec),
                           next_track_base + static_cast<int>(slot) + 1, a, b);
      }
    }
    if (ctx.trace.recording()) next_track_base += static_cast<int>(slot_free.size());
    const double wall = d.wall;
    drains.push_back(std::move(d));

    // Structure-level e2e metrics, read back from the cache the daemon
    // filled (every structure was built exactly once in it).
    if (pass == 0) {
      double literals = 0.0, area = 0.0, flipflops = 0.0;
      for (const CampaignJobSpec& s : specs) {
        if (s.fleet_instances > 0) continue;  // same structure as a campaign job
        const auto m = cache.machine(s.machine);
        const auto st = cache.structure(m, s.arch, s.tech, s.minimizer, OstrOptions{}, Budget{});
        literals += static_cast<double>(st->cs.logic_ml ? st->cs.logic_ml->literals
                                                        : st->cs.logic.literals);
        area += st->cs.nl.area_ge();
        if (s.arch == ArchKind::kFig4) flipflops += static_cast<double>(st->cs.nl.num_dffs());
      }
      out.metric("literals", literals, "count");
      out.metric("area_ge", area, "GE");
      out.metric("flipflops", flipflops, "count");
    }
    std::filesystem::remove_all(spool);
    return wall;
  });
  report_trace_overhead(ctx, passes, traced_from, Clock::now());

  const Drain& best = *std::min_element(
      drains.begin(), drains.end(), [](const Drain& a, const Drain& b) { return a.wall < b.wall; });
  out.metric("setup_s", reps.best("setup"), "s");
  out.metric("wall_s", best.wall, "s");
  out.metric("jobs_per_s", static_cast<double>(best.latency.size()) / best.wall, "1/s");
  out.metric("job_latency_p50_s", quantile(best.latency, 0.5), "s");
  out.metric("job_latency_p90_s", quantile(best.latency, 0.9), "s");
  out.metric("job_latency_samples", static_cast<double>(best.latency.size()), "count");
  out.layer("queue.submit_s") = reps.best("setup");
  out.layer("queue.submits") = static_cast<double>(n);
  out.layer("daemon.overhead_p50_s") = quantile(best.overhead, 0.5);
  out.layer("daemon.overhead_p90_s") = quantile(best.overhead, 0.9);
  out.layer("job.run_p50_s") = quantile(best.run, 0.5);
  out.layer("job.run_p90_s") = quantile(best.run, 0.9);
  out.layer("pool.utilization") =
      best.pool_wall > 0.0 && best.pool.workers > 0
          ? best.pool.busy_seconds / (best.pool_wall * static_cast<double>(best.pool.workers))
          : 0.0;
  out.layer("pool.tasks") = static_cast<double>(best.pool.tasks_executed);
  out.layer("pool.steals") = static_cast<double>(best.pool.steals);
  out.layer("cache.hit_rate") = best.cache.hit_rate();
  out.layer("cache.ostr_misses") = static_cast<double>(best.cache.ostr_misses);
  out.layer("cache.structure_misses") = static_cast<double>(best.cache.structure_misses);
  out.layer("cache.warm_misses") = static_cast<double>(best.cache.warm_misses);

  // Re-run a seeded sample of jobs outside the daemon and compare.
  Rng rng(ctx.seed * 2654435761u + 17);
  for (std::size_t k = 0; k < kRerunSample; ++k) {
    const std::size_t i = static_cast<std::size_t>(rng.below(n));
    JobCache cache;
    const SpoolResult again = spooled_fields(run_campaign_job(specs[i], cache));
    const SpoolResult& spooled = first_results[i];
    out.check(again.status == spooled.status && again.coverage == spooled.coverage &&
                  again.total_faults == spooled.total_faults &&
                  again.area_ge == spooled.area_ge &&
                  again.fleet_instances == spooled.fleet_instances &&
                  again.degradation == spooled.degradation,
              strprintf("%s: re-run result differs from the spooled one",
                        job_label(specs[i]).c_str()));
  }
}

}  // namespace stcbench
