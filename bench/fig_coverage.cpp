// Measures the testability / delay claims the paper makes about its
// architecture figures (Figs. 1-4 carry no measured data in the paper, so
// this bench produces the corresponding series from our gate-level
// implementations):
//
//   * drawback (1): flip-flop count of fig2/fig3 vs fig1 and fig4,
//   * drawback (2): critical-path penalty of the transparency mux (fig2),
//   * drawback (3): feedback-line faults undetected by the conventional
//     BIST but covered by the two-session pipeline test,
//   * overall stuck-at coverage per structure, and coverage as a function
//     of test length (the coverage-curve series).
//
// The per-machine flows run as CampaignJobs on the jobs/
// work-stealing scheduler with the keyed artifact cache -- one shared pool
// executes whole flows AND their inner fault batches, rows stream in
// deterministic submission order, and a corpus summary (cache hit rate,
// pool utilization) closes the run.
//
// Options:
//   --all         sweep the WHOLE KISS corpus x fig1-fig4 x
//                 two_level+multi_level in one command (aggregated report)
//   --jobs N      worker threads of the scheduler and of the dk27
//                 coverage series (default: hardware concurrency;
//                 results are identical for any value)
//   --repeat N    enqueue the job list N times (cache-warm re-runs: every
//                 repeat after the first is all cache hits, no recompiles)
//   --cycles N    BIST cycles per session (default 256)
//   --tech T      implementation technology: two_level (default) or
//                 multi_level (ignored under --all, which sweeps both)
//   --time-budget-ms N
//                 anytime wall-clock budget per JOB (the deadline starts
//                 when the job starts). Truncated stages are labeled.
//                 Ctrl-C cancels gracefully: queued jobs drain as skipped
//                 rows and the summary aggregates whatever completed.
//
// A malformed flag value exits 2; a hard job failure exits 1.

#include <cstdio>

#include "benchdata/iwls93.hpp"
#include "jobs/orchestrator.hpp"
#include "synth/flow.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"
#include "util/faultpoint.hpp"

namespace {

using namespace stc;

void coverage_series(const std::shared_ptr<CancelToken>& cancel, long budget_ms,
                     std::size_t threads) {
  // Coverage vs test length for the pipeline structure (series data).
  std::printf("Pipeline (fig4) coverage vs cycles per session, machine dk27 "
              "(%zu threads):\n", threads);
  const MealyMachine m = load_benchmark("dk27");
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure fig4 = build_fig4(m, real);
  CampaignOptions copt;
  copt.num_threads = threads;
  copt.budget.with_cancel(cancel);
  if (budget_ms >= 0)
    copt.budget.with_deadline_ms(static_cast<double>(budget_ms));
  std::printf("  cycles  coverage  activity\n");
  for (std::size_t cycles : {4, 8, 16, 32, 64, 128, 256, 512}) {
    const auto camp = run_fault_campaign(fig4, SelfTestPlan::two_session(cycles), copt);
    std::printf("  %6zu  %6.1f%%  %7.1f%%%s\n", cycles, camp.coverage() * 100.0,
                camp.mean_activity() * 100.0,
                camp.degradation.degraded ? "  [truncated]" : "");
  }
}

int run(const Cli& cli) {
  faultpoints::arm_from_env();

  // The job flags, parsed up front as the spool parses its spec keys: a
  // bad value is one typed error before any synthesis work starts.
  CampaignJobSpec job;
  set_job_flags(job, cli,
                {{"tech", "tech"}, {"cycles", "bist_cycles"}});

  const auto cancel = install_sigint_cancel();
  const long budget_ms = cli.get_int("time-budget-ms", -1);
  const bool all = cli.has("all");

  // Every (machine, arch, tech) is a CampaignJob on one work-stealing
  // pool; --jobs sizes the pool, the artifact cache deduplicates builds,
  // rows stream in submission order.
  SweepOptions sw;
  if (!all) sw.machines = {"paper_fig5", "shiftreg", "tav", "dk27", "serial_adder"};
  sw.techs = all ? std::vector<Technology>{Technology::kTwoLevel,
                                           Technology::kMultiLevel}
                 : std::vector<Technology>{job.tech};
  sw.job = job;
  sw.jobs = cli.get_count("jobs", hardware_threads(), 4096);
  sw.repeat = cli.get_count("repeat", 1, 1000);
  sw.job_budget_ms = static_cast<double>(budget_ms);
  sw.cancel = cancel;

  std::printf("Corpus sweep: %s, %zu jobs%s\n",
              all ? "full KISS corpus x fig1-fig4 x two_level+multi_level"
                  : "paper set x fig1-fig4",
              sw.jobs, sw.repeat > 1 ? " (repeated)" : "");
  std::printf("%s\n", corpus_row_header().c_str());
  JobCache cache;
  const CorpusReport rep =
      run_corpus_sweep(sw, cache, [](const CampaignJobResult& row) {
        std::printf("%s\n", render_corpus_row(row).c_str());
        std::fflush(stdout);
      });
  std::printf("\n%s\n", render_corpus_summary(rep).c_str());
  std::printf("\n");
  // Hard failures (anything but a budget-exhausted anytime row) must
  // fail the bench run -- CI gates on this exit code.
  if (hard_failures(rep) > 0) return 1;

  // The dk27 series stays a focused single-structure study; skip it for
  // the corpus-wide sweep (and once cancellation has been requested).
  if (!all && !(cancel && cancel->requested()))
    coverage_series(cancel, budget_ms, sw.jobs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli(argc, argv,
                 {"all", "jobs N", "repeat N", "cycles N", "tech two_level|multi_level",
                  "time-budget-ms N"},
                 run);
}
