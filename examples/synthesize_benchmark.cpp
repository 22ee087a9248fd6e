// Full synthesis flow on a corpus machine or external KISS2 file:
// OSTR -> realization -> encoding -> logic minimization -> the four
// controller structures -> (optionally) fault simulation.
//
// Run:  ./synthesize_benchmark --machine shiftreg [--faultsim] [--jobs N]
//                              [--tech two_level|multi_level]
//                              [--time-budget-ms N] [--max-nodes N]
//       ./synthesize_benchmark --all [--jobs N] [--repeat N] [--faultsim]
//       ./synthesize_benchmark --kiss path/to/machine.kiss2
//       ./synthesize_benchmark --list
//
// --jobs sets the worker threads (default: hardware concurrency; results
// are identical at any value): of the fault campaigns for one machine, of
// the shared pool under --all.
//
// --all synthesizes the WHOLE corpus (every machine x fig1-fig4 x the
// selected --tech) as CampaignJobs on the jobs/ work-stealing scheduler:
// the keyed artifact cache deduplicates builds (--repeat 2 demonstrates
// all-hit re-runs), and one aggregated corpus report closes the run.
//
// With --faultsim the per-structure report includes campaign wall time,
// the mean per-cycle activity ratio and the (fault, session) pairs the
// campaign skipped outside the sessions' observation cones. With --tech multi_level the
// combinational blocks are algebraically factored (simulation-equivalent)
// and the report shows both the two-level PLA and the factored cost points.
//
// Anytime operation: --time-budget-ms bounds the wall time of the whole
// flow (OSTR, minimization, factoring, fault campaigns), --max-nodes caps
// the OSTR search, and Ctrl-C cancels gracefully. In every case the flow
// finishes with valid, behavior-exact netlists; truncated stages are
// labeled in the report (a second Ctrl-C kills the process).

#include <cstdio>

#include "benchdata/iwls93.hpp"
#include "fsm/kiss.hpp"
#include "jobs/orchestrator.hpp"
#include "synth/report.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"
#include "util/faultpoint.hpp"

namespace {

int run(const stc::Cli& cli) {
  using namespace stc;
  faultpoints::arm_from_env();

  if (cli.has("list")) {
    std::printf("Available corpus machines:\n");
    for (const auto& info : benchmark_catalog())
      std::printf("  %-14s %s%s\n", info.name.c_str(), info.description.c_str(),
                  info.in_table1 ? "  [Table 1]" : "");
    return 0;
  }

  CampaignJobSpec job;
  set_job_flags(job, cli,
                {{"tech", "tech"}, {"cycles", "bist_cycles"}});
  job.with_fault_sim = cli.has("faultsim");
  const std::size_t jobs = cli.get_count("jobs", hardware_threads(), 4096);

  if (cli.has("all")) {
    SweepOptions sw;  // empty machine list = the full corpus
    sw.job = job;
    sw.jobs = jobs;
    sw.repeat = cli.get_count("repeat", 1, 1000);
    sw.ostr_max_nodes = cli.get_count("max-nodes", kJobOstrMaxNodes);
    sw.techs = {job.tech};
    sw.job_budget_ms = static_cast<double>(cli.get_int("time-budget-ms", -1));
    sw.cancel = install_sigint_cancel();

    std::printf("Corpus synthesis sweep: %zu jobs%s\n", sw.jobs,
                sw.job.with_fault_sim ? ", fault simulation on" : "");
    std::printf("%s\n", corpus_row_header().c_str());
    JobCache cache;
    const CorpusReport rep =
        run_corpus_sweep(sw, cache, [](const CampaignJobResult& row) {
          std::printf("%s\n", render_corpus_row(row).c_str());
          std::fflush(stdout);
        });
    std::printf("\n%s\n", render_corpus_summary(rep).c_str());
    // Nonzero exit on any HARD failure; budget-exhausted rows are valid
    // anytime results and keep the sweep green.
    return hard_failures(rep) == 0 ? 0 : 1;
  }

  MealyMachine m;
  try {
    if (cli.has("kiss")) {
      m = load_kiss2_file(cli.get("kiss", ""));
    } else {
      m = load_benchmark(cli.get("machine", "shiftreg"));
    }
  } catch (const Error& e) {
    // Malformed contents are a usage error (run_cli exits 2); a file that
    // cannot be read is not.
    if (e.code() == ErrorCode::kInvalidInput) throw;
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  FlowOptions opts;
  opts.with_fault_sim = job.with_fault_sim;
  opts.ostr.max_nodes = cli.get_count("max-nodes", kJobOstrMaxNodes);
  opts.bist_cycles = job.bist_cycles;
  opts.campaign.num_threads = jobs;
  opts.technology = job.tech;

  // Anytime controls: one whole-flow budget carrying the wall-clock
  // deadline (--time-budget-ms) and SIGINT cancellation. Either one makes
  // the budget non-unlimited, which routes it to every governed stage.
  opts.budget.with_cancel(install_sigint_cancel());
  const long budget_ms = cli.get_int("time-budget-ms", -1);
  if (budget_ms >= 0) opts.budget.with_deadline_ms(static_cast<double>(budget_ms));

  std::printf("Machine: %zu states, %zu inputs, %zu outputs\n\n", m.num_states(),
              m.num_inputs(), m.num_outputs());
  const FlowResult res = run_flow(m, opts);
  std::printf("%s", render_flow_report(m.name(), res).c_str());

  if (!res.verification.ok()) {
    std::fprintf(stderr, "VERIFICATION FAILED: %s\n", res.verification.detail.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return stc::run_cli(argc, argv,
                      {"machine NAME", "kiss FILE", "list", "all", "faultsim",
                       "jobs N", "repeat N", "tech two_level|multi_level",
                       "cycles N", "max-nodes N", "time-budget-ms N"},
                      run);
}
