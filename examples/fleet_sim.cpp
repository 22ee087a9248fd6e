// fleet_sim -- deployment-scale BIST simulation: millions of manufactured
// instances of one controller, each running its self-test with its own
// derived LFSR seeds and sampled defects, lane-packed onto the
// bit-parallel campaign engine. Reports the empirical MISR alias
// probability (with a 95% Wilson interval) against the theoretical 2^-k
// bound per signature width, defect escape rates, and the test-length /
// detection tradeoff curve.
//
// Run:  ./fleet_sim [--machine dk27] [--arch fig2|fig3|fig4]
//                   [--instances 1000000] [--widths 8,16,24,40]
//                   [--distribution fault_free|single_uniform|clustered]
//                   [--defect-rate X] [--jobs N] [--cycles N] [--seed N]
//                   [--budget-ms N] [--tech two_level|multi_level]
//
// The job flags go through the spool's set_job_field, bounds included:
// counts are whole base-10 integers (--instances in [1, 10^12]).
//
// Aggregate counts are bit-identical at every --jobs value and shard size
// (each instance's outcome is a pure function of its id); only wall time
// differs. Ctrl-C / --budget-ms truncate gracefully with exact partial
// counts, labeled in the report. Exits 0 with a final "fleet_sim ok:" line
// (the CI smoke greps for it), 1 on failure, 2 on an unknown flag or a
// malformed flag value.

#include <algorithm>
#include <cstdio>

#include "jobs/orchestrator.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"

namespace {

int run(const stc::Cli& cli) {
  using namespace stc;
  CampaignJobSpec spec;
  spec.machine = "dk27";
  spec.arch = ArchKind::kFig4;
  spec.fleet_instances = 1'000'000;
  set_job_flags(spec, cli,
                {{"machine", "machine"}, {"arch", "arch"}, {"tech", "tech"},
                 {"cycles", "bist_cycles"},
                 {"instances", "fleet_instances"},
                 {"widths", "fleet_widths"},
                 {"distribution", "fleet_distribution"},
                 {"defect-rate", "fleet_defect_rate"}, {"seed", "fleet_seed"}});
  // 0 instances is an ordinary campaign job in the spool, not a fleet.
  if (spec.fleet_instances == 0)
    throw Error(ErrorCode::kInvalidInput, "a fleet needs at least one instance",
                "flag=--instances; value=0");

  const std::size_t jobs = cli.get_count("jobs", hardware_threads(), 4096);

  Budget budget;
  const long budget_ms = cli.get_int("budget-ms", -1);
  if (budget_ms >= 0) budget.with_deadline_ms(static_cast<double>(budget_ms));
  budget.with_cancel(install_sigint_cancel());

  // Same artifact path as a spooled/orchestrated job: the cache builds
  // machine -> structure -> warm states, the shared pool runs the shards.
  JobCache cache;
  TaskPool pool(std::max<std::size_t>(1, jobs));
  const CampaignJobResult r = run_campaign_job(spec, cache, budget, &pool);

  if (r.failed()) {
    std::fprintf(stderr, "fleet_sim FAILED: %s [%s]\n", r.error.c_str(),
                 error_code_name(r.error_code));
    return 1;
  }
  std::printf("%s %s (%s): %zu FFs, %.1f GE, depth %zu\n",
              spec.machine.c_str(), arch_name(spec.arch),
              r.report.technology.c_str(), r.report.flipflops,
              r.report.area_ge, r.report.depth);
  std::printf("%s", render_fleet_report(*r.fleet).c_str());
  if (r.fleet->degradation.degraded)
    std::printf("fleet_sim truncated (%s) -- partial counts are exact\n",
                r.fleet->degradation.reason.c_str());
  std::printf("fleet_sim ok: %llu instances simulated\n",
              static_cast<unsigned long long>(r.fleet->instances_simulated()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return stc::run_cli(argc, argv,
                      {"machine NAME", "arch fig2|fig3|fig4", "instances N",
                       "widths W,W,...", "distribution fault_free|single_uniform|clustered",
                       "defect-rate X", "jobs N", "cycles N", "seed N", "budget-ms N",
                       "tech two_level|multi_level"},
                      run);
}
