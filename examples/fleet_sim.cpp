// fleet_sim -- deployment-scale BIST simulation: millions of manufactured
// instances of one controller, each running its self-test with its own
// derived LFSR seeds and sampled defects, lane-packed onto the
// bit-parallel campaign engine. Reports the empirical MISR alias
// probability (with a 95% Wilson interval) against the theoretical 2^-k
// bound per signature width, defect escape rates, and the test-length /
// detection tradeoff curve.
//
// Run:  ./fleet_sim [--machine dk27] [--arch fig2|fig3|fig4]
//                   [--instances 1e6] [--widths 8,16,24,40]
//                   [--distribution fault_free|single_uniform|clustered]
//                   [--defect-rate X] [--jobs N] [--lanes 64|256|512]
//                   [--engine event|flat] [--cycles N] [--seed N]
//                   [--budget-ms N] [--tech two_level|multi_level]
//
// Aggregate counts are bit-identical at every --jobs value and shard size
// (each instance's outcome is a pure function of its id); only wall time
// differs. Ctrl-C / --budget-ms truncate gracefully with exact partial
// counts, labeled in the report. Exits 0 with a final "fleet_sim ok:" line
// (the CI smoke greps for it), 1 on failure, 2 on an unknown flag or a
// malformed flag value.

#include <cstdio>
#include <cstdlib>

#include "jobs/orchestrator.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

int run(const stc::Cli& cli) {
  using namespace stc;
  try {
    CampaignJobSpec spec;
    spec.machine = cli.get("machine", "dk27");
    spec.arch = parse_arch(cli.get("arch", "fig4"));
    spec.tech = parse_technology(cli.get("tech", "two_level"));
    spec.engine = parse_campaign_engine(cli.get("engine", "event"));
    spec.lane_words =
        lane_words_from_lanes(static_cast<unsigned>(cli.get_count("lanes", 64, 512)));
    spec.bist_cycles = cli.get_count("cycles", 256, 1'000'000);

    // --instances accepts scientific notation ("1e6") -- fleets are big.
    const double inst = std::strtod(cli.get("instances", "1e6").c_str(), nullptr);
    if (!(inst >= 1.0)) {
      std::fprintf(stderr, "error: --instances must be >= 1\n");
      return 2;
    }
    spec.fleet_instances = static_cast<std::uint64_t>(inst);
    const std::string widths = cli.get("widths", "");
    if (!widths.empty()) {
      spec.fleet_widths.clear();
      for (const std::string& part : split_on(widths, ','))
        spec.fleet_widths.push_back(parse_size(trim(part)));
    }
    spec.fleet_distribution =
        parse_defect_model(cli.get("distribution", "single_uniform"));
    spec.fleet_defect_rate =
        std::strtod(cli.get("defect-rate", "1.0").c_str(), nullptr);
    spec.fleet_seed = cli.get_count("seed", 0xF1EE7);

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
                static_cast<unsigned long long>(
                    r.fleet->instances_simulated()));
    return 0;
  } catch (const std::exception& e) {
    // Everything above that can throw parses a flag; the job itself
    // reports its failures in r.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return stc::run_cli(argc, argv,
                      {"machine NAME", "arch fig2|fig3|fig4", "instances N",
                       "widths W,W,...", "distribution fault_free|single_uniform|clustered",
                       "defect-rate X", "jobs N", "lanes 64|256|512", "engine event|flat",
                       "cycles N", "seed N", "budget-ms N", "tech two_level|multi_level"},
                      run);
}
