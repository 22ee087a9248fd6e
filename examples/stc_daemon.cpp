// stcd -- the durable BIST-synthesis daemon over a file-backed job spool.
//
// Run:  ./stc_daemon serve  <spool-dir> [--jobs N] [--budget-ms MS]
//                           [--drain] [--cache-max-entries N]
//                           [--max-attempts N] [--watchdog-grace X]
//                           [--watchdog-kill-grace X] [--quiet]
//       ./stc_daemon submit <spool-dir> --machine NAME [--arch fig1..fig4]
//                           [--tech two_level|multi_level] [--cycles N]
//                           [--minimizer auto|qm|espresso]
//                           [--no-faultsim] [--budget-ms MS] [--count N]
//                           [--fleet-instances N] [--fleet-widths 8,16,24,40]
//                           [--distribution fault_free|single_uniform|clustered]
//                           [--defect-rate X] [--fleet-seed N]
//       ./stc_daemon status <spool-dir>
//
// submit's job flags go through the spool's set_job_field, bounds included:
// counts are whole base-10 integers, and a bad value exits 2 unsubmitted.
// --budget-ms takes fractional milliseconds (as the spool's budget_ms
// does) on serve and submit alike; a negative or missing value exits 2.
//
// serve claims jobs from <spool-dir>/pending, runs them on one persistent
// pool + artifact cache, and retires them into done/ or failed/ with a
// result record next to each job file. SIGINT/SIGTERM drains gracefully
// (in-flight jobs are cancelled and requeued or retired; a second signal
// kills). Startup always runs crash recovery first, so a daemon that was
// SIGKILLed mid-sweep resumes with every job in a well-defined state and
// nothing run twice. --drain exits once the spool is empty (the CI smoke
// and batch mode); without it the daemon waits for more submissions.
//
// STC_FAULTPOINTS=name@N[xC][!crash|~MS],... arms fault-injection points
// (util/faultpoint) in the child -- the crash-recovery tests drive serve
// through injected torn writes, rename crashes, and wedged jobs.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "benchdata/iwls93.hpp"
#include "jobs/daemon.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace {

const char kOperands[] = "serve|submit|status <spool-dir>";

/// Flags of serve and submit (status takes none).
const std::vector<std::string> kFlags = {
    "jobs N", "budget-ms MS", "drain", "cache-max-entries N", "max-attempts N",
    "watchdog-grace X", "watchdog-kill-grace X", "max-recoveries N", "quiet",
    "machine NAME", "arch fig1..fig4", "tech two_level|multi_level",
    "cycles N", "functional-cycles N",
    "minimizer auto|qm|espresso", "no-faultsim", "count N", "fleet-instances N",
    "fleet-widths W,W,...", "distribution fault_free|single_uniform|clustered",
    "defect-rate X", "fleet-seed N"};

/// Value of `--flag` as a finite number (fractions allowed), or `fallback`
/// when absent; anything else throws Error(kInvalidInput) naming the flag.
double get_number(const stc::Cli& cli, const std::string& flag, double fallback) {
  if (!cli.has(flag)) return fallback;
  const std::string text = cli.get(flag, "");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v))
    throw stc::Error(stc::ErrorCode::kInvalidInput, "expected a finite number",
                     "flag=--" + flag + "; value=" + text);
  return v;
}

/// --budget-ms in milliseconds, fractions allowed as in the spool's
/// budget_ms; -1 (no budget) when absent. A negative value throws
/// Error(kInvalidInput) naming the flag.
double get_budget_ms(const stc::Cli& cli) {
  const double ms = get_number(cli, "budget-ms", -1.0);
  if (cli.has("budget-ms") && ms < 0.0)
    throw stc::Error(stc::ErrorCode::kInvalidInput, "expected a budget >= 0 ms",
                     "flag=--budget-ms; value=" + cli.get("budget-ms", ""));
  return ms;
}

int cmd_serve(const stc::Cli& cli, const std::string& spool) {
  using namespace stc;
  DaemonOptions opt;
  opt.spool_dir = spool;
  opt.jobs = cli.get_count("jobs", 1, 4096);
  opt.default_budget_ms = get_budget_ms(cli);
  opt.drain = cli.has("drain");
  opt.cache_max_entries = cli.get_count("cache-max-entries", 0, 1'000'000);
  opt.retry.max_attempts = cli.get_count("max-attempts", 3, 1000);
  // Multipliers of the budget; run_daemon requires 0 < grace <= kill grace.
  opt.watchdog_grace = get_number(cli, "watchdog-grace", 2.0);
  opt.watchdog_kill_grace = get_number(cli, "watchdog-kill-grace", 4.0);
  opt.max_recoveries = cli.get_count("max-recoveries", 3, 1000);
  opt.shutdown = install_sigint_cancel();
  if (!cli.has("quiet")) {
    opt.log = [](const std::string& line) {
      std::printf("stcd: %s\n", line.c_str());
      std::fflush(stdout);
    };
  }

  const DaemonReport rep = run_daemon(opt);
  std::printf(
      "stcd: served %zu done, %zu failed, %zu stuck, %zu requeued "
      "(%zu attempts, %zu watchdog cancels) in %.2fs\n",
      rep.jobs_done, rep.jobs_failed, rep.jobs_stuck, rep.jobs_requeued,
      rep.attempts_total, rep.watchdog_cancels, rep.wall_seconds);
  std::printf("stcd: cache %zu hits / %zu misses (%.0f%% hit rate)\n",
              rep.cache.hits(), rep.cache.misses(),
              100.0 * rep.cache.hit_rate());
  // A drained shutdown is a SUCCESS exit: the supervisor asked us to stop
  // and we stopped cleanly. Hard failures in served jobs do not fail the
  // daemon process either -- they are per-job results in failed/.
  return 0;
}

int cmd_submit(const stc::Cli& cli, const std::string& spool) {
  using namespace stc;
  SpoolJob job;
  // --fleet-instances > 0 spools a deployment simulation.
  set_job_flags(job.spec, cli,
                {{"machine", "machine"}, {"arch", "arch"}, {"tech", "tech"},
                 {"cycles", "bist_cycles"},
                 {"functional-cycles", "functional_cycles"}, {"minimizer", "minimizer"},
                 {"fleet-instances", "fleet_instances"}, {"fleet-widths", "fleet_widths"},
                 {"distribution", "fleet_distribution"},
                 {"defect-rate", "fleet_defect_rate"}, {"fleet-seed", "fleet_seed"}});
  if (job.spec.machine.empty())
    throw Error(ErrorCode::kInvalidInput, "submit requires --machine");
  job.spec.with_fault_sim = !cli.has("no-faultsim");
  job.budget_ms = get_budget_ms(cli);

  JobQueue queue(spool);
  const std::size_t count = cli.get_count("count", 1, 1'000'000);
  for (std::size_t i = 0; i < count; ++i) {
    SpoolJob j = job;
    std::printf("%s\n", queue.submit(std::move(j)).c_str());
  }
  return 0;
}

int cmd_status(const std::string& spool) {
  using namespace stc;
  JobQueue queue(spool);
  const JobQueue::Counts c = queue.scan();
  std::printf("pending %zu  running %zu  done %zu  failed %zu\n", c.pending,
              c.running, c.done, c.failed);
  for (const std::string& id : queue.list_failed()) {
    const auto r = queue.result(id);
    if (r) {
      std::printf("  %s %s: %s [%s]\n", r->status.c_str(), id.c_str(),
                  r->error.c_str(), r->error_code.c_str());
    }
  }
  for (const std::string& id : queue.list_done()) {
    const auto r = queue.result(id);
    if (!r) continue;
    std::printf("  done %s: %.3fs", id.c_str(), r->seconds);
    if (r->coverage >= 0.0)
      std::printf("  coverage %.4f (%llu faults)", r->coverage,
                  static_cast<unsigned long long>(r->total_faults));
    if (r->fleet_instances > 0)
      std::printf("  fleet %llu instances",
                  static_cast<unsigned long long>(r->fleet_instances));
    if (!r->degradation.empty())
      std::printf("  [degraded: %s]", r->degradation.c_str());
    std::printf("\n");
  }
  return 0;
}

int run(const stc::Cli& cli) {
  using namespace stc;
  const std::vector<std::string>& args = cli.positional();
  const std::string cmd = args.empty() ? "" : args[0];
  if (args.size() < 2 || (cmd != "serve" && cmd != "submit" && cmd != "status")) {
    std::fprintf(stderr, "%s\n", cli_usage(cli.program(), kFlags, kOperands).c_str());
    return 2;
  }
  const std::string& spool = args[1];

  try {
    faultpoints::arm_from_env();
    if (cmd == "serve") return cmd_serve(cli, spool);
    if (cmd == "submit") return cmd_submit(cli, spool);
    return cmd_status(spool);
  } catch (const Error& e) {
    // A malformed flag value or an otherwise invalid request is a usage
    // error (run_cli exits 2); spool I/O failures are not.
    if (e.code() == ErrorCode::kInvalidInput) throw;
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) { return stc::run_cli(argc, argv, kFlags, run, kOperands); }
