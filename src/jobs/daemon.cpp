#include "jobs/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace stc {

namespace {

/// One claimed job while it runs on the pool. The atomic `state` is the
/// exactly-once gate: the worker CASes kRunning -> kFinished when the
/// outcome is written, the watchdog CASes kRunning -> kAbandoned, and only
/// the winning transition's side retires the job in the spool.
struct Inflight {
  JobQueue::Claimed claimed;
  std::shared_ptr<CancelToken> cancel = std::make_shared<CancelToken>();
  std::chrono::steady_clock::time_point started;
  double budget_ms = -1.0;       // effective per-attempt budget
  bool watchdog_cancelled = false;  // main thread only
  bool shutdown_cancelled = false;  // main thread only

  static constexpr int kRunning = 0, kFinished = 1, kAbandoned = 2;
  std::atomic<int> state{kRunning};
  JobAttemptOutcome outcome;  // written by the worker before the CAS
};

std::uint64_t job_backoff_seed(const SpoolJob& job) {
  // The id is assigned once at submit() and survives restarts, so two
  // daemons replaying the same spool compute identical backoff schedules.
  return fnv1a_str(kFnvOffset, job.id);
}

std::string render_result_degradations(const StructureReport& report) {
  std::string out;
  for (const Degradation& d : report.degradations) {
    const std::string line = render_degradation(d);
    if (line.empty()) continue;
    if (!out.empty()) out += "; ";
    out += line;
  }
  return out;
}

SpoolResult base_result(const Inflight& inf) {
  SpoolResult r;
  r.id = inf.claimed.job.id;
  r.attempts = inf.claimed.job.attempts + inf.outcome.attempts;
  r.seconds = inf.outcome.result.seconds;
  return r;
}

bool cancel_truncated(const CampaignJobResult& result) {
  for (const Degradation& d : result.report.degradations)
    if (d.reason == "cancelled") return true;
  return false;
}

}  // namespace

DaemonReport run_daemon(const DaemonOptions& opt) {
  JobCache cache(opt.cache_max_entries);
  return run_daemon(opt, cache);
}

DaemonReport run_daemon(const DaemonOptions& opt, JobCache& cache) {
  // A grace <= 0 (or NaN) would cancel every budgeted job on its first poll.
  if (!(opt.watchdog_grace > 0.0 && std::isfinite(opt.watchdog_kill_grace) &&
        opt.watchdog_kill_grace >= opt.watchdog_grace))
    throw Error(ErrorCode::kInvalidInput,
                "watchdog graces must be finite, grace > 0 and kill grace >= grace",
                strprintf("watchdog_grace=%g; watchdog_kill_grace=%g",
                          opt.watchdog_grace, opt.watchdog_kill_grace));
  const auto t0 = std::chrono::steady_clock::now();
  const auto log = [&opt](const std::string& line) {
    if (opt.log) opt.log(line);
  };

  JobQueue queue(opt.spool_dir);
  DaemonReport rep;
  rep.recovery = queue.recover(opt.max_recoveries);
  if (rep.recovery.requeued + rep.recovery.completed_moves +
          rep.recovery.poisoned + rep.recovery.tmp_cleaned >
      0) {
    log(strprintf("recover: %zu requeued, %zu half-retired completed, "
                  "%zu poisoned, %zu torn temps cleaned",
                  rep.recovery.requeued, rep.recovery.completed_moves,
                  rep.recovery.poisoned, rep.recovery.tmp_cleaned));
  }

  const std::size_t workers = std::max<std::size_t>(1, opt.jobs);
  TaskPool pool(workers);

  std::vector<std::shared_ptr<Inflight>> inflight;

  // Retire one finished in-flight job (main thread only -- ALL spool I/O
  // stays on this thread; workers never touch the queue).
  const auto retire = [&](const std::shared_ptr<Inflight>& inf) {
    const JobAttemptOutcome& out = inf->outcome;
    rep.attempts_total += out.attempts;
    const std::string& id = inf->claimed.job.id;

    if (out.retry_pending ||
        (inf->shutdown_cancelled && !inf->watchdog_cancelled &&
         !out.result.failed() && cancel_truncated(out.result))) {
      // Transient failure interrupted by shutdown, or a partial result the
      // shutdown cancel truncated: the job deserves a full re-run, so it
      // goes back to pending/ (with persisted backoff for the former).
      SpoolJob updated = inf->claimed.job;
      updated.attempts += out.attempts;
      if (out.retry_pending) {
        const double backoff_ms = opt.retry.backoff_ms(
            static_cast<std::size_t>(updated.attempts),
            job_backoff_seed(updated));
        updated.not_before_unix_ms =
            unix_now_ms() + static_cast<std::uint64_t>(backoff_ms);
      }
      queue.requeue(inf->claimed, updated);
      ++rep.jobs_requeued;
      log(strprintf("requeue %s (attempts=%llu)", id.c_str(),
                    static_cast<unsigned long long>(updated.attempts)));
      return;
    }

    SpoolResult r = base_result(*inf);
    if (!out.result.failed()) {
      r.status = "done";
      const StructureReport& report = out.result.report;
      if (report.coverage) r.coverage = *report.coverage;
      r.total_faults = report.total_faults;
      r.area_ge = report.area_ge;
      if (out.result.fleet)
        r.fleet_instances = out.result.fleet->instances_simulated();
      r.degradation = render_result_degradations(report);
      queue.complete(inf->claimed, std::move(r));
      ++rep.jobs_done;
      log(strprintf("done %s (%.3fs)", id.c_str(), out.result.seconds));
    } else {
      r.status = "failed";
      r.error = out.result.error;
      r.error_code = error_code_name(out.result.error_code);
      queue.fail(inf->claimed, std::move(r));
      ++rep.jobs_failed;
      log(strprintf("failed %s: %s [%s]", id.c_str(),
                    out.result.error.c_str(), r.error_code.c_str()));
    }
  };

  // Abandon a wedged job (watchdog kill threshold): mark failed-stuck in
  // the spool NOW so the queue moves on; the task itself is disowned.
  const auto abandon = [&](const std::shared_ptr<Inflight>& inf,
                           double elapsed_ms) {
    SpoolResult r;
    r.id = inf->claimed.job.id;
    r.status = "failed-stuck";
    r.error = strprintf(
        "watchdog: job ran %.0f ms against a %.0f ms budget and did not "
        "stop when cancelled",
        elapsed_ms, inf->budget_ms);
    r.error_code = error_code_name(ErrorCode::kInternal);
    r.attempts = inf->claimed.job.attempts + 1;
    r.seconds = elapsed_ms / 1000.0;
    queue.fail(inf->claimed, std::move(r));
    ++rep.jobs_stuck;
    log(strprintf("failed-stuck %s (%.0f ms)", inf->claimed.job.id.c_str(),
                  elapsed_ms));
  };

  {
    TaskPool::Group group(pool);
    bool shutdown_logged = false;
    for (;;) {
      const bool shutdown = opt.shutdown && opt.shutdown->requested();
      if (shutdown && !shutdown_logged) {
        shutdown_logged = true;
        rep.shutdown_requested = true;
        log("shutdown requested: draining in-flight jobs");
        for (const auto& inf : inflight) {
          inf->shutdown_cancelled = true;
          inf->cancel->request();
        }
      }

      // Harvest finished jobs and run the watchdog over the rest.
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < inflight.size();) {
        auto& inf = inflight[i];
        int state = inf->state.load(std::memory_order_acquire);
        if (state == Inflight::kRunning && inf->budget_ms >= 0.0) {
          const double elapsed_ms =
              std::chrono::duration<double, std::milli>(now - inf->started)
                  .count();
          // An honest job may legitimately run its whole retry schedule.
          const double window =
              inf->budget_ms *
              static_cast<double>(
                  std::max<std::size_t>(1, opt.retry.max_attempts));
          if (!inf->watchdog_cancelled &&
              elapsed_ms > window * opt.watchdog_grace) {
            inf->watchdog_cancelled = true;
            inf->cancel->request();
            ++rep.watchdog_cancels;
            log(strprintf("watchdog: cancelling %s (%.0f ms elapsed)",
                          inf->claimed.job.id.c_str(), elapsed_ms));
          } else if (inf->watchdog_cancelled &&
                     elapsed_ms > window * opt.watchdog_kill_grace) {
            int expected = Inflight::kRunning;
            if (inf->state.compare_exchange_strong(
                    expected, Inflight::kAbandoned,
                    std::memory_order_acq_rel)) {
              abandon(inf, elapsed_ms);
              inflight.erase(inflight.begin() + i);
              continue;  // erased: same index now holds the next entry
            }
            state = inf->state.load(std::memory_order_acquire);
          }
        }
        if (state == Inflight::kFinished) {
          retire(inf);
          inflight.erase(inflight.begin() + i);
          continue;
        }
        ++i;
      }

      // Claim new work (never during shutdown).
      bool claimed_any = false;
      if (!shutdown) {
        while (inflight.size() < workers) {
          auto claimed = queue.claim();
          if (!claimed) break;
          claimed_any = true;
          auto inf = std::make_shared<Inflight>();
          inf->claimed = std::move(*claimed);
          inf->started = std::chrono::steady_clock::now();
          inf->budget_ms = inf->claimed.job.budget_ms >= 0.0
                               ? inf->claimed.job.budget_ms
                               : opt.default_budget_ms;
          log(strprintf("claim %s (%s/%s)", inf->claimed.job.id.c_str(),
                        inf->claimed.job.spec.machine.c_str(),
                        arch_name(inf->claimed.job.spec.arch)));
          inflight.push_back(inf);
          group.run([inf, &cache, &pool, &opt] {
            inf->outcome = run_campaign_job_with_retry(
                inf->claimed.job.spec, cache, opt.retry, inf->budget_ms,
                inf->cancel, &pool, opt.ostr_max_nodes);
            int expected = Inflight::kRunning;
            inf->state.compare_exchange_strong(expected, Inflight::kFinished,
                                               std::memory_order_acq_rel);
          });
        }
      }

      if (inflight.empty()) {
        if (shutdown) break;
        // Drain exits only when pending/ is truly empty: a nonzero count
        // with nothing claimable means backed-off retries, which drain
        // waits out (their not_before will pass).
        if (opt.drain && !claimed_any && queue.scan().pending == 0) break;
      }
      if (!claimed_any) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::max(1.0, opt.poll_ms)));
      }
    }
    // Joins the pool: every worker task (abandoned ones included -- their
    // Inflight stays alive through the lambda's shared_ptr) must return
    // before the group and pool are torn down.
    group.wait();
  }

  rep.pool = pool.stats();
  rep.cache = cache.stats();
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  log(strprintf("exit: %zu done, %zu failed, %zu stuck, %zu requeued",
                rep.jobs_done, rep.jobs_failed, rep.jobs_stuck,
                rep.jobs_requeued));
  return rep;
}

}  // namespace stc
