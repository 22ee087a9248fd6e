#pragma once
// Durable BIST-synthesis daemon: a long-lived loop that claims jobs from a
// file-backed spool (jobs/queue), runs them through the orchestrator on
// ONE persistent TaskPool + JobCache (cross-job cache reuse is the point
// of staying resident), and retires every job exactly once.
//
// Lifecycle of one daemon run (see DESIGN.md "Durable daemon mode"):
//
//   recover()  -- repair the spool after any previous crash, BEFORE
//                 claiming: torn temps cleared, half-retired jobs'
//                 moves completed, interrupted jobs requeued (poisoned
//                 to failed/ past max_recoveries);
//   loop       -- claim up to `jobs` jobs onto the pool; the main
//                 thread alone touches the spool (claims, retirements),
//                 workers only compute;
//   retire     -- success -> done/; transient failure with attempts left
//                 at shutdown -> requeued (retry_pending); permanent
//                 failure -> failed/; a job the watchdog had to abandon
//                 -> failed/ with status "failed-stuck";
//   shutdown   -- on the cancel token (SIGINT/SIGTERM via
//                 install_sigint_cancel): stop claiming, request every
//                 in-flight job's cancel token, retire what finishes,
//                 requeue cancellation-truncated partial results so a
//                 restart re-runs them at full budget.
//
// Watchdog: a job whose wall time exceeds its budget times
// watchdog_grace gets its cancel token requested (cooperative); past
// watchdog_kill_grace it is ABANDONED -- marked failed-stuck in the
// spool and dropped from the in-flight set, so one wedged job can never
// block the queue. The grace window is measured against the job's whole
// retry schedule (budget * max_attempts), since an honest transient job
// legitimately runs several attempts. The abandoned task's thread is not
// killed (that cannot be done safely); it is disowned and merely delays
// final pool teardown if it ever returns.
//
// Exactly-once retirement: each in-flight job carries an atomic state
// (running / finished / abandoned); the worker CASes running->finished,
// the watchdog CASes running->abandoned, and whichever wins is the only
// party that retires the job. Combined with the spool's rename state
// machine this holds across SIGKILL too (tests/daemon_crash_test.cpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "jobs/cache.hpp"
#include "jobs/orchestrator.hpp"
#include "jobs/queue.hpp"
#include "jobs/scheduler.hpp"
#include "util/budget.hpp"

namespace stc {

struct DaemonOptions {
  std::string spool_dir;
  /// Worker threads of the persistent pool, and the number of jobs
  /// claimed concurrently.
  std::size_t jobs = 1;
  /// Per-attempt budget for jobs that carry none of their own (< 0 =
  /// unlimited; such jobs are exempt from the watchdog).
  double default_budget_ms = -1.0;
  /// Watchdog thresholds, as multiples of budget_ms * retry.max_attempts:
  /// past `grace` the job's cancel token is requested, past `kill_grace`
  /// the job is abandoned as failed-stuck. Both require a finite budget.
  /// run_daemon rejects (kInvalidInput) any but finite
  /// 0 < watchdog_grace <= watchdog_kill_grace.
  double watchdog_grace = 2.0;
  double watchdog_kill_grace = 4.0;
  /// Main-loop poll interval when idle (ms).
  double poll_ms = 20.0;
  std::uint64_t ostr_max_nodes = kJobOstrMaxNodes;
  /// recover(): crash-looping jobs are poisoned past this many recoveries.
  std::uint64_t max_recoveries = 3;
  /// JobCache LRU bound for the convenience overload (0 = unbounded).
  std::size_t cache_max_entries = 0;
  RetryPolicy retry;
  /// Graceful-shutdown token (install_sigint_cancel() in stcd).
  std::shared_ptr<const CancelToken> shutdown;
  /// Drain mode: exit once pending/ (deferred jobs included) and the
  /// in-flight set are empty, instead of waiting for more submissions.
  bool drain = false;
  /// Progress sink (one line per event); null = silent.
  std::function<void(const std::string&)> log;
};

struct DaemonReport {
  JobQueue::RecoveryReport recovery;
  std::size_t jobs_done = 0;
  std::size_t jobs_failed = 0;   // permanent failures (failed/)
  std::size_t jobs_stuck = 0;    // watchdog abandonments (failed-stuck)
  std::size_t jobs_requeued = 0; // retry-pending + shutdown partials
  std::size_t attempts_total = 0;
  std::size_t watchdog_cancels = 0;
  bool shutdown_requested = false;
  JobCacheStats cache;
  TaskPool::Stats pool;
  double wall_seconds = 0.0;
};

/// Run the daemon loop until shutdown (or, in drain mode, until the spool
/// is empty). The overload without a cache builds one bounded by
/// opt.cache_max_entries; the seam taking `cache` lets tests assert
/// warm-reuse across successive daemon runs (restart keeps the cache only
/// if the caller keeps it).
DaemonReport run_daemon(const DaemonOptions& opt);
DaemonReport run_daemon(const DaemonOptions& opt, JobCache& cache);

}  // namespace stc
