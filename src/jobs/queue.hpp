#pragma once
// Durable file-backed job spool for the BIST-synthesis daemon.
//
// A spool directory holds every queued CampaignJobSpec as one small text
// file and moves it through an atomic-rename state machine:
//
//   pending/<id>.job  --claim-->  running/<id>.job
//   running/<id>.job  --retire->  done/<id>.job   (+ done/<id>.result)
//                               | failed/<id>.job (+ failed/<id>.result)
//   running/<id>.job  --requeue-> pending/<id>.job   (retry / shutdown)
//
// Durability contract (see DESIGN.md "Durable daemon mode"): every file is
// published by write-to-tmp/ + fsync + rename, and every state transition
// is a single rename(2). A SIGKILL at ANY instant therefore leaves each
// job in exactly one well-defined state -- the old one or the new one,
// never a torn file in a live directory. recover() repairs the only
// ambiguous window (result published, job file not yet moved) by
// completing the move instead of re-running, which is what makes
// retirement exactly-once across crashes.
//
// Spec files are `key = value` text (written by `stcd submit`, or by
// hand). The queue owns four keys -- budget_ms, attempts, recoveries,
// not_before_unix_ms -- which ride in the same file so they survive
// restarts. Every other line is a CampaignJobSpec field, converted by
// set_job_field (jobs/orchestrator.hpp lists the keys and their bounds),
// the same function the drivers' job flags go through. A malformed line
// raises Error(kInvalidInput) naming the file, line and key.
//
// The spool assumes ONE daemon process per directory (claims are
// single-consumer); submitters may be many, from any process.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "jobs/orchestrator.hpp"

namespace stc {

/// One spooled job: the campaign spec plus queue-owned metadata.
struct SpoolJob {
  std::string id;  // assigned by submit() when empty
  CampaignJobSpec spec;
  /// Per-attempt wall-clock budget in ms (< 0 = none). Also the
  /// watchdog's reference deadline.
  double budget_ms = -1.0;
  /// Completed run attempts so far (in-process retries included).
  std::uint64_t attempts = 0;
  /// Times this job was found in running/ after a crash and requeued.
  std::uint64_t recoveries = 0;
  /// Earliest wall-clock time (Unix ms) claim() may hand this job out;
  /// 0 = immediately. Set by requeue() to persist retry backoff.
  std::uint64_t not_before_unix_ms = 0;
};

/// The terminal record written next to a retired job file.
struct SpoolResult {
  std::string id;
  std::string status;  // "done" | "failed" | "failed-stuck"
  std::string error;   // empty for done
  std::string error_code;  // error_code_name() of the failure
  std::uint64_t attempts = 1;
  double seconds = 0.0;
  // Summary metrics for `stcd status` (negative/empty = not measured):
  double coverage = -1.0;
  std::uint64_t total_faults = 0;
  double area_ge = 0.0;
  /// Fleet-mode jobs: chip instances actually simulated (0 otherwise).
  std::uint64_t fleet_instances = 0;
  std::string degradation;  // rendered labels, ";"-joined
};

/// Render a job to the on-disk spec format / parse it back. `origin` names
/// the file in parse errors. Unknown keys are rejected (typos must not
/// silently change a job), and so is a non-finite budget_ms.
std::string render_spool_job(const SpoolJob& job);
SpoolJob parse_spool_job(const std::string& text, const std::string& origin);

std::string render_spool_result(const SpoolResult& r);
SpoolResult parse_spool_result(const std::string& text,
                               const std::string& origin);

class JobQueue {
 public:
  /// Open (creating if needed) a spool rooted at `root`; throws
  /// Error(kIo) when the directories cannot be created.
  explicit JobQueue(std::string root);

  const std::string& root() const { return root_; }

  /// Durably publish a job into pending/; returns its id (generated when
  /// job.id is empty). Crash-safe: the job is either fully visible in
  /// pending/ or not visible at all.
  std::string submit(SpoolJob job);

  /// A job this daemon has claimed (its file now lives in running/).
  struct Claimed {
    SpoolJob job;
  };

  /// Claim the oldest eligible pending job (submission order; jobs whose
  /// not_before lies in the future are skipped). An unparseable spec file
  /// is moved to failed/ with a parse-error result and claiming continues.
  /// Returns nullopt when nothing is eligible.
  std::optional<Claimed> claim();

  /// Retire a claimed job: publish the result, then move the job file.
  void complete(const Claimed& c, SpoolResult r);  // -> done/
  void fail(const Claimed& c, SpoolResult r);      // -> failed/

  /// Put a claimed job back into pending/ with updated metadata
  /// (attempts/recoveries/not_before taken from `updated`). Used for
  /// backoff-deferred retries and for shutdown drain.
  void requeue(const Claimed& c, const SpoolJob& updated);

  struct RecoveryReport {
    std::size_t requeued = 0;          // running/ -> pending/ (will re-run)
    std::size_t completed_moves = 0;   // result existed: finished the move
    std::size_t poisoned = 0;          // crashed too often -> failed/
    std::size_t tmp_cleaned = 0;       // torn temp files removed
  };

  /// Crash recovery, run once at daemon startup BEFORE claiming: clears
  /// tmp/, finishes half-retired jobs whose result was already published,
  /// requeues the rest of running/ with recoveries+1, and poisons jobs
  /// that have crashed the daemon more than `max_recoveries` times (a
  /// crash-looping job must not wedge the queue forever).
  RecoveryReport recover(std::uint64_t max_recoveries = 3);

  struct Counts {
    std::size_t pending = 0, running = 0, done = 0, failed = 0;
  };
  Counts scan() const;

  /// Job ids in a state directory, oldest first.
  std::vector<std::string> list_pending() const { return list_ids(pending_); }
  std::vector<std::string> list_running() const { return list_ids(running_); }
  std::vector<std::string> list_done() const { return list_ids(done_); }
  std::vector<std::string> list_failed() const { return list_ids(failed_); }

  /// Read the result record of a retired job (done/ first, then failed/).
  std::optional<SpoolResult> result(const std::string& id) const;

 private:
  std::vector<std::string> list_ids(const std::string& dir) const;
  /// write-temp -> fsync -> rename publish into `final_path`.
  void write_file_atomic(const std::string& final_path,
                         const std::string& content);
  void retire(const Claimed& c, SpoolResult r, const std::string& dir);

  std::string root_;
  std::string pending_, running_, done_, failed_, tmp_;
  std::uint64_t seq_ = 0;  // submit() uniquifier within this process
};

/// Wall clock as Unix milliseconds (the spool's persisted time base --
/// steady_clock does not survive a restart).
std::uint64_t unix_now_ms();

}  // namespace stc
