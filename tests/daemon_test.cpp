// jobs/daemon: retry policy, the daemon loop (drain mode), the watchdog,
// cross-run cache reuse, and graceful shutdown -- all in-process (the
// fork/SIGKILL crash tests live in daemon_crash_test.cpp).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "jobs/daemon.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace stc {
namespace {

namespace fs = std::filesystem;

struct TempSpool {
  std::string path;
  TempSpool() {
    char tmpl[] = "/tmp/stc_daemon_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempSpool() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

SpoolJob fast_job(const std::string& machine = "shiftreg",
                  ArchKind arch = ArchKind::kFig2) {
  SpoolJob job;
  job.spec.machine = machine;
  job.spec.arch = arch;
  job.spec.bist_cycles = 64;
  job.spec.with_fault_sim = true;
  return job;
}

RetryPolicy fast_retry() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_backoff_ms = 1.0;
  p.max_backoff_ms = 4.0;
  return p;
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override { faultpoints::reset(); }
  void TearDown() override { faultpoints::reset(); }
};

// --- RetryPolicy ------------------------------------------------------------

TEST_F(DaemonTest, BackoffIsDeterministicAndBounded) {
  RetryPolicy p;  // base 100, max 5000, jitter 0.25
  for (std::size_t retry = 1; retry <= 8; ++retry) {
    const double a = p.backoff_ms(retry, 1234);
    const double b = p.backoff_ms(retry, 1234);
    EXPECT_DOUBLE_EQ(a, b) << "same (seed, retry) must wait the same";
    EXPECT_LE(a, p.max_backoff_ms * (1.0 + p.jitter_frac));
    EXPECT_GE(a, 0.0);
  }
  // Different seeds de-synchronize (jitter differs for at least one retry).
  bool differs = false;
  for (std::size_t retry = 1; retry <= 4 && !differs; ++retry)
    differs = p.backoff_ms(retry, 1) != p.backoff_ms(retry, 2);
  EXPECT_TRUE(differs);
  // Exponential shape before the clamp (compare jitter-free midpoints).
  RetryPolicy flat = p;
  flat.jitter_frac = 0.0;
  EXPECT_DOUBLE_EQ(flat.backoff_ms(1, 7), 100.0);
  EXPECT_DOUBLE_EQ(flat.backoff_ms(2, 7), 200.0);
  EXPECT_DOUBLE_EQ(flat.backoff_ms(3, 7), 400.0);
  EXPECT_DOUBLE_EQ(flat.backoff_ms(10, 7), 5000.0);  // clamped
  EXPECT_DOUBLE_EQ(flat.backoff_ms(0, 7), 0.0);
}

TEST_F(DaemonTest, TransientFailuresRetryUntilSuccess) {
  JobCache cache;
  faultpoints::arm_from_spec("orchestrator.job.start@1x2");  // fail twice
  const auto out = run_campaign_job_with_retry(fast_job().spec, cache,
                                               fast_retry());
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_FALSE(out.result.failed());
  EXPECT_FALSE(out.retry_pending);
  EXPECT_GT(out.backoff_ms_total, 0.0);
  EXPECT_EQ(faultpoints::fires("orchestrator.job.start"), 2u);
}

TEST_F(DaemonTest, TransientFailuresExhaustAttempts) {
  JobCache cache;
  faultpoints::arm_from_spec("orchestrator.job.start@1x99");
  const auto out = run_campaign_job_with_retry(fast_job().spec, cache,
                                               fast_retry());
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_TRUE(out.result.failed());
  EXPECT_EQ(out.result.error_code, ErrorCode::kIo);
  EXPECT_FALSE(out.retry_pending);
}

TEST_F(DaemonTest, PermanentFailuresNeverRetry) {
  JobCache cache;
  CampaignJobSpec spec = fast_job().spec;
  spec.machine = "no_such_machine";
  const auto out = run_campaign_job_with_retry(spec, cache, fast_retry());
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.result.failed());
  EXPECT_EQ(out.result.error_code, ErrorCode::kInvalidInput);
  EXPECT_FALSE(out.result.error_context.empty());
}

TEST_F(DaemonTest, CancelDuringRetryLeavesRetryPending) {
  JobCache cache;
  auto cancel = std::make_shared<CancelToken>();
  cancel->request();
  faultpoints::arm_from_spec("orchestrator.job.start@1x99");
  const auto out = run_campaign_job_with_retry(fast_job().spec, cache,
                                               fast_retry(), -1.0, cancel);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.retry_pending);  // shutdown, not a permanent verdict
}

// --- daemon loop ------------------------------------------------------------

TEST_F(DaemonTest, DrainModeRunsEveryJobAndExits) {
  TempSpool spool;
  {
    JobQueue q(spool.path);
    q.submit(fast_job("shiftreg", ArchKind::kFig2));
    q.submit(fast_job("shiftreg", ArchKind::kFig3));
    q.submit(fast_job("dk27", ArchKind::kFig2));
  }
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  opt.retry = fast_retry();
  const DaemonReport rep = run_daemon(opt);
  EXPECT_EQ(rep.jobs_done, 3u);
  EXPECT_EQ(rep.jobs_failed, 0u);
  EXPECT_EQ(rep.jobs_stuck, 0u);
  EXPECT_EQ(rep.attempts_total, 3u);

  JobQueue q(spool.path);
  const auto counts = q.scan();
  EXPECT_EQ(counts.done, 3u);
  EXPECT_EQ(counts.pending + counts.running + counts.failed, 0u);
  for (const std::string& id : q.list_done()) {
    const auto r = q.result(id);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, "done");
    EXPECT_GE(r->coverage, 0.0);  // faultsim ran
    EXPECT_GT(r->total_faults, 0u);
  }
}

TEST_F(DaemonTest, SpoolJobWithRetiredKeysDrainsToDone) {
  // Written while the evaluator and the lane width were job options: the
  // retired `engine` and `lanes` lines set nothing, and each job runs as
  // the same job written without them.
  TempSpool spool;
  JobQueue q(spool.path);
  const std::vector<std::pair<std::string, std::string>> jobs = {
      {"0000000000000001-00001-0000", "engine = flat\nlanes = 64\n"},
      {"0000000000000002-00001-0000", "engine = event\nlanes = 256\n"},
      {"0000000000000003-00001-0000", ""}};
  for (const auto& [id, retired] : jobs) {
    std::ofstream os(spool.path + "/pending/" + id + ".job");
    os << "# stc job spec\nmachine = shiftreg\narch = fig2\ntech = two_level\n"
       << retired
       << "bist_cycles = 64\nfunctional_cycles = 512\n"
          "minimizer = auto\nfaultsim = 1\nbudget_ms = -1.000\nattempts = 0\n"
          "recoveries = 0\nnot_before_unix_ms = 0\n";
  }
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  opt.retry = fast_retry();
  const DaemonReport rep = run_daemon(opt);
  EXPECT_EQ(rep.jobs_done, jobs.size());
  EXPECT_EQ(q.list_done().size(), jobs.size());
  const auto plain = q.result(jobs.back().first);
  ASSERT_TRUE(plain.has_value());
  for (const auto& [id, retired] : jobs) {
    const auto r = q.result(id);
    ASSERT_TRUE(r.has_value()) << id;
    EXPECT_EQ(r->status, "done") << id;
    EXPECT_GT(r->total_faults, 0u) << id;
    EXPECT_EQ(r->total_faults, plain->total_faults) << id;
    EXPECT_EQ(r->coverage, plain->coverage) << id;
  }
}

TEST_F(DaemonTest, WatchdogMultipliersMustBePositiveAndOrdered) {
  // A grace <= 0 would cancel every budgeted job on its first poll.
  TempSpool spool;
  JobQueue(spool.path).submit(fast_job());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [grace, kill] : {std::pair{0.0, 4.0}, std::pair{-1.0, 4.0},
                                    std::pair{nan, 4.0}, std::pair{2.0, inf},
                                    std::pair{2.0, 1.5}}) {
    DaemonOptions opt;
    opt.spool_dir = spool.path;
    opt.drain = true;
    opt.watchdog_grace = grace;
    opt.watchdog_kill_grace = kill;
    try {
      run_daemon(opt);
      ADD_FAILURE() << "grace " << grace << ", kill grace " << kill << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    }
  }
  EXPECT_EQ(JobQueue(spool.path).scan().pending, 1u);  // nothing was claimed
}

TEST_F(DaemonTest, DaemonRetriesTransientFailuresInProcess) {
  TempSpool spool;
  {
    JobQueue q(spool.path);
    q.submit(fast_job());
  }
  faultpoints::arm_from_spec("orchestrator.job.start@1x1");  // fail once
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  opt.retry = fast_retry();
  const DaemonReport rep = run_daemon(opt);
  EXPECT_EQ(rep.jobs_done, 1u);
  EXPECT_EQ(rep.attempts_total, 2u);  // one failure + one success

  JobQueue q(spool.path);
  const auto r = q.result(q.list_done().at(0));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->attempts, 2u);  // persisted in the result record
}

TEST_F(DaemonTest, PermanentFailureRetiresToFailed) {
  TempSpool spool;
  {
    JobQueue q(spool.path);
    q.submit(fast_job("no_such_machine"));
    q.submit(fast_job());
  }
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  opt.retry = fast_retry();
  const DaemonReport rep = run_daemon(opt);
  EXPECT_EQ(rep.jobs_done, 1u);
  EXPECT_EQ(rep.jobs_failed, 1u);

  JobQueue q(spool.path);
  const auto r = q.result(q.list_failed().at(0));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, "failed");
  EXPECT_EQ(r->error_code, "invalid_input");
}

TEST_F(DaemonTest, SharedCacheMakesTheSecondRunAllHits) {
  TempSpool spool;
  JobCache cache;
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  opt.retry = fast_retry();

  {
    JobQueue q(spool.path);
    q.submit(fast_job());
  }
  const DaemonReport first = run_daemon(opt, cache);
  EXPECT_EQ(first.jobs_done, 1u);
  EXPECT_EQ(first.cache.structure_hits, 0u);

  {
    JobQueue q(spool.path);
    q.submit(fast_job());  // identical job, warm cache
  }
  const DaemonReport second = run_daemon(opt, cache);
  EXPECT_EQ(second.jobs_done, 1u);
  EXPECT_GE(second.cache.machine_hits, 1u);
  EXPECT_GE(second.cache.structure_hits, 1u);
  EXPECT_GE(second.cache.warm_hits, 1u);
}

TEST_F(DaemonTest, BoundedCacheEvictsInsteadOfGrowing) {
  TempSpool spool;
  {
    JobQueue q(spool.path);
    for (ArchKind arch : {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3})
      q.submit(fast_job("shiftreg", arch));
    for (ArchKind arch : {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3})
      q.submit(fast_job("dk27", arch));
  }
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  opt.retry = fast_retry();
  opt.cache_max_entries = 2;  // structures + warms together
  const DaemonReport rep = run_daemon(opt);
  EXPECT_EQ(rep.jobs_done, 6u);
  EXPECT_GT(rep.cache.structure_evictions + rep.cache.warm_evictions, 0u);
}

TEST_F(DaemonTest, WatchdogMarksWedgedJobsFailedStuck) {
  TempSpool spool;
  std::string stuck_id;
  {
    JobQueue q(spool.path);
    SpoolJob job = fast_job();
    job.budget_ms = 30.0;  // watchdog reference window
    stuck_id = q.submit(std::move(job));
  }
  // The delay fault sleeps 700 ms WITHOUT polling the cancel token -- a
  // non-cooperative wedge only the watchdog can clear.
  faultpoints::arm_from_spec("orchestrator.job.start@1~700");
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.drain = true;
  opt.retry = fast_retry();
  opt.retry.max_attempts = 1;   // window = budget * 1
  opt.watchdog_grace = 1.0;     // cancel at 30 ms
  opt.watchdog_kill_grace = 3.0;  // abandon at 90 ms
  opt.poll_ms = 5.0;
  const DaemonReport rep = run_daemon(opt);
  EXPECT_EQ(rep.jobs_stuck, 1u);
  EXPECT_EQ(rep.jobs_done, 0u);
  EXPECT_GE(rep.watchdog_cancels, 1u);

  JobQueue q(spool.path);
  EXPECT_EQ(q.scan().failed, 1u);
  EXPECT_EQ(q.scan().running, 0u);  // the queue is NOT wedged
  const auto r = q.result(stuck_id);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, "failed-stuck");
  EXPECT_NE(r->error.find("watchdog"), std::string::npos);
}

TEST_F(DaemonTest, ShutdownTokenStopsClaimingImmediately) {
  TempSpool spool;
  {
    JobQueue q(spool.path);
    q.submit(fast_job());
    q.submit(fast_job());
  }
  auto shutdown = std::make_shared<CancelToken>();
  shutdown->request();  // requested before the daemon even starts
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.shutdown = shutdown;
  opt.retry = fast_retry();
  const DaemonReport rep = run_daemon(opt);
  EXPECT_TRUE(rep.shutdown_requested);
  EXPECT_EQ(rep.jobs_done, 0u);
  JobQueue q(spool.path);
  EXPECT_EQ(q.scan().pending, 2u);  // untouched, ready for the next daemon
}

TEST_F(DaemonTest, ServeModeDrainsInFlightWorkOnShutdown) {
  TempSpool spool;
  {
    JobQueue q(spool.path);
    q.submit(fast_job());
  }
  auto shutdown = std::make_shared<CancelToken>();
  DaemonOptions opt;
  opt.spool_dir = spool.path;
  opt.shutdown = shutdown;
  opt.retry = fast_retry();
  opt.poll_ms = 5.0;

  DaemonReport rep;
  std::thread daemon([&] { rep = run_daemon(opt); });
  // Wait (bounded) until the job has retired, then ask the daemon to stop.
  JobQueue q(spool.path);
  for (int i = 0; i < 500 && q.scan().done == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  shutdown->request();
  daemon.join();

  EXPECT_TRUE(rep.shutdown_requested);
  EXPECT_EQ(rep.jobs_done, 1u);
  EXPECT_EQ(q.scan().done, 1u);
  EXPECT_EQ(q.scan().running, 0u);
}

}  // namespace
}  // namespace stc
