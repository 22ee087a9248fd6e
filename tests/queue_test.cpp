// jobs/queue: the durable file-backed spool. Covers the spec/result file
// round-trips, claim ordering, every recover() path, and -- via
// util/faultpoint -- the torn-write and half-retired crash windows that
// make retirement exactly-once.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "jobs/queue.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace stc {
namespace {

namespace fs = std::filesystem;

/// mkdtemp-backed spool root, removed on scope exit.
struct TempSpool {
  std::string path;
  TempSpool() {
    char tmpl[] = "/tmp/stc_spool_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempSpool() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

SpoolJob sample_job() {
  SpoolJob job;
  job.spec.machine = "shiftreg";
  job.spec.arch = ArchKind::kFig3;
  job.spec.tech = Technology::kMultiLevel;
  job.spec.bist_cycles = 128;
  job.spec.functional_cycles = 300;
  job.spec.minimizer = MinimizerKind::kEspresso;
  job.spec.with_fault_sim = false;
  job.budget_ms = 1234.5;
  job.attempts = 2;
  job.recoveries = 1;
  job.not_before_unix_ms = 42;
  return job;
}

void write_raw(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
}

class QueueTest : public ::testing::Test {
 protected:
  void SetUp() override { faultpoints::reset(); }
  void TearDown() override { faultpoints::reset(); }
};

TEST_F(QueueTest, JobRoundTripPreservesEveryField) {
  const SpoolJob job = sample_job();
  const SpoolJob back = parse_spool_job(render_spool_job(job), "test");
  EXPECT_EQ(back.spec.machine, "shiftreg");
  EXPECT_EQ(back.spec.arch, ArchKind::kFig3);
  EXPECT_EQ(back.spec.tech, Technology::kMultiLevel);
  EXPECT_EQ(back.spec.bist_cycles, 128u);
  EXPECT_EQ(back.spec.functional_cycles, 300u);
  EXPECT_EQ(back.spec.minimizer, MinimizerKind::kEspresso);
  EXPECT_FALSE(back.spec.with_fault_sim);
  EXPECT_DOUBLE_EQ(back.budget_ms, 1234.5);
  EXPECT_EQ(back.attempts, 2u);
  EXPECT_EQ(back.recoveries, 1u);
  EXPECT_EQ(back.not_before_unix_ms, 42u);
}

TEST_F(QueueTest, ResultRoundTripPreservesEveryField) {
  SpoolResult r;
  r.id = "abc";
  r.status = "failed-stuck";
  r.error = "watchdog: wedged";
  r.error_code = "internal";
  r.attempts = 3;
  r.seconds = 1.25;
  r.coverage = 0.875;
  r.total_faults = 120;
  r.area_ge = 45.5;
  r.degradation = "campaign degraded (deadline): 3/8 batches";
  const SpoolResult back = parse_spool_result(render_spool_result(r), "test");
  EXPECT_EQ(back.id, "abc");
  EXPECT_EQ(back.status, "failed-stuck");
  EXPECT_EQ(back.error, "watchdog: wedged");
  EXPECT_EQ(back.error_code, "internal");
  EXPECT_EQ(back.attempts, 3u);
  EXPECT_DOUBLE_EQ(back.seconds, 1.25);
  EXPECT_DOUBLE_EQ(back.coverage, 0.875);
  EXPECT_EQ(back.total_faults, 120u);
  EXPECT_DOUBLE_EQ(back.area_ge, 45.5);
  EXPECT_EQ(back.degradation, "campaign degraded (deadline): 3/8 batches");
}

TEST_F(QueueTest, ParseErrorsNameFileAndLine) {
  try {
    parse_spool_job("machine = shiftreg\nbogus_key = 1\n", "spec.job");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(e.context().find("file=spec.job"), std::string::npos);
    EXPECT_NE(e.context().find("line=2"), std::string::npos);
  }
  // Enum values gain the file position too.
  try {
    parse_spool_job("machine = x\narch = fig9\n", "spec.job");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(e.context().find("file=spec.job"), std::string::npos);
  }
  EXPECT_THROW(parse_spool_job("arch = fig1\n", "spec.job"), Error);  // no machine
  EXPECT_THROW(parse_spool_job("not a kv line\n", "spec.job"), Error);
}

TEST_F(QueueTest, ClaimReturnsJobsInSubmissionOrder) {
  TempSpool spool;
  JobQueue q(spool.path);
  SpoolJob job = sample_job();
  job.not_before_unix_ms = 0;
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    SpoolJob j = job;
    ids.push_back(q.submit(std::move(j)));
  }
  EXPECT_EQ(q.scan().pending, 3u);
  for (int i = 0; i < 3; ++i) {
    auto c = q.claim();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->job.id, ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(q.claim().has_value());
  EXPECT_EQ(q.scan().running, 3u);
}

TEST_F(QueueTest, CompleteAndFailRetireWithResults) {
  TempSpool spool;
  JobQueue q(spool.path);
  SpoolJob job = sample_job();
  job.not_before_unix_ms = 0;
  const std::string id_done = q.submit(SpoolJob(job));
  const std::string id_fail = q.submit(SpoolJob(job));

  auto c1 = q.claim();
  ASSERT_TRUE(c1.has_value());
  SpoolResult r1;
  r1.status = "done";
  r1.coverage = 0.5;
  q.complete(*c1, std::move(r1));

  auto c2 = q.claim();
  ASSERT_TRUE(c2.has_value());
  SpoolResult r2;
  r2.status = "failed";
  r2.error = "boom";
  r2.error_code = "io";
  q.fail(*c2, std::move(r2));

  const auto counts = q.scan();
  EXPECT_EQ(counts.pending, 0u);
  EXPECT_EQ(counts.running, 0u);
  EXPECT_EQ(counts.done, 1u);
  EXPECT_EQ(counts.failed, 1u);

  const auto res_done = q.result(id_done);
  ASSERT_TRUE(res_done.has_value());
  EXPECT_EQ(res_done->status, "done");
  EXPECT_DOUBLE_EQ(res_done->coverage, 0.5);
  const auto res_fail = q.result(id_fail);
  ASSERT_TRUE(res_fail.has_value());
  EXPECT_EQ(res_fail->error, "boom");
  EXPECT_FALSE(q.result("no-such-id").has_value());
}

TEST_F(QueueTest, NotBeforeDefersAndRequeuePersistsBackoff) {
  TempSpool spool;
  JobQueue q(spool.path);
  SpoolJob job = sample_job();
  job.not_before_unix_ms = 0;
  q.submit(SpoolJob(job));

  auto c = q.claim();
  ASSERT_TRUE(c.has_value());
  SpoolJob updated = c->job;
  updated.attempts = 5;
  updated.not_before_unix_ms = unix_now_ms() + 60000;  // a minute out
  q.requeue(*c, updated);

  EXPECT_EQ(q.scan().pending, 1u);
  EXPECT_EQ(q.scan().running, 0u);
  EXPECT_FALSE(q.claim().has_value());  // deferred, not claimable

  // Once the backoff passes, the job (with its persisted attempts) claims.
  auto c2 = q.claim();
  EXPECT_FALSE(c2.has_value());
  // Rewrite with an elapsed not_before to avoid sleeping in the test.
  SpoolJob eligible = updated;
  eligible.not_before_unix_ms = 1;
  write_raw(spool.path + "/pending/" + c->job.id + ".job",
            render_spool_job(eligible));
  auto c3 = q.claim();
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->job.attempts, 5u);
  EXPECT_EQ(q.scan().pending, 0u);
}

TEST_F(QueueTest, UnparseablePendingSpecIsFailedNotWedged) {
  TempSpool spool;
  JobQueue q(spool.path);
  write_raw(spool.path + "/pending/00000000-aaaa-0000.job", "machine = \n");
  SpoolJob good = sample_job();
  good.not_before_unix_ms = 0;
  const std::string good_id = q.submit(std::move(good));

  // The bad spec retires to failed/ and claiming continues to the good job.
  auto c = q.claim();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->job.id, good_id);
  EXPECT_EQ(q.scan().failed, 1u);
  const auto r = q.result("00000000-aaaa-0000");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, "failed");
  EXPECT_EQ(r->error_code, "invalid_input");
}

TEST_F(QueueTest, RecoverCleansTornTempFiles) {
  TempSpool spool;
  JobQueue q(spool.path);
  // Name the temp after a writer pid that is provably dead (a reaped
  // child), matching the real crashed-producer shape.
  const pid_t dead = ::fork();
  if (dead == 0) ::_exit(0);
  ASSERT_GT(dead, 0);
  ::waitpid(dead, nullptr, 0);
  write_raw(spool.path + "/tmp/torn.job." + std::to_string(dead) + ".0.tmp",
            "machine = shif");
  const auto rep = q.recover();
  EXPECT_EQ(rep.tmp_cleaned, 1u);
  EXPECT_TRUE(fs::is_empty(spool.path + "/tmp"));
}

TEST_F(QueueTest, RecoverSparesALiveProducersFreshTemp) {
  TempSpool spool;
  JobQueue q(spool.path);
  // A fresh temp owned by a live process (this one) is a submit in
  // flight: sweeping it would make the producer's rename fail ENOENT.
  const std::string temp = spool.path + "/tmp/live.job." +
                           std::to_string(::getpid()) + ".0.tmp";
  write_raw(temp, "machine = shiftreg\n");
  const auto rep = q.recover();
  EXPECT_EQ(rep.tmp_cleaned, 0u);
  EXPECT_TRUE(fs::exists(temp));
  // An unparseable name can only be garbage -- swept regardless.
  write_raw(spool.path + "/tmp/garbage", "x");
  EXPECT_EQ(q.recover().tmp_cleaned, 1u);
  EXPECT_TRUE(fs::exists(temp));
}

TEST_F(QueueTest, RecoverRequeuesInterruptedRunningJobs) {
  TempSpool spool;
  JobQueue q(spool.path);
  SpoolJob job = sample_job();
  job.not_before_unix_ms = 0;
  job.recoveries = 0;
  const std::string id = q.submit(std::move(job));
  ASSERT_TRUE(q.claim().has_value());  // id now in running/

  const auto rep = q.recover();
  EXPECT_EQ(rep.requeued, 1u);
  EXPECT_EQ(q.scan().pending, 1u);
  EXPECT_EQ(q.scan().running, 0u);
  auto c = q.claim();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->job.id, id);
  EXPECT_EQ(c->job.recoveries, 1u);  // the crash is recorded in the job
}

TEST_F(QueueTest, RecoverPoisonsCrashLoopingJobs) {
  TempSpool spool;
  JobQueue q(spool.path);
  SpoolJob job = sample_job();
  job.not_before_unix_ms = 0;
  job.recoveries = 3;  // already crashed the daemon 3 times
  const std::string id = q.submit(std::move(job));
  ASSERT_TRUE(q.claim().has_value());

  const auto rep = q.recover(/*max_recoveries=*/3);
  EXPECT_EQ(rep.poisoned, 1u);
  EXPECT_EQ(q.scan().failed, 1u);
  const auto r = q.result(id);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, "failed");
  EXPECT_EQ(r->error_code, "internal");
  EXPECT_NE(r->error.find("max_recoveries"), std::string::npos);
}

TEST_F(QueueTest, RecoverCompletesHalfRetiredJobs) {
  TempSpool spool;
  JobQueue q(spool.path);
  SpoolJob job = sample_job();
  job.not_before_unix_ms = 0;
  const std::string id = q.submit(std::move(job));
  auto c = q.claim();
  ASSERT_TRUE(c.has_value());

  // Crash between result publish and job move: the commit-rename fault
  // fires after done/<id>.result exists but before running/<id>.job moved.
  faultpoints::arm_from_spec("queue.commit.rename@1");
  SpoolResult r;
  r.status = "done";
  EXPECT_THROW(q.complete(*c, std::move(r)), Error);
  faultpoints::reset();
  EXPECT_EQ(q.scan().running, 1u);  // the half-retired state
  EXPECT_TRUE(fs::exists(spool.path + "/done/" + id + ".result"));

  // Recovery completes the move instead of re-running: exactly-once.
  const auto rep = q.recover();
  EXPECT_EQ(rep.completed_moves, 1u);
  EXPECT_EQ(rep.requeued, 0u);
  EXPECT_EQ(q.scan().done, 1u);
  EXPECT_EQ(q.scan().running, 0u);
  EXPECT_EQ(q.scan().pending, 0u);
}

TEST_F(QueueTest, TornWriteNeverPublishesAVisibleFile) {
  TempSpool spool;
  JobQueue q(spool.path);
  faultpoints::arm_from_spec("queue.write.torn@1");
  SpoolJob job = sample_job();
  EXPECT_THROW(q.submit(std::move(job)), Error);
  faultpoints::reset();
  // The half-written file stayed in tmp/; no state directory saw it.
  const auto counts = q.scan();
  EXPECT_EQ(counts.pending, 0u);
  EXPECT_EQ(counts.running + counts.done + counts.failed, 0u);
  // The abandoned temp's owner (this process) is alive, so it survives
  // the sweep until the abandonment age passes -- age the file instead
  // of sleeping a minute.
  EXPECT_EQ(q.recover().tmp_cleaned, 0u);
  for (const auto& entry : fs::directory_iterator(spool.path + "/tmp"))
    fs::last_write_time(entry.path(), fs::file_time_type::clock::now() -
                                          std::chrono::minutes(5));
  EXPECT_GE(q.recover().tmp_cleaned, 1u);

  // And the queue still works afterwards.
  SpoolJob ok = sample_job();
  ok.not_before_unix_ms = 0;
  q.submit(std::move(ok));
  EXPECT_EQ(q.scan().pending, 1u);
}

TEST_F(QueueTest, InterruptedRequeueIsResolvedByRecovery) {
  TempSpool spool;
  JobQueue q(spool.path);
  SpoolJob job = sample_job();
  job.not_before_unix_ms = 0;
  const std::string id = q.submit(std::move(job));
  auto c = q.claim();
  ASSERT_TRUE(c.has_value());

  // Manually create the crash window: pending copy published, running copy
  // not yet removed (requeue() publishes pending first).
  write_raw(spool.path + "/pending/" + id + ".job", render_spool_job(c->job));
  ASSERT_TRUE(fs::exists(spool.path + "/running/" + id + ".job"));

  const auto rep = q.recover();
  EXPECT_EQ(rep.requeued, 1u);
  EXPECT_EQ(q.scan().pending, 1u);   // exactly one copy survives
  EXPECT_EQ(q.scan().running, 0u);
}

}  // namespace
}  // namespace stc
