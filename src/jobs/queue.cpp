#include "jobs/queue.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/strings.hpp"

namespace stc {
namespace fs = std::filesystem;

namespace {

std::string errno_context(const std::string& path) {
  return "path=" + path + "; errno=" + std::to_string(errno) + " (" +
         std::strerror(errno) + ")";
}

/// Close-on-scope-exit so an injected throw never leaks a descriptor.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

void write_all(int fd, const char* data, std::size_t n,
               const std::string& path) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw Error(ErrorCode::kIo, "spool write failed", errno_context(path));
    }
    off += static_cast<std::size_t>(w);
  }
}

/// Temp files are named "<final>.<pid>.<seq>.tmp" (write_file_atomic).
/// Returns the embedded writer pid, or -1 if the name does not parse.
long temp_owner_pid(const std::string& name) {
  const auto suffix = name.rfind(".tmp");
  if (suffix == std::string::npos || suffix == 0 ||
      suffix + 4 != name.size())
    return -1;
  const auto seq_dot = name.rfind('.', suffix - 1);
  if (seq_dot == std::string::npos || seq_dot == 0) return -1;
  const auto pid_dot = name.rfind('.', seq_dot - 1);
  if (pid_dot == std::string::npos) return -1;
  const std::string pid_str = name.substr(pid_dot + 1, seq_dot - pid_dot - 1);
  if (pid_str.empty() ||
      pid_str.find_first_not_of("0123456789") != std::string::npos)
    return -1;
  errno = 0;
  char* end = nullptr;
  const long pid = std::strtol(pid_str.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || pid <= 0) return -1;
  return pid;
}

/// A temp whose writer is still running may be mid-publish; only temps
/// this stale are swept even when the owner pid looks alive (covers a
/// writer that errored out and abandoned its temp, and pid recycling).
constexpr auto kAbandonedTempAge = std::chrono::minutes(1);

/// fsync the directory containing `path` so the published rename itself is
/// durable (best effort: some filesystems reject directory fsync).
void fsync_parent_dir(const std::string& path) {
  const std::string dir = fs::path(path).parent_path().string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::uint64_t parse_u64_field(const std::string& key, const std::string& value) {
  try {
    return parse_size(value);
  } catch (const std::exception&) {
    throw Error(ErrorCode::kInvalidInput, "bad integer in spool file",
                "key=" + key + "; value=" + value);
  }
}

/// A finite number: "inf" or "nan" is as malformed as "abc".
double parse_double_field(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v))
    throw Error(ErrorCode::kInvalidInput, "bad number in spool file",
                "key=" + key + "; value=" + value);
  return v;
}

/// Iterate `key = value` lines ('#'-comments and blanks skipped), calling
/// fn(key, value). A malformed line, or an Error from fn, throws a typed
/// Error whose context starts "file=<origin>; line=<n>".
template <typename Fn>
void parse_kv_lines(const std::string& text, const std::string& origin,
                    Fn&& fn) {
  std::size_t line_no = 0;
  for (const std::string& raw : split_on(text, '\n')) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::string where =
        "file=" + origin + "; line=" + std::to_string(line_no);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      throw Error(ErrorCode::kInvalidInput, "malformed spool file line",
                  where + "; expected 'key = value', got '" + line + "'");
    try {
      fn(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    } catch (const Error& e) {
      throw e.within(where);
    }
  }
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw Error(ErrorCode::kIo, "cannot read spool file", errno_context(path));
  FdCloser closer{fd};
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw Error(ErrorCode::kIo, "spool read failed", errno_context(path));
    }
    if (r == 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  return out;
}

void rename_or_throw(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0)
    throw Error(ErrorCode::kIo, "spool rename failed",
                errno_context(from) + "; to=" + to);
}

}  // namespace

std::uint64_t unix_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// --- spec / result file formats ---------------------------------------------

std::string render_spool_job(const SpoolJob& job) {
  std::string out = "# stc job spec\n" + render_job_fields(job.spec);
  out += strprintf("budget_ms = %.3f\n", job.budget_ms);
  out += "attempts = " + std::to_string(job.attempts) + "\n";
  out += "recoveries = " + std::to_string(job.recoveries) + "\n";
  out += "not_before_unix_ms = " + std::to_string(job.not_before_unix_ms) + "\n";
  return out;
}

SpoolJob parse_spool_job(const std::string& text, const std::string& origin) {
  SpoolJob job;
  parse_kv_lines(text, origin, [&](const std::string& key,
                                   const std::string& value) {
    // The queue's own keys; every other key is a spec field.
    if (key == "budget_ms") job.budget_ms = parse_double_field(key, value);
    else if (key == "attempts") job.attempts = parse_u64_field(key, value);
    else if (key == "recoveries") job.recoveries = parse_u64_field(key, value);
    else if (key == "not_before_unix_ms")
      job.not_before_unix_ms = parse_u64_field(key, value);
    else set_job_field(job.spec, key, value);
  });
  if (job.spec.machine.empty())
    throw Error(ErrorCode::kInvalidInput, "spool spec missing machine",
                "file=" + origin);
  return job;
}

std::string render_spool_result(const SpoolResult& r) {
  std::string out = "# stc job result\n";
  out += "id = " + r.id + "\n";
  out += "status = " + r.status + "\n";
  if (!r.error.empty()) out += "error = " + r.error + "\n";
  if (!r.error_code.empty()) out += "error_code = " + r.error_code + "\n";
  out += "attempts = " + std::to_string(r.attempts) + "\n";
  out += strprintf("seconds = %.6f\n", r.seconds);
  if (r.coverage >= 0.0) out += strprintf("coverage = %.6f\n", r.coverage);
  out += "total_faults = " + std::to_string(r.total_faults) + "\n";
  out += strprintf("area_ge = %.3f\n", r.area_ge);
  if (r.fleet_instances > 0)
    out += "fleet_instances = " + std::to_string(r.fleet_instances) + "\n";
  if (!r.degradation.empty()) out += "degradation = " + r.degradation + "\n";
  return out;
}

SpoolResult parse_spool_result(const std::string& text,
                               const std::string& origin) {
  SpoolResult r;
  parse_kv_lines(text, origin, [&](const std::string& key,
                                   const std::string& value) {
    if (key == "id") r.id = value;
    else if (key == "status") r.status = value;
    else if (key == "error") r.error = value;
    else if (key == "error_code") r.error_code = value;
    else if (key == "attempts") r.attempts = parse_u64_field(key, value);
    else if (key == "seconds") r.seconds = parse_double_field(key, value);
    else if (key == "coverage") r.coverage = parse_double_field(key, value);
    else if (key == "total_faults") r.total_faults = parse_u64_field(key, value);
    else if (key == "area_ge") r.area_ge = parse_double_field(key, value);
    else if (key == "fleet_instances") r.fleet_instances = parse_u64_field(key, value);
    else if (key == "degradation") r.degradation = value;
    else throw Error(ErrorCode::kInvalidInput, "unknown spool result key", "key=" + key);
  });
  if (r.status.empty())
    throw Error(ErrorCode::kInvalidInput, "spool result missing status",
                "file=" + origin);
  return r;
}

// --- JobQueue ----------------------------------------------------------------

JobQueue::JobQueue(std::string root) : root_(std::move(root)) {
  pending_ = root_ + "/pending";
  running_ = root_ + "/running";
  done_ = root_ + "/done";
  failed_ = root_ + "/failed";
  tmp_ = root_ + "/tmp";
  std::error_code ec;
  for (const std::string* d : {&root_, &pending_, &running_, &done_, &failed_,
                               &tmp_}) {
    fs::create_directories(*d, ec);
    if (ec)
      throw Error(ErrorCode::kIo, "cannot create spool directory",
                  "path=" + *d + "; error=" + ec.message());
  }
}

void JobQueue::write_file_atomic(const std::string& final_path,
                                 const std::string& content) {
  const std::string temp =
      tmp_ + "/" + fs::path(final_path).filename().string() + "." +
      std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(seq_++) + ".tmp";
  {
    const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
      throw Error(ErrorCode::kIo, "cannot create spool temp file",
                  errno_context(temp));
    FdCloser closer{fd};
    // The torn-write fault point sits between the two halves of the
    // payload: firing it leaves a syntactically broken temp file on disk
    // -- exactly the state a power cut mid-write produces. Recovery must
    // clean it and the half-written data must never become visible.
    const std::size_t half = content.size() / 2;
    write_all(fd, content.data(), half, temp);
    fault_point("queue.write.torn");
    write_all(fd, content.data() + half, content.size() - half, temp);
    if (::fsync(fd) != 0)
      throw Error(ErrorCode::kIo, "spool fsync failed", errno_context(temp));
  }
  fault_point("queue.write.rename");
  rename_or_throw(temp, final_path);
  fsync_parent_dir(final_path);
}

std::string JobQueue::submit(SpoolJob job) {
  if (job.id.empty()) {
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count();
    job.id = strprintf("%016llx-%05lx-%04llx",
                       static_cast<unsigned long long>(micros),
                       static_cast<unsigned long>(::getpid()),
                       static_cast<unsigned long long>(seq_++));
  }
  fault_point("queue.submit.write");
  write_file_atomic(pending_ + "/" + job.id + ".job", render_spool_job(job));
  return job.id;
}

std::vector<std::string> JobQueue::list_ids(const std::string& dir) const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (ends_with(name, ".job"))
      ids.push_back(name.substr(0, name.size() - 4));
  }
  // Ids are fixed-width hex with a timestamp prefix, so lexicographic
  // order IS submission order -- the claim fairness guarantee.
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<JobQueue::Claimed> JobQueue::claim() {
  const std::uint64_t now = unix_now_ms();
  for (const std::string& id : list_ids(pending_)) {
    const std::string path = pending_ + "/" + id + ".job";
    std::string text;
    try {
      text = read_file(path);
    } catch (const Error&) {
      continue;  // raced away (another submit/restart window); next entry
    }
    SpoolJob job;
    try {
      job = parse_spool_job(text, path);
    } catch (const Error& e) {
      // A malformed spec must not wedge the queue: retire it as failed
      // with the parse error preserved, then keep claiming.
      SpoolResult r;
      r.id = id;
      r.status = "failed";
      r.error = e.what();
      r.error_code = error_code_name(e.code());
      write_file_atomic(failed_ + "/" + id + ".result",
                        render_spool_result(r));
      rename_or_throw(path, failed_ + "/" + id + ".job");
      continue;
    }
    if (job.not_before_unix_ms > now) continue;  // backoff still in force
    job.id = id;
    fault_point("queue.claim.rename");
    if (::rename(path.c_str(), (running_ + "/" + id + ".job").c_str()) != 0) {
      if (errno == ENOENT) continue;  // raced away
      throw Error(ErrorCode::kIo, "spool claim rename failed",
                  errno_context(path));
    }
    return Claimed{std::move(job)};
  }
  return std::nullopt;
}

void JobQueue::retire(const Claimed& c, SpoolResult r, const std::string& dir) {
  r.id = c.job.id;
  // Publish the result FIRST, move the job file second. A crash between
  // the two leaves running/<id>.job + <dir>/<id>.result, which recover()
  // resolves by completing the move -- never by re-running. This ordering
  // is what makes retirement exactly-once.
  fault_point("queue.commit.write");
  write_file_atomic(dir + "/" + c.job.id + ".result", render_spool_result(r));
  fault_point("queue.commit.rename");
  rename_or_throw(running_ + "/" + c.job.id + ".job",
                  dir + "/" + c.job.id + ".job");
}

void JobQueue::complete(const Claimed& c, SpoolResult r) {
  retire(c, std::move(r), done_);
}

void JobQueue::fail(const Claimed& c, SpoolResult r) {
  retire(c, std::move(r), failed_);
}

void JobQueue::requeue(const Claimed& c, const SpoolJob& updated) {
  SpoolJob j = updated;
  j.id = c.job.id;
  // Publish into pending/ first, then drop the running claim. A crash
  // between the two leaves both; recover() sees the pending copy and
  // simply discards the stale running one.
  fault_point("queue.requeue.write");
  write_file_atomic(pending_ + "/" + j.id + ".job", render_spool_job(j));
  std::error_code ec;
  fs::remove(running_ + "/" + j.id + ".job", ec);
}

JobQueue::RecoveryReport JobQueue::recover(std::uint64_t max_recoveries) {
  RecoveryReport rep;
  std::error_code ec;

  // Torn temp files (a crash mid-write) live only in tmp/ -- by
  // construction nothing half-written is ever visible in a state
  // directory. The sweep must not race a LIVE producer though: submit()
  // runs in arbitrary processes, and deleting a temp out from under a
  // writer makes its publishing rename fail with ENOENT. The temp name
  // embeds the writer's pid, so a temp is swept only when its owner is
  // gone or it has sat long enough to be plainly abandoned.
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : fs::directory_iterator(tmp_, ec)) {
    const long pid = temp_owner_pid(entry.path().filename().string());
    const bool owner_alive =
        pid > 0 &&
        (::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM);
    if (owner_alive) {
      std::error_code age_ec;
      const auto mtime = fs::last_write_time(entry.path(), age_ec);
      if (!age_ec && now - mtime < kAbandonedTempAge) continue;
    }
    fs::remove(entry.path(), ec);
    ++rep.tmp_cleaned;
  }

  for (const std::string& id : list_ids(running_)) {
    const std::string running_path = running_ + "/" + id + ".job";
    // Result already published? The previous process died between the
    // result write and the job-file move: finish the move, don't re-run.
    if (fs::exists(done_ + "/" + id + ".result", ec)) {
      rename_or_throw(running_path, done_ + "/" + id + ".job");
      ++rep.completed_moves;
      continue;
    }
    if (fs::exists(failed_ + "/" + id + ".result", ec)) {
      rename_or_throw(running_path, failed_ + "/" + id + ".job");
      ++rep.completed_moves;
      continue;
    }
    // Half-finished requeue (pending copy already published): the running
    // file is the stale duplicate.
    if (fs::exists(pending_ + "/" + id + ".job", ec)) {
      fs::remove(running_path, ec);
      ++rep.requeued;
      continue;
    }

    SpoolJob job;
    bool parsed = true;
    std::string parse_error, parse_code;
    try {
      job = parse_spool_job(read_file(running_path), running_path);
      job.id = id;
    } catch (const Error& e) {
      parsed = false;
      parse_error = e.what();
      parse_code = error_code_name(e.code());
    }

    if (!parsed || job.recoveries + 1 > max_recoveries) {
      // Poison guard: a job that keeps crashing the daemon (or cannot even
      // be re-read) must not crash-loop the queue forever.
      SpoolResult r;
      r.id = id;
      r.status = "failed";
      r.attempts = parsed ? job.attempts : 0;
      if (parsed) {
        r.error = strprintf(
            "job crashed the daemon %llu times (max_recoveries=%llu)",
            static_cast<unsigned long long>(job.recoveries + 1),
            static_cast<unsigned long long>(max_recoveries));
        r.error_code = error_code_name(ErrorCode::kInternal);
      } else {
        r.error = parse_error;
        r.error_code = parse_code;
      }
      write_file_atomic(failed_ + "/" + id + ".result",
                        render_spool_result(r));
      rename_or_throw(running_path, failed_ + "/" + id + ".job");
      ++rep.poisoned;
      continue;
    }

    job.recoveries += 1;
    job.not_before_unix_ms = 0;  // crashed work re-runs immediately
    write_file_atomic(pending_ + "/" + id + ".job", render_spool_job(job));
    fs::remove(running_path, ec);
    ++rep.requeued;
  }
  return rep;
}

JobQueue::Counts JobQueue::scan() const {
  return Counts{list_ids(pending_).size(), list_ids(running_).size(),
                list_ids(done_).size(), list_ids(failed_).size()};
}

std::optional<SpoolResult> JobQueue::result(const std::string& id) const {
  for (const std::string* dir : {&done_, &failed_}) {
    const std::string path = *dir + "/" + id + ".result";
    std::error_code ec;
    if (!fs::exists(path, ec)) continue;
    return parse_spool_result(read_file(path), path);
  }
  return std::nullopt;
}

}  // namespace stc
