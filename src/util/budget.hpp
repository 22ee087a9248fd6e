#pragma once
// Resource governance for the anytime synthesis flow.
//
// A Budget carries up to three limits: an absolute wall-clock deadline, a
// work-unit allowance (nodes, rounds, batches -- the stage decides the
// unit), and a shared CancelToken (SIGINT, a supervising service, a test).
// Stages consult it at points where stopping is *safe*: OSTR at frontier
// pops, espresso inside/between EXPAND-IRREDUNDANT-REDUCE rounds,
// factoring between divisor extractions, fault simulation every cycle.
//
// The contract every governed stage honors: ANY budget, however small,
// yields either a valid partial result labeled with a Degradation record,
// or a typed Error(kBudgetExhausted) where no valid partial result can
// exist. Budgets are value types -- each worker thread takes its own copy
// (the deadline is absolute and the cancel token shared, so all copies
// agree on when to stop; the work counter stays thread-local).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

namespace stc {

/// Shared cancellation flag. request() is async-signal-safe (a relaxed
/// atomic store), so a SIGINT handler may call it directly.
class CancelToken {
 public:
  void request() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool requested() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Install a process-wide SIGINT + SIGTERM handler that requests
/// cancellation on the returned token (SIGTERM is what a supervisor sends
/// a daemon; SIGINT is the interactive Ctrl-C). The first signal of either
/// kind cancels gracefully (stages unwind to their labeled partial
/// results, the daemon drains); it also restores the default disposition
/// for BOTH signals, so a second signal terminates the process -- the
/// async-signal-safe escape hatch for a drain that wedges. Idempotent:
/// repeated calls return the same token.
std::shared_ptr<CancelToken> install_sigint_cancel();

class Budget {
 public:
  /// Default budget: unlimited, never expires.
  Budget() = default;

  static Budget unlimited() { return Budget(); }
  static Budget deadline_ms(double ms) { return Budget().with_deadline_ms(ms); }
  static Budget work_limit(std::uint64_t units) {
    return Budget().with_work(units);
  }

  /// Absolute deadline `ms` milliseconds from now; one beyond the clock's
  /// range saturates to its latest time point and never expires.
  Budget& with_deadline_ms(double ms);
  /// Allowance of stage-defined work units charged via spend().
  Budget& with_work(std::uint64_t units);
  Budget& with_cancel(std::shared_ptr<const CancelToken> token);

  bool is_unlimited() const {
    return !has_deadline_ && work_allowance_ == UINT64_MAX && !cancel_;
  }
  std::uint64_t work_allowance() const { return work_allowance_; }
  /// Whether `o` sets the same deadline, allowance and cancel token (the
  /// work already spent is not compared).
  bool same_limits(const Budget& o) const {
    return has_deadline_ == o.has_deadline_ && deadline_ == o.deadline_ &&
           work_allowance_ == o.work_allowance_ && cancel_ == o.cancel_;
  }

  /// Charge `units` of work and report whether the budget is exhausted
  /// (work must stop at the next safe point). Every call checks the
  /// allowance, the cancel token and the deadline, so a stage sees a
  /// deadline or a cancel at its very next unit, however coarse the units.
  /// An unlimited budget costs a few compares; a deadline adds one clock
  /// read.
  bool spend(std::uint64_t units = 1) {
    spent_ += units;
    if (spent_ > work_allowance_) {
      reason_ = "work-allowance";
      return true;
    }
    return exhausted();
  }

  /// Point-in-time check (round / batch granularity): consults the cancel
  /// token, the deadline, and the allowance; charges nothing.
  bool exhausted() const;

  /// Why the last spend()/exhausted() reported exhaustion:
  /// "deadline", "work-allowance", "cancelled", or "" when not exhausted.
  const char* reason() const { return reason_; }

  std::uint64_t work_spent() const { return spent_; }

 private:
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t work_allowance_ = UINT64_MAX;
  std::uint64_t spent_ = 0;
  std::shared_ptr<const CancelToken> cancel_;
  mutable const char* reason_ = "";
};

/// What one governed stage did with its budget. A degraded result is
/// *labeled*, never silent: every stage that truncated work reports which
/// work, how much of it, and why it stopped.
struct Degradation {
  std::string stage;             // "ostr", "espresso", "factor", "campaign"
  bool degraded = false;         // true when any work was truncated
  std::string reason;            // budget reason() at the stop, "" if none
  std::string detail;            // human-readable: what was truncated
  std::uint64_t work_done = 0;   // stage units completed
  std::uint64_t work_total = 0;  // stage units requested (0 = open-ended)
};

/// The record of a stage that did `done` of `total` work units (`total` 0
/// = open-ended). When `truncated` it is degraded, labeled with `reason`
/// -- a budget's reason(), or "work-allowance" when that is empty -- and
/// with `detail`; otherwise reason and detail stay empty.
Degradation truncation_label(std::string stage, std::uint64_t done,
                             std::uint64_t total, bool truncated,
                             const char* reason, std::string detail);

/// One line, e.g. "espresso degraded (deadline): 3/8 rounds -- returned
/// best cover so far". Returns "" for a non-degraded record.
std::string render_degradation(const Degradation& d);

}  // namespace stc
