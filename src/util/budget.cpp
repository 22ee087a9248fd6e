#include "util/budget.hpp"

#include <algorithm>
#include <csignal>

#include "util/strings.hpp"

namespace stc {

Budget& Budget::with_deadline_ms(double ms) {
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::duration<double, std::milli>;
  const Clock::time_point now = Clock::now();
  // Negative or NaN: already expired. Past the clock's range (less 1 ms
  // for the double's rounding): saturate instead of wrapping around.
  const double room_ms = Ms(Clock::time_point::max() - now).count() - 1.0;
  deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                        Ms(std::clamp(ms >= 0 ? ms : 0.0, 0.0, room_ms)));
  has_deadline_ = true;
  return *this;
}

Budget& Budget::with_work(std::uint64_t units) {
  work_allowance_ = units;
  return *this;
}

Budget& Budget::with_cancel(std::shared_ptr<const CancelToken> token) {
  cancel_ = std::move(token);
  return *this;
}

bool Budget::exhausted() const {
  if (cancel_ && cancel_->requested()) {
    reason_ = "cancelled";
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    reason_ = "deadline";
    return true;
  }
  if (spent_ > work_allowance_) {
    reason_ = "work-allowance";
    return true;
  }
  return false;
}

namespace {

// The handler may only touch async-signal-safe state: relaxed atomic
// stores on a token that outlives the handler (leaked on purpose), and
// signal() itself (async-signal-safe per POSIX).
CancelToken* g_shutdown_token = nullptr;

extern "C" void shutdown_cancel_handler(int) {
  if (g_shutdown_token) g_shutdown_token->request();
  // A second signal -- of EITHER kind -- kills the process: restore both
  // default dispositions so an operator (or supervisor escalating from
  // TERM) always has a forcible way out of a wedged drain.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

}  // namespace

std::shared_ptr<CancelToken> install_sigint_cancel() {
  static std::shared_ptr<CancelToken> token = [] {
    auto t = std::make_shared<CancelToken>();
    g_shutdown_token = t.get();
    std::signal(SIGINT, shutdown_cancel_handler);
    std::signal(SIGTERM, shutdown_cancel_handler);
    return t;
  }();
  return token;
}

Degradation truncation_label(std::string stage, std::uint64_t done,
                             std::uint64_t total, bool truncated,
                             const char* reason, std::string detail) {
  if (!truncated) return {std::move(stage), false, "", "", done, total};
  return {std::move(stage), true, *reason ? reason : "work-allowance",
          std::move(detail), done, total};
}

std::string render_degradation(const Degradation& d) {
  if (!d.degraded) return "";
  std::string out = d.stage + " degraded";
  if (!d.reason.empty()) out += " (" + d.reason + ")";
  if (d.work_total > 0) {
    out += strprintf(": %llu/%llu", static_cast<unsigned long long>(d.work_done),
                     static_cast<unsigned long long>(d.work_total));
  } else if (d.work_done > 0) {
    out += strprintf(": %llu units", static_cast<unsigned long long>(d.work_done));
  }
  if (!d.detail.empty()) out += " -- " + d.detail;
  return out;
}

}  // namespace stc
