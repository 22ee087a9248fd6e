#include "bench.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace stcbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
  std::fprintf(stderr, "stcbench: check failed: %s\n", what.c_str());
}

void Outcome::metric(const std::string& name, double value, const char* unit) {
  metrics[name] = Metric{value, unit};
}

double& Outcome::layer(const std::string& name) {
  auto it = layers.find(name);
  if (it == layers.end())
    throw std::logic_error("stcbench: undeclared per-layer metric " + name);
  return it->second.value;
}

std::vector<Pass> run_passes(Context& ctx, const std::function<double(std::size_t)>& body) {
  std::vector<Pass> passes;
  double measured = 0.0;
  bool any_recorded = false;
  for (std::size_t i = 0;; ++i) {
    const bool record = ctx.traced && i > 0;
    ctx.trace.set_recording(record);
    const double s = body(i);
    ctx.trace.set_recording(false);
    passes.push_back(Pass{s, record});
    std::fprintf(stderr, "stcbench: %s pass %zu%s: %.4f s\n", ctx.workload.c_str(), i,
                 record ? " (recorded)" : "", s);
    measured += s;
    any_recorded = any_recorded || record;
    if (measured >= ctx.seconds && (!ctx.traced || any_recorded))
      break;
  }
  return passes;
}

namespace {

double median_pass(const std::vector<Pass>& passes, bool recorded) {
  std::vector<double> v;
  for (const Pass& p : passes)
    if (p.recorded == recorded) v.push_back(p.seconds);
  return quantile(std::move(v), 0.5);
}

}  // namespace

void Reps::merge(const Reps& other) {
  for (const auto& [unit, reps] : other.seconds_)
    seconds_[unit].insert(seconds_[unit].end(), reps.begin(), reps.end());
}

double Reps::best(const std::string& unit) const {
  const auto it = seconds_.find(unit);
  if (it == seconds_.end() || it->second.empty()) return 0.0;
  return *std::min_element(it->second.begin(), it->second.end());
}

double Reps::best_sum(const std::string& prefix) const {
  double sum = 0.0;
  for (const auto& [unit, reps] : seconds_)
    if (unit.compare(0, prefix.size(), prefix) == 0) sum += best(unit);
  return sum;
}

std::vector<double> race(std::size_t copies, const std::function<void(std::size_t)>& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);

  std::vector<double> seconds(copies);
  std::vector<std::exception_ptr> errors(copies);
  std::atomic<std::size_t> ready{0};
  const auto copy = [&](std::size_t k) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[k % cpus.size()], &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }
    ++ready;
    while (ready.load() < copies) std::this_thread::yield();  // start together
    const Clock::time_point t0 = Clock::now();
    try {
      fn(k);
    } catch (...) {
      errors[k] = std::current_exception();
    }
    seconds[k] = seconds_between(t0, Clock::now());
  };
  std::vector<std::thread> threads;
  for (std::size_t k = 1; k < copies; ++k) threads.emplace_back(copy, k);
  copy(0);
  for (std::thread& t : threads) t.join();
  pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return seconds;
}

double timed_race(Context& ctx, Reps& reps, const char* layer, const std::string& name,
                  const std::string& unit, const std::function<void(std::size_t)>& fn) {
  Trace::Span span(ctx.trace, layer, name);
  for (const double s : race(ctx.threads, fn)) reps.add(unit, s);
  return span.close();
}

void report_trace_overhead(Context& ctx, const std::vector<Pass>& passes,
                           Clock::time_point from, Clock::time_point to) {
  if (!ctx.traced) return;
  ctx.out.layer("trace.overhead_s") =
      median_pass(passes, true) - median_pass(passes, false);
  const double window = seconds_between(from, to);
  ctx.out.layer("trace.attributed") =
      window > 0.0 ? ctx.trace.covered_seconds(from, to) / window : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  stc::Rng rng(seed);
  rng.shuffle(order);
  return order;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace stcbench
