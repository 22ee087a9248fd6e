#pragma once
// Shared shape of the three benchmark workloads (synth, bist, service):
// the run context, the metric record every workload fills, and the
// statistics helpers. See perfbench/WORKLOADS.md for what each workload
// runs and which layer metric should move which end-to-end metric.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace stcbench {

/// Scratch space of a run (spools, traces), relative to the checkout root
/// the benchmark runs from.
inline const char* const kWorkDir = ".bench_build/work";

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run measures. `metrics` holds the end-to-end metrics the
/// workload defines; `layers` holds every per-layer metric of the
/// benchmark (declared up front, zero where the workload does not reach
/// the layer).
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Count one checked operation; a failed one is recorded by name.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const char* unit);
  /// A declared per-layer metric; throws on an undeclared name.
  double& layer(const std::string& name);
};

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  // measured time per run
  bool traced = false;
  std::size_t threads = 1;  // min(4, nproc)
  Trace trace;
  Outcome out;
};

void run_synth(Context& ctx);
void run_bist(Context& ctx);
void run_service(Context& ctx);

/// One timed pass of a workload body.
struct Pass {
  double seconds = 0.0;
  bool recorded = false;  // spans kept (traced runs only)
};

/// Repeat `body(pass_index)` until the passes add up to ctx.seconds;
/// `body` returns the seconds of its timed region. In a traced run the
/// first pass runs with recording off -- the untraced reference for the
/// tracing overhead -- and at least one recorded pass follows.
std::vector<Pass> run_passes(Context& ctx, const std::function<double(std::size_t)>& body);

/// Timings of a workload's repeated units (one flow, one campaign, one
/// drain, one set-up step). The shared hosts this runs on slow single
/// CPUs down by up to ~1.5x for phases of seconds to minutes, each CPU in
/// its own phases, and a slow phase only ever adds time. A unit's time is
/// therefore its fastest repetition, and a workload's time the sum of its
/// units' fastest repetitions. The single-threaded units run as races
/// (see race()), so their repetitions cover every CPU at once as well as
/// several points in time. (Phases that slow every CPU at once for longer
/// than a run remain; see perfbench/WORKLOADS.md.)
class Reps {
 public:
  void add(const std::string& unit, double seconds) { seconds_[unit].push_back(seconds); }
  void merge(const Reps& other);
  /// Fastest repetition of `unit` (0 when it never ran).
  double best(const std::string& unit) const;
  /// Sum of best() over the units whose name starts with `prefix`.
  double best_sum(const std::string& prefix) const;

 private:
  std::map<std::string, std::vector<double>> seconds_;
};

/// Run `fn(copy)` for copy = 0..copies-1 at the same time, each copy on a
/// thread of its own pinned to its own CPU (copy 0 on the calling thread,
/// whose CPU mask is restored afterwards), and return each copy's
/// seconds. Only copy 0 may touch the run's Trace or Outcome. The first
/// exception a copy threw is rethrown once every copy has finished.
std::vector<double> race(std::size_t copies, const std::function<void(std::size_t)>& fn);

/// race() on ctx.threads copies as one span, adding every copy's seconds
/// to `reps` under `unit`; returns the race's wall time.
double timed_race(Context& ctx, Reps& reps, const char* layer, const std::string& name,
                  const std::string& unit, const std::function<void(std::size_t)>& fn);

/// Report trace.overhead_s (recorded minus unrecorded median pass) and
/// trace.attributed (share of [from, to] inside top-level spans) for a
/// traced run; no-op otherwise.
void report_trace_overhead(Context& ctx, const std::vector<Pass>& passes,
                           Clock::time_point from, Clock::time_point to);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A seeded permutation of 0..n-1.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

std::string json_escape(const std::string& s);

}  // namespace stcbench
