#pragma once
// Benchmark-side tracing: spans around the benchmark's calls into each
// layer of the library. The library itself is not instrumented; a span
// covers one public call (solve_ostr, build_fig2, run_fault_campaign,
// run_daemon, ...), so a layer's self time is the time spent in the calls
// the benchmark makes into it.
//
// Spans are always timed (the workloads read their own timings from
// them); they are only kept while recording is on. Kept spans stay in
// memory and are written once, at the end, as Chrome trace-event JSON
// (loads in Perfetto and chrome://tracing).

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace stcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One kept span. `parent` indexes the enclosing span on the same track
/// (-1 = top level). Track 0 is the benchmark's main thread; the service
/// workload puts daemon jobs, which overlap, on tracks 1..n.
struct SpanRecord {
  std::string layer;  // module, e.g. "ostr", "bist/session", "jobs/daemon"
  std::string name;   // the call and its subject, e.g. "solve_ostr s1"
  int track = 0;
  int parent = -1;
  Clock::time_point start, end;
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  /// RAII span on track 0. close() ends it early and returns its length.
  class Span {
   public:
    Span(Trace& trace, const char* layer, std::string name);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double close();

   private:
    Trace& trace_;
    int index_ = -1;  // kept span, or -1 when not recording
    Clock::time_point start_;
    double seconds_ = -1.0;  // set by close()
  };

  /// Keep a span measured elsewhere (daemon jobs, from log timestamps).
  void add_span(const char* layer, std::string name, int track,
                Clock::time_point start, Clock::time_point end);

  struct LayerRow {
    std::string layer;
    std::size_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time covered by child spans
  };
  /// One row per layer, in order of first appearance.
  std::vector<LayerRow> layer_table() const;

  /// Seconds of [from, to] covered by top-level spans of track 0.
  double covered_seconds(Clock::time_point from, Clock::time_point to) const;

  /// Write Chrome trace-event JSON; `metadata` (a JSON object) is stored
  /// under "otherData". Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path, const std::string& metadata) const;

 private:
  Clock::time_point origin_;
  bool recording_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open track-0 span indices
};

}  // namespace stcbench
