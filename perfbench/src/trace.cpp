#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace stcbench {

Trace::Span::Span(Trace& trace, const char* layer, std::string name)
    : trace_(trace), start_(Clock::now()) {
  if (!trace_.recording_) return;
  SpanRecord rec;
  rec.layer = layer;
  rec.name = std::move(name);
  rec.parent = trace_.open_.empty() ? -1 : trace_.open_.back();
  rec.start = start_;
  index_ = static_cast<int>(trace_.spans_.size());
  trace_.spans_.push_back(std::move(rec));
  trace_.open_.push_back(index_);
}

double Trace::Span::close() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = seconds_between(start_, end);
  if (index_ >= 0) {
    trace_.spans_[static_cast<std::size_t>(index_)].end = end;
    // Spans close in LIFO order (they are scoped), so this one is on top.
    if (!trace_.open_.empty() && trace_.open_.back() == index_)
      trace_.open_.pop_back();
  }
  return seconds_;
}

void Trace::add_span(const char* layer, std::string name, int track,
                     Clock::time_point start, Clock::time_point end) {
  if (!recording_) return;
  SpanRecord rec;
  rec.layer = layer;
  rec.name = std::move(name);
  rec.track = track;
  rec.start = start;
  rec.end = end;
  spans_.push_back(std::move(rec));
}

std::vector<Trace::LayerRow> Trace::layer_table() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);

  std::vector<LayerRow> rows;
  std::map<std::string, std::size_t> row_of;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto [it, inserted] = row_of.emplace(s.layer, rows.size());
    if (inserted) rows.push_back(LayerRow{s.layer});
    LayerRow& row = rows[it->second];
    const double dur = seconds_between(s.start, s.end);
    ++row.spans;
    row.total_s += dur;
    row.self_s += dur - child_s[i];
  }
  return rows;
}

double Trace::covered_seconds(Clock::time_point from, Clock::time_point to) const {
  // Top-level track-0 spans never overlap (they are sequential scopes).
  double covered = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.track != 0 || s.parent >= 0) continue;
    const auto a = std::max(s.start, from);
    const auto b = std::min(s.end, to);
    if (b > a) covered += seconds_between(a, b);
  }
  return covered;
}

bool Trace::write_chrome_json(const std::string& path,
                              const std::string& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n",
               metadata.c_str());
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"benchmark\"}}");
  int max_track = 0;
  for (const SpanRecord& s : spans_) max_track = std::max(max_track, s.track);
  for (int t = 1; t <= max_track; ++t)
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"daemon job slot %d\"}}",
                 t, t);
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 s.track, json_escape(s.layer).c_str(), json_escape(s.name).c_str(),
                 us(s.start), us(s.end) - us(s.start));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace stcbench
