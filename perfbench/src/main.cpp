// stcbench -- the repository benchmark driver. One process runs one
// workload (synth, bist or service) on inputs generated from --seed,
// checks the outputs, and prints a human-readable report followed by one
// line "RESULT {json}" holding every metric, the host metadata and the
// seed. perfbench/run.py builds this program, runs it, and turns the
// RESULT line into the benchmark's final JSON line.
//
//   stcbench --workload synth|bist|service --seed N --seconds S
//            [--trace 0|1] [--commit SHA]
//
// It runs from the checkout root and keeps its scratch files (spools,
// traces) under .bench_build/work. --trace 1 keeps the spans, writes
// .bench_build/work/trace-<workload>-<seed>.json
// (Chrome trace-event format) and prints each layer's self time.
// Exit status: 0 when the run completed (the RESULT line says whether
// every check passed), 2 on bad arguments, 1 on an unexpected error.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/strings.hpp"

namespace {

using stcbench::Context;
using stcbench::Metric;

/// Every per-layer metric of the benchmark, with its unit. Each run
/// reports all of them; a layer the workload does not reach reads 0.
/// perfbench/WORKLOADS.md says which end-to-end metric each should move.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"flow.s", "s"},
    {"ostr.s", "s"},
    {"ostr.nodes", "count"},
    {"ostr.pruned", "count"},
    {"ostr.memo_hit_rate", "ratio"},
    {"verify.s", "s"},
    {"encoding.s", "s"},
    {"logic.minimize_s", "s"},
    {"logic.cubes", "count"},
    {"logic.literals_2l", "count"},
    {"logic.factor_s", "s"},
    {"logic.literals_ml", "count"},
    {"logic.factored_nodes", "count"},
    {"arch.build_s.fig1", "s"},
    {"arch.build_s.fig2", "s"},
    {"arch.build_s.fig3", "s"},
    {"arch.build_s.fig4", "s"},
    {"arch.nets", "count"},
    {"netlist.compile_s", "s"},
    {"netlist.ops_per_cycle", "count"},
    {"campaign.s", "s"},
    {"campaign.fig2_s", "s"},
    {"campaign.thorough_s", "s"},
    {"campaign.session_runs", "count"},
    {"campaign.cycles", "count"},
    {"campaign.ops_evaluated", "count"},
    {"campaign.activity", "ratio"},
    {"functional.s", "s"},
    {"functional.faults", "count"},
    {"fleet.s", "s"},
    {"fleet.instances", "count"},
    {"fleet.session_runs", "count"},
    {"queue.submit_s", "s"},
    {"queue.submits", "count"},
    {"daemon.overhead_p50_s", "s"},
    {"daemon.overhead_p90_s", "s"},
    {"job.run_p50_s", "s"},
    {"job.run_p90_s", "s"},
    {"pool.utilization", "ratio"},
    {"pool.tasks", "count"},
    {"pool.steals", "count"},
    {"cache.hit_rate", "ratio"},
    {"cache.ostr_misses", "count"},
    {"cache.structure_misses", "count"},
    {"cache.warm_misses", "count"},
    {"trace.overhead_s", "s"},
    {"trace.attributed", "ratio"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "stcbench: %s\nusage: stcbench --workload synth|bist|service --seed N "
               "--seconds S [--trace 0|1] [--commit SHA]\n",
               msg);
  return 2;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ",";
    out += stc::strprintf("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", name.c_str(),
                          metric.value, metric.unit.c_str());
  }
  return out + "}";
}

void print_table(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m)
    std::printf("  %-26s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc)
      return usage(("malformed argument " + a).c_str());
    args[a.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args)
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "commit")
      return usage(("unknown flag --" + key).c_str());

  Context ctx;
  ctx.workload = args.count("workload") ? args["workload"] : "";
  if (ctx.workload != "synth" && ctx.workload != "bist" && ctx.workload != "service")
    return usage("--workload must be synth, bist or service");
  try {
    ctx.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    ctx.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  if (!(ctx.seconds > 0.0 && ctx.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");
  const std::string trace_flag = args.count("trace") ? args["trace"] : "0";
  if (trace_flag != "0" && trace_flag != "1") return usage("--trace must be 0 or 1");
  ctx.traced = trace_flag == "1";
  const std::string commit = args.count("commit") ? args["commit"] : "unknown";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ctx.threads = std::min<std::size_t>(4, hw);
  for (const auto& [name, unit] : kLayerMetrics) ctx.out.layers[name] = Metric{0.0, unit};

  std::string trace_path;
  try {
    std::filesystem::create_directories(stcbench::kWorkDir);
    if (ctx.workload == "synth") stcbench::run_synth(ctx);
    if (ctx.workload == "bist") stcbench::run_bist(ctx);
    if (ctx.workload == "service") stcbench::run_service(ctx);

    ctx.out.metric("peak_rss_mb", stcbench::peak_rss_mb(), "MB");
    ctx.out.metric("error_rate",
                   static_cast<double>(ctx.out.failed) /
                       static_cast<double>(std::max<std::uint64_t>(1, ctx.out.attempted)),
                   "ratio");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stcbench: %s failed: %s\n", ctx.workload.c_str(), e.what());
    return 1;
  }

  const std::string host = stc::strprintf(
      "{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"eval_march_native\":%s,\"commit\":\"%s\"}",
      hw, STC_BENCH_COMPILER, STC_BENCH_BUILD_TYPE,
      STC_BENCH_EVAL_NATIVE ? "true" : "false", stcbench::json_escape(commit).c_str());

  if (ctx.traced) {
    trace_path = std::string(stcbench::kWorkDir) + "/trace-" + ctx.workload + "-" +
                 std::to_string(ctx.seed) + ".json";
    const std::string meta =
        stc::strprintf("{\"workload\":\"%s\",\"seed\":%llu,\"host\":%s}",
                       ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
                       host.c_str());
    if (!ctx.trace.write_chrome_json(trace_path, meta)) {
      std::fprintf(stderr, "stcbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }

  std::printf("stcbench %s seed=%llu seconds=%g traced=%d pid=%d\n", ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds, ctx.traced ? 1 : 0,
              static_cast<int>(getpid()));
  print_table("end-to-end metrics:", ctx.out.metrics);
  if (ctx.traced) {
    std::printf("layer self time (traced passes and set-up):\n");
    std::printf("  %-22s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s");
    for (const auto& row : ctx.trace.layer_table())
      std::printf("  %-22s %8zu %12.6f %12.6f\n", row.layer.c_str(), row.spans,
                  row.total_s, row.self_s);
    print_table("per-layer metrics:", ctx.out.layers);
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(ctx.out.attempted),
              static_cast<unsigned long long>(ctx.out.failed));

  std::string failures = "[";
  for (std::size_t i = 0; i < ctx.out.failures.size() && i < 20; ++i)
    failures += (i ? ",\"" : "\"") + stcbench::json_escape(ctx.out.failures[i]) + "\"";
  failures += "]";
  std::printf(
      "RESULT {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"traced\":%s,"
      "\"host\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"failures\":%s,\"trace_file\":\"%s\",\"metrics\":%s,\"layers\":%s}\n",
      ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed), ctx.seconds,
      ctx.traced ? "true" : "false", host.c_str(), ctx.out.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(ctx.out.attempted),
      static_cast<unsigned long long>(ctx.out.failed), failures.c_str(),
      stcbench::json_escape(trace_path).c_str(),
      metrics_json(ctx.out.metrics).c_str(), metrics_json(ctx.out.layers).c_str());
  return 0;
}
