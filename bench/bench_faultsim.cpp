// Fault-simulation throughput (google-benchmark): serial stuck-at
// campaigns vs the bit-parallel engines on the pipeline structure,
// single-session cost as a function of test length, and the compiled
// 64-lane evaluator against the scalar interpreter.
//
// Engine comparison: BM_FullFaultCampaign (one self-test run per fault)
// vs BM_FlatCampaign_* (every gate every cycle) vs BM_EventCampaign_*
// (event-driven: resident values, dense PLA-product sweep, sparse ORs).
// The campaign benchmarks carry a lane-width axis ("lanes" = 64/256/512,
// i.e. 63/255/511 faults per self-test run) and report faults simulated
// per second plus the mean per-cycle activity ratio and machine
// cycles/second, so the archived BENCH_faultsim.json tracks both the
// flat-vs-event and the per-width trajectory across PRs (compare two
// archives with scripts/bench_diff.py).

#include <benchmark/benchmark.h>

#include "benchdata/iwls93.hpp"
#include "netlist/eval64.hpp"
#include "synth/flow.hpp"

namespace {

using namespace stc;

ControllerStructure pipeline_for(const char* name) {
  const MealyMachine m = load_benchmark(name);
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  return build_fig4(m, real);
}

ControllerStructure fig1_for(const char* name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

void run_campaign_bench(benchmark::State& state, const ControllerStructure& cs,
                        CampaignEngine engine, std::size_t cycles,
                        std::size_t threads, unsigned lanes = 64) {
  CampaignOptions opt;
  opt.engine = engine;
  opt.num_threads = threads;
  opt.lane_words = lanes / 64;  // the axes hold 64, 256 and 512
  CampaignResult res;
  for (auto _ : state) {
    res = run_fault_campaign(cs, SelfTestPlan::two_session(cycles), opt);
    benchmark::DoNotOptimize(res.raw.detected);
  }
  state.counters["faults"] = static_cast<double>(res.raw.total);
  state.counters["detected"] = static_cast<double>(res.raw.detected);
  state.counters["classes"] = static_cast<double>(res.collapsed_total);
  state.counters["session_runs"] = static_cast<double>(res.session_runs);
  state.counters["activity"] = res.mean_activity();
  // Machine cycles simulated per second of wall time (x `lanes` machine
  // copies each).
  state.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(res.cycles_simulated) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  // The wide-lane headline metric: complete fault verdicts per second of
  // wall time (full list, pre-collapsing).
  state.counters["faults_per_sec"] = benchmark::Counter(
      static_cast<double>(res.raw.total) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SelfTestSession(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("dk27");
  const std::size_t cycles = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto sigs = run_self_test(cs, SelfTestPlan::two_session(cycles));
    benchmark::DoNotOptimize(sigs.output_sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * cycles));
}
BENCHMARK(BM_SelfTestSession)->Arg(64)->Arg(256)->Arg(1024);

// --- full campaigns: serial oracle vs the two lane engines -------------------

void BM_FullFaultCampaign(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("dk27");
  std::size_t detected = 0, total = 0;
  for (auto _ : state) {
    const auto cov = measure_coverage(cs, SelfTestPlan::two_session(128));
    detected = cov.detected;
    total = cov.total;
    benchmark::DoNotOptimize(cov.detected);
  }
  state.counters["faults"] = static_cast<double>(total);
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_FullFaultCampaign);

// Campaign benchmark axes: {threads, lanes}. The thread sweep runs at 64
// lanes; the lane-width sweep (the wide-lane acceptance axis) runs on one
// thread so the per-width speedup is not confounded with thread scaling.
void apply_campaign_axes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"threads", "lanes"});
  for (const std::int64_t threads : {1, 2, 4}) b->Args({threads, 64});
  for (const std::int64_t lanes : {256, 512}) b->Args({1, lanes});
}

void BM_FlatCampaign_dk27_fig4(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("dk27");
  run_campaign_bench(state, cs, CampaignEngine::kFlat, 128,
                     static_cast<std::size_t>(state.range(0)),
                     static_cast<unsigned>(state.range(1)));
}
BENCHMARK(BM_FlatCampaign_dk27_fig4)->Apply(apply_campaign_axes);

void BM_EventCampaign_dk27_fig4(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("dk27");
  run_campaign_bench(state, cs, CampaignEngine::kEvent, 128,
                     static_cast<std::size_t>(state.range(0)),
                     static_cast<unsigned>(state.range(1)));
}
BENCHMARK(BM_EventCampaign_dk27_fig4)->Apply(apply_campaign_axes);

// The larger conventional structures stress the engines with thousands of
// nets; the serial variant is bounded to tbk to keep the bench runnable
// (s1's serial campaign takes minutes).
void BM_FullFaultCampaignTbkFig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  for (auto _ : state) {
    const auto cov = measure_coverage(cs, SelfTestPlan::two_session(64));
    benchmark::DoNotOptimize(cov.detected);
  }
}
BENCHMARK(BM_FullFaultCampaignTbkFig1);

void BM_FlatCampaign_tbk_fig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  run_campaign_bench(state, cs, CampaignEngine::kFlat, 64,
                     static_cast<std::size_t>(state.range(0)),
                     static_cast<unsigned>(state.range(1)));
}
BENCHMARK(BM_FlatCampaign_tbk_fig1)->Apply(apply_campaign_axes);

void BM_EventCampaign_tbk_fig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  run_campaign_bench(state, cs, CampaignEngine::kEvent, 64,
                     static_cast<std::size_t>(state.range(0)),
                     static_cast<unsigned>(state.range(1)));
}
BENCHMARK(BM_EventCampaign_tbk_fig1)->Apply(apply_campaign_axes);

// s1: the largest bundled structure (~4.8k nets after PR 3). One thread;
// the lane axis carries this PR's acceptance bar (faults_per_sec at 256
// lanes >= 2x the 64-lane value on the event engine).
void BM_FlatCampaign_s1_fig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("s1");
  run_campaign_bench(state, cs, CampaignEngine::kFlat, 64, 1,
                     static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_FlatCampaign_s1_fig1)
    ->ArgName("lanes")->Arg(64)->Arg(256)->Arg(512);

void BM_EventCampaign_s1_fig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("s1");
  run_campaign_bench(state, cs, CampaignEngine::kEvent, 64, 1,
                     static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_EventCampaign_s1_fig1)
    ->ArgName("lanes")->Arg(64)->Arg(256)->Arg(512);

// shiftreg: the other machine named by the PR 2 acceptance bar.
void BM_CampaignSerialShiftreg(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("shiftreg");
  for (auto _ : state) {
    const auto cov = measure_coverage(cs, SelfTestPlan::two_session(128));
    benchmark::DoNotOptimize(cov.detected);
  }
}
BENCHMARK(BM_CampaignSerialShiftreg);

void BM_EventCampaign_shiftreg_fig4(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("shiftreg");
  run_campaign_bench(state, cs, CampaignEngine::kEvent, 128, 1);
}
BENCHMARK(BM_EventCampaign_shiftreg_fig4);

// --- evaluator microbenchmarks ----------------------------------------------

void BM_NetlistStep(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("shiftreg");
  auto st = cs.nl.initial_state();
  std::vector<std::uint8_t> in(cs.nl.num_inputs(), 0);
  std::vector<std::uint8_t> values;
  std::size_t k = 0;
  for (auto _ : state) {
    in[0] = (++k) & 1;
    cs.nl.step(in, st, values);
    benchmark::DoNotOptimize(values[cs.nl.outputs()[0]]);
  }
}
BENCHMARK(BM_NetlistStep);

void BM_CompiledEval64(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl);
  std::vector<std::uint64_t> in_lanes(nl.num_inputs(), 0);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs(), 0);
  std::vector<std::uint64_t> values(nl.num_nets());
  std::size_t k = 0;
  for (auto _ : state) {
    in_lanes[0] = (++k) & 1 ? ~std::uint64_t{0} : 0;
    cn.evaluate(in_lanes.data(), dff_lanes.data(), values.data());
    benchmark::DoNotOptimize(values[nl.num_nets() - 1]);
  }
  // 64 machine copies per evaluation.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_CompiledEval64);

void BM_CompiledEval64Event(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl);
  const LaneFaultMasks none(cn);
  EventScratch ev;
  std::vector<std::uint64_t> in_lanes(nl.num_inputs(), 0);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs(), 0);
  std::size_t k = 0;
  for (auto _ : state) {
    in_lanes[0] = (++k) & 1 ? ~std::uint64_t{0} : 0;
    cn.evaluate_event(none, in_lanes.data(), dff_lanes.data(), ev);
    benchmark::DoNotOptimize(ev.values[nl.num_nets() - 1]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["activity"] =
      ev.cycles == 0 ? 0.0
                     : static_cast<double>(ev.ops_evaluated) /
                           (static_cast<double>(ev.cycles) *
                            static_cast<double>(cn.num_ops()));
}
BENCHMARK(BM_CompiledEval64Event);

}  // namespace

BENCHMARK_MAIN();
