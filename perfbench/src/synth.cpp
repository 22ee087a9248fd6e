// Workload `synth`: the synthesis flow without fault simulation.
//
// Set-up loads the four machines and runs one warm-up flow. Each timed
// pass runs run_flow on s1 (two-level) and tbk, dk16, bbara (multi-level)
// in an order drawn from the seed, each flow as a race on every CPU (see
// race()); wall_s sums each flow's fastest repetition (see Reps).
// Afterwards the benchmark calls each layer on every machine again --
// solve_ostr, build_realization, verify_realization, encode_fsm,
// minimize_for and extract_factored on the fig1 block, build_fig1..4 --
// as spans of their own (the per-layer metrics), and checks the rebuilt
// structures: each must match the flow's report and co-simulate against
// the machine's transition table.

#include <map>

#include "bench.hpp"
#include "benchdata/iwls93.hpp"
#include "checks.hpp"
#include "logic/factor.hpp"
#include "synth/flow.hpp"
#include "util/strings.hpp"

namespace stcbench {

using namespace stc;

namespace {

struct SynthCase {
  const char* machine;
  Technology tech;
};

const SynthCase kCases[] = {
    {"s1", Technology::kTwoLevel},
    {"tbk", Technology::kMultiLevel},
    {"dk16", Technology::kMultiLevel},
    {"bbara", Technology::kMultiLevel},
};
constexpr std::size_t kNumCases = sizeof kCases / sizeof kCases[0];
constexpr std::size_t kCosimCycles = 128;

FlowOptions flow_options(Technology tech) {
  FlowOptions opt;
  opt.ostr.max_nodes = 2000000;
  opt.technology = tech;
  opt.with_fault_sim = false;
  return opt;
}

const StructureReport& figure(const FlowResult& r, int fig) {
  return fig == 1 ? r.fig1 : fig == 2 ? r.fig2 : fig == 3 ? r.fig3 : r.fig4;
}

std::size_t literals_of(const StructureReport& rep) {
  return rep.logic_ml ? rep.logic_ml->literals : rep.logic.literals;
}

/// One machine taken through the layers one public call at a time.
struct Layered {
  std::vector<ControllerStructure> built;  // fig1..fig4
  bool verified = false;
  OstrStats ostr;
  std::map<std::string, double> seconds;  // per-layer time metric -> seconds
  std::map<std::string, double> counts;   // per-layer counter -> value
};

/// Call each layer on `m` as a span of its own: solve_ostr and
/// build_realization, verify_realization, encode_fsm, minimize_for on the
/// fig1 block and extract_factored for multi-level machines, and
/// build_fig1..4.
Layered run_layers(const SynthCase& c, const MealyMachine& m, Trace& trace) {
  Layered out;
  const FlowOptions opt = flow_options(c.tech);
  Trace::Span machine_span(trace, "synth", strprintf("layers %s", c.machine));
  Realization real;
  {
    Trace::Span span(trace, "ostr", strprintf("solve_ostr %s", c.machine));
    PartitionStore store(&m);
    const OstrResult ostr = solve_ostr(m, opt.ostr, store);
    real = build_realization(m, ostr.best.pi, ostr.best.tau);
    out.seconds["ostr.s"] = span.close();
    out.ostr = ostr.stats;
  }
  {
    Trace::Span span(trace, "ostr", strprintf("verify_realization %s", c.machine));
    out.verified = verify_realization(m, real).ok();
    out.seconds["verify.s"] = span.close();
  }
  EncodedFsm enc;
  {
    Trace::Span span(trace, "encoding", strprintf("encode_fsm %s", c.machine));
    enc = encode_fsm(m, natural_encoding(m.num_states()));
    out.seconds["encoding.s"] = span.close();
  }
  MinimizedBlock block;
  {
    Trace::Span span(trace, "logic", strprintf("minimize_for fig1 %s", c.machine));
    std::vector<TruthTable> tables = enc.next_state;
    tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
    block = minimize_for(enc.spec, tables, opt.minimizer, Technology::kTwoLevel);
    out.seconds["logic.minimize_s"] = span.close();
  }
  out.counts["logic.cubes"] = static_cast<double>(block.cost().cubes);
  out.counts["logic.literals_2l"] = static_cast<double>(block.cost().literals);
  if (c.tech == Technology::kMultiLevel) {
    Trace::Span span(trace, "logic", strprintf("extract_factored fig1 %s", c.machine));
    const FactoredNetwork fn =
        block.pla ? extract_factored(*block.pla) : extract_factored(block.covers);
    out.seconds["logic.factor_s"] = span.close();
    out.counts["logic.literals_ml"] = static_cast<double>(fn.num_literals());
    out.counts["logic.factored_nodes"] = static_cast<double>(fn.num_nodes());
  }
  for (int fig = 1; fig <= 4; ++fig) {
    Trace::Span span(trace, "bist/architectures", strprintf("build_fig%d %s", fig, c.machine));
    out.built.push_back(fig == 1   ? build_fig1(enc, opt.minimizer, c.tech)
                        : fig == 2 ? build_fig2(enc, opt.minimizer, c.tech)
                        : fig == 3 ? build_fig3(enc, opt.minimizer, c.tech)
                                   : build_fig4(m, real, opt.minimizer, c.tech));
    out.seconds[strprintf("arch.build_s.fig%d", fig)] = span.close();
    out.counts["arch.nets"] += static_cast<double>(out.built.back().nl.num_nets());
  }
  return out;
}

}  // namespace

void run_synth(Context& ctx) {
  Outcome& out = ctx.out;

  // Set-up: load the machines and warm the allocator with one small flow
  // (the first flow of a process runs markedly slower than later ones).
  // It is raced on every CPU before the passes and again after them;
  // setup_s is its fastest copy. Each copy keeps its own machines.
  Reps reps;
  std::vector<std::vector<MealyMachine>> loaded(ctx.threads);
  const std::vector<MealyMachine>& machines = loaded[0];
  const auto set_up = [&] {
    timed_race(ctx, reps, "synth/flow", "set-up: load machines, run_flow bbara", "setup",
               [&](std::size_t k) {
                 loaded[k].clear();
                 for (const SynthCase& c : kCases) loaded[k].push_back(load_benchmark(c.machine));
                 run_flow(loaded[k][kNumCases - 1], flow_options(kCases[kNumCases - 1].tech));
               });
  };
  const auto same_flow = [](const FlowResult& a, const FlowResult& b) {
    for (int fig = 1; fig <= 4; ++fig)
      if (figure(a, fig).area_ge != figure(b, fig).area_ge ||
          literals_of(figure(a, fig)) != literals_of(figure(b, fig)))
        return false;
    return true;
  };

  // Timed passes: run_flow on each machine, in a seeded order per pass.
  std::vector<FlowResult> first(kNumCases);
  Clock::time_point traced_from = Clock::now();
  set_up();
  const std::vector<Pass> passes = run_passes(ctx, [&](std::size_t pass) {
    if (ctx.trace.recording() && pass == 1) traced_from = Clock::now();
    double total = 0.0;
    for (const std::size_t i : seeded_order(kNumCases, ctx.seed * 1000003u + pass)) {
      const SynthCase& c = kCases[i];
      std::vector<FlowResult> r(ctx.threads);
      total += timed_race(ctx, reps, "synth/flow",
                          strprintf("run_flow %s %s", c.machine, technology_name(c.tech)),
                          std::string("flow/") + c.machine, [&](std::size_t k) {
                            r[k] = run_flow(loaded[k][i], flow_options(c.tech));
                          });
      for (std::size_t k = 0; k < r.size(); ++k)
        out.check(r[k].verification.ok() && same_flow(r[k], r[0]),
                  strprintf("%s copy %zu: realization failed verification (%s) or the "
                            "structures differ from copy 0's",
                            c.machine, k, r[k].verification.detail.c_str()));
      if (pass == 0) first[i] = std::move(r[0]);
    }
    return total;
  });
  set_up();
  out.metric("setup_s", reps.best("setup"), "s");
  out.metric("wall_s", reps.best_sum("flow/"), "s");
  out.layer("flow.s") = reps.best_sum("flow/");

  double literals = 0.0, area = 0.0, flipflops = 0.0;
  for (const FlowResult& r : first) {
    for (int fig = 1; fig <= 4; ++fig) {
      literals += static_cast<double>(literals_of(figure(r, fig)));
      area += figure(r, fig).area_ge;
    }
    flipflops += static_cast<double>(r.fig4.flipflops);
  }
  out.metric("literals", literals, "count");
  out.metric("area_ge", area, "GE");
  out.metric("flipflops", flipflops, "count");

  // Layer by layer, one machine after another, each call a span of its
  // own (kept only in a traced run).
  std::vector<Layered> layered(kNumCases);
  ctx.trace.set_recording(ctx.traced);
  for (const std::size_t i : seeded_order(kNumCases, ctx.seed))
    layered[i] = run_layers(kCases[i], machines[i], ctx.trace);
  ctx.trace.set_recording(false);
  report_trace_overhead(ctx, passes, traced_from, Clock::now());
  std::uint64_t memo_lookups = 0, memo_hits = 0;
  for (std::size_t i = 0; i < kNumCases; ++i) {
    const Layered& l = layered[i];
    out.check(l.verified, strprintf("%s: verify_realization failed", kCases[i].machine));
    for (const auto& [name, seconds] : l.seconds) out.layer(name) += seconds;
    for (const auto& [name, value] : l.counts) out.layer(name) += value;
    out.layer("ostr.nodes") += static_cast<double>(l.ostr.nodes_investigated);
    out.layer("ostr.pruned") += static_cast<double>(l.ostr.nodes_pruned);
    for (const auto* op : {&l.ostr.cache.join, &l.ostr.cache.meet, &l.ostr.cache.refines,
                           &l.ostr.cache.m_op, &l.ostr.cache.M_op}) {
      memo_lookups += op->lookups;
      memo_hits += op->hits;
    }
  }
  out.layer("ostr.memo_hit_rate") =
      memo_lookups == 0 ? 0.0 : static_cast<double>(memo_hits) / memo_lookups;

  // Checks: the rebuilt structures are the flow's, and each behaves like
  // the machine.
  for (std::size_t i = 0; i < kNumCases; ++i) {
    const SynthCase& c = kCases[i];
    for (int fig = 1; fig <= 4; ++fig) {
      const ControllerStructure& cs = layered[i].built[static_cast<std::size_t>(fig - 1)];
      const StructureReport rebuilt = measure_structure(cs, flow_options(c.tech));
      const StructureReport& flow = figure(first[i], fig);
      out.check(rebuilt.area_ge == flow.area_ge && rebuilt.flipflops == flow.flipflops &&
                    literals_of(rebuilt) == literals_of(flow),
                strprintf("%s fig%d: rebuilt structure differs from run_flow's", c.machine,
                          fig));
      const std::string why =
          cosim_against_table(cs, machines[i], ctx.seed * 131u + i * 8u + fig, kCosimCycles);
      out.check(why.empty(), strprintf("%s %s", c.machine, why.c_str()));
    }
  }
}

}  // namespace stcbench
