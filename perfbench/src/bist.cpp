// Workload `bist`: fault simulation on structures built during set-up.
//
// Set-up (setup_s) synthesizes every structure and compiles its warm
// campaign state. Each timed pass then runs, in an order drawn from the
// seed, each item as a race on every CPU (see race()):
//   (a) run_fault_campaign, event engine, 256 lanes, one thread, warm
//       state: the flow's plans -- conventional(512) on fig2,
//       two_session(256) on fig3/fig4 -- on s1 (two-level) and tbk
//       (multi-level), plus thorough(256) on both machines' fig3/fig4;
//   (b) measure_functional_coverage(fig1, 512) on dk16, bbara and dk14;
//   (c) run_fleet on dk27 fig4, one thread, MISR widths {8,16,24,40},
//       base seed from the workload seed.
// The set-up is raced as well, and every copy must build the same
// structures; the passes use copy 0's.
// Checks: the racing copies of an item must agree; a seeded sample of
// each campaign's faults goes through the serial oracle
// (measure_coverage); a seeded sample of each functional sweep is re-run
// on its own; every fleet width must simulate every instance.

#include <algorithm>
#include <map>
#include <memory>
#include <exception>

#include "bench.hpp"
#include "benchdata/iwls93.hpp"
#include "checks.hpp"
#include "fleet/fleet.hpp"
#include "jobs/scheduler.hpp"
#include "ostr/ostr.hpp"
#include "util/strings.hpp"

namespace stcbench {

using namespace stc;

namespace {

constexpr unsigned kLaneWords = 4;  // 256 lanes
constexpr std::uint64_t kFleetInstances = 65536;  // per MISR width
constexpr std::size_t kOracleSample = 3;
constexpr std::size_t kFunctionalSample = 16;

struct Built {
  std::string machine;
  ControllerStructure cs;
  std::vector<Fault> faults;
  std::shared_ptr<CampaignWarmState> warm;  // campaign structures only
};

struct CampaignItem {
  const Built* target;
  const char* plan_name;
  SelfTestPlan plan;
};

/// Everything a pass simulates.
struct SetUp {
  std::vector<std::unique_ptr<Built>> built;
  std::vector<CampaignItem> campaigns;
  std::vector<const Built*> functional;
  const Built* fleet_target = nullptr;
  std::map<std::size_t, std::shared_ptr<CampaignWarmState>> fleet_warm;
  std::uint64_t ostr_nodes = 0, ostr_pruned = 0, memo_lookups = 0, memo_hits = 0;
};

const std::vector<std::size_t> kFleetWidths = {8, 16, 24, 40};

/// Build every structure and warm state. Each step is a span on `trace`
/// and timed into `reps` as "setup/<layer metric>/<subject>".
SetUp set_up(Trace& trace, Reps& reps) {
  SetUp su;
  const auto step = [&](const char* layer, const char* metric, const std::string& subject,
                        const auto& fn) {
    Trace::Span span(trace, layer, subject);
    fn();
    reps.add(strprintf("setup/%s/%s", metric, subject.c_str()), span.close());
  };
  const auto build = [&](const char* name, Technology tech, int fig) {
    auto b = std::make_unique<Built>();
    b->machine = name;
    MealyMachine fsm;
    EncodedFsm enc;
    Realization real;
    step("benchdata", "load", strprintf("load_benchmark %s fig%d", name, fig),
         [&] { fsm = load_benchmark(name); });
    step("encoding", "encoding.s", strprintf("encode_fsm %s fig%d", name, fig),
         [&] { enc = encode_fsm(fsm, natural_encoding(fsm.num_states())); });
    if (fig == 4) {
      step("ostr", "ostr.s", strprintf("solve_ostr %s", name), [&] {
        OstrOptions oopt;
        oopt.max_nodes = 2000000;
        const OstrResult ostr = solve_ostr(fsm, oopt);
        real = build_realization(fsm, ostr.best.pi, ostr.best.tau);
        su.ostr_nodes += ostr.stats.nodes_investigated;
        su.ostr_pruned += ostr.stats.nodes_pruned;
        for (const auto* op : {&ostr.stats.cache.join, &ostr.stats.cache.meet,
                               &ostr.stats.cache.refines, &ostr.stats.cache.m_op,
                               &ostr.stats.cache.M_op}) {
          su.memo_lookups += op->lookups;
          su.memo_hits += op->hits;
        }
      });
    }
    step("bist/architectures", strprintf("arch.build_s.fig%d", fig).c_str(),
         strprintf("build_fig%d %s", fig, name), [&] {
           b->cs = fig == 1   ? build_fig1(enc, MinimizerKind::kAuto, tech)
                   : fig == 2 ? build_fig2(enc, MinimizerKind::kAuto, tech)
                   : fig == 3 ? build_fig3(enc, MinimizerKind::kAuto, tech)
                              : build_fig4(fsm, real, MinimizerKind::kAuto, tech);
         });
    step("bist/faults", "faults", strprintf("enumerate_stuck_faults %s fig%d", name, fig),
         [&] { b->faults = enumerate_stuck_faults(b->cs.nl); });
    su.built.push_back(std::move(b));
    return su.built.back().get();
  };

  for (const auto& [name, tech] :
       {std::pair<const char*, Technology>{"s1", Technology::kTwoLevel},
        {"tbk", Technology::kMultiLevel}}) {
    for (int fig = 2; fig <= 4; ++fig) {
      Built* b = build(name, tech, fig);
      step("netlist", "netlist.compile_s",
           strprintf("make_campaign_warm_state %s fig%d", name, fig), [&] {
             b->warm = make_campaign_warm_state(b->cs, SelfTestPlan{}.output_misr_width,
                                                kLaneWords);
           });
      if (fig == 2) {
        su.campaigns.push_back({b, "conventional(512)", SelfTestPlan::conventional(512)});
      } else {
        su.campaigns.push_back({b, "two_session(256)", SelfTestPlan::two_session(256)});
        su.campaigns.push_back({b, "thorough(256)", SelfTestPlan::thorough(256)});
      }
    }
  }
  for (const char* name : {"dk16", "bbara", "dk14"})
    su.functional.push_back(build(name, Technology::kTwoLevel, 1));
  su.fleet_target = build("dk27", Technology::kTwoLevel, 4);
  for (const std::size_t w : kFleetWidths) {
    step("netlist", "netlist.compile_s",
         strprintf("make_campaign_warm_state dk27 fig4 misr%zu", w), [&] {
           su.fleet_warm[w] = make_campaign_warm_state(su.fleet_target->cs, w, kLaneWords);
         });
  }
  return su;
}

bool same_structures(const SetUp& a, const SetUp& b) {
  if (a.built.size() != b.built.size()) return false;
  for (std::size_t i = 0; i < a.built.size(); ++i) {
    const ControllerStructure& x = a.built[i]->cs;
    const ControllerStructure& y = b.built[i]->cs;
    if (x.nl.num_nets() != y.nl.num_nets() || x.nl.area_ge() != y.nl.area_ge() ||
        a.built[i]->faults.size() != b.built[i]->faults.size())
      return false;
  }
  return true;
}

}  // namespace

void run_bist(Context& ctx) {
  Outcome& out = ctx.out;
  Reps reps;

  // Set-up, raced: every copy builds everything with its own Reps; copy 0
  // spans on the run's trace.
  std::vector<SetUp> copies(ctx.threads);
  std::vector<Reps> copy_reps(ctx.threads);
  ctx.trace.set_recording(ctx.traced);
  race(ctx.threads, [&](std::size_t k) {
    Trace untraced;
    copies[k] = set_up(k == 0 ? ctx.trace : untraced, copy_reps[k]);
  });
  ctx.trace.set_recording(false);
  for (std::size_t k = 0; k < copies.size(); ++k) {
    reps.merge(copy_reps[k]);
    out.check(same_structures(copies[0], copies[k]),
              strprintf("set-up copy %zu built different structures", k));
  }
  const SetUp& su = copies[0];
  out.metric("setup_s", reps.best_sum("setup/"), "s");

  double literals = 0.0, area = 0.0, flipflops = 0.0;
  for (const auto& b : su.built) {
    literals += static_cast<double>(b->cs.logic_ml ? b->cs.logic_ml->literals
                                                   : b->cs.logic.literals);
    area += b->cs.nl.area_ge();
    if (b->cs.kind == "fig4") flipflops += static_cast<double>(b->cs.nl.num_dffs());
    out.layer("arch.nets") += static_cast<double>(b->cs.nl.num_nets());
  }
  out.metric("literals", literals, "count");
  out.metric("area_ge", area, "GE");
  out.metric("flipflops", flipflops, "count");

  FleetOptions fopt;
  fopt.instances = kFleetInstances;
  fopt.misr_widths = kFleetWidths;
  fopt.jobs = 1;
  fopt.lane_words = kLaneWords;
  fopt.curve_cycles.clear();  // widths only
  fopt.base_seed = splitmix64(ctx.seed ^ 0xF1EE7);
  fopt.warm = [&su](std::size_t w) { return su.fleet_warm.at(w); };

  CampaignOptions copt;
  copt.engine = CampaignEngine::kEvent;
  copt.lane_words = kLaneWords;
  copt.num_threads = 1;

  // --- timed passes ------------------------------------------------------
  // Items 0..campaigns-1 are part (a), then one per functional machine,
  // then the fleet. The racing copies share the structures and warm
  // states (thread-safe by contract); copy 0's results of the first pass
  // are kept for the checks, and every copy must agree with copy 0.
  const std::size_t num_campaigns = su.campaigns.size();
  const std::size_t num_items = num_campaigns + su.functional.size() + 1;
  std::vector<CampaignResult> campaign_first(num_campaigns);
  std::vector<CoverageResult> functional_first(su.functional.size());
  FleetReport fleet_first;
  Clock::time_point traced_from = Clock::now();

  const std::vector<Pass> passes = run_passes(ctx, [&](std::size_t pass) {
    if (ctx.trace.recording() && pass == 1) traced_from = Clock::now();
    double total = 0.0;
    // Per copy, the number of detections it found (or instances it flagged).
    std::vector<std::size_t> detected(ctx.threads);
    for (const std::size_t item : seeded_order(num_items, ctx.seed * 1000003u + pass)) {
      std::string label;
      if (item < num_campaigns) {
        const CampaignItem& c = su.campaigns[item];
        label = strprintf("%s %s %s", c.target->machine.c_str(), c.target->cs.kind.c_str(),
                          c.plan_name);
        std::vector<CampaignResult> r(ctx.threads);
        total += timed_race(ctx, reps, "bist/session", "run_fault_campaign " + label,
                            "campaign/" + label, [&](std::size_t k) {
                              CampaignOptions o = copt;
                              o.warm = c.target->warm.get();
                              r[k] = run_fault_campaign(c.target->cs, c.plan, o,
                                                        c.target->faults);
                              detected[k] = r[k].raw.detected;
                            });
        if (pass == 0) campaign_first[item] = std::move(r[0]);
      } else if (item < num_campaigns + su.functional.size()) {
        const std::size_t f = item - num_campaigns;
        const Built* b = su.functional[f];
        label = b->machine + " fig1";
        std::vector<CoverageResult> r(ctx.threads);
        total += timed_race(ctx, reps, "bist/session", "measure_functional_coverage " + label,
                            "functional/" + b->machine, [&](std::size_t k) {
                              r[k] = measure_functional_coverage(b->cs, 512, b->faults);
                              detected[k] = r[k].detected;
                            });
        if (pass == 0) functional_first[f] = std::move(r[0]);
      } else {
        label = "dk27 fig4 fleet";
        std::vector<FleetReport> r(ctx.threads);
        total += timed_race(ctx, reps, "fleet", "run_fleet dk27 fig4", "fleet",
                            [&](std::size_t k) {
                              r[k] = run_fleet(su.fleet_target->cs, fopt);
                              detected[k] = 0;
                              for (const FleetWidthResult& w : r[k].widths)
                                detected[k] += w.stats.sig_detected;
                            });
        if (pass == 0) fleet_first = std::move(r[0]);
      }
      out.check(std::count(detected.begin(), detected.end(), detected[0]) ==
                    static_cast<std::ptrdiff_t>(detected.size()),
                label + ": the racing copies found different detections");
    }
    return total;
  });
  report_trace_overhead(ctx, passes, traced_from, Clock::now());

  // Work of one pass (the counters repeat exactly across passes).
  double campaign_faults = 0.0, functional_faults = 0.0, cycles_x_ops = 0.0;
  std::map<const Built*, std::size_t> ops_per_cycle;
  for (std::size_t i = 0; i < num_campaigns; ++i) {
    const CampaignResult& r = campaign_first[i];
    campaign_faults += static_cast<double>(r.faults_simulated);
    out.layer("campaign.session_runs") += static_cast<double>(r.session_runs);
    out.layer("campaign.cycles") += static_cast<double>(r.cycles_simulated);
    out.layer("campaign.ops_evaluated") += static_cast<double>(r.ops_evaluated);
    cycles_x_ops += static_cast<double>(r.cycles_simulated) *
                    static_cast<double>(r.ops_per_cycle);
    ops_per_cycle[su.campaigns[i].target] = r.ops_per_cycle;
  }
  for (const CoverageResult& r : functional_first)
    functional_faults += static_cast<double>(r.simulated);
  const double fleet_instances = static_cast<double>(fleet_first.instances_simulated());

  const double campaign_s = reps.best_sum("campaign/");
  const double functional_s = reps.best_sum("functional/");
  const double fleet_s = reps.best("fleet");
  out.metric("wall_s", campaign_s + functional_s + fleet_s, "s");
  out.metric("faults_per_s", campaign_faults / campaign_s, "1/s");
  out.metric("functional_faults_per_s", functional_faults / functional_s, "1/s");
  out.metric("instances_per_s", fleet_instances / fleet_s, "1/s");

  out.layer("encoding.s") = reps.best_sum("setup/encoding.s/");
  out.layer("ostr.s") = reps.best_sum("setup/ostr.s/");
  out.layer("ostr.nodes") = static_cast<double>(su.ostr_nodes);
  out.layer("ostr.pruned") = static_cast<double>(su.ostr_pruned);
  out.layer("ostr.memo_hit_rate") =
      su.memo_lookups == 0 ? 0.0 : static_cast<double>(su.memo_hits) / su.memo_lookups;
  for (int fig = 1; fig <= 4; ++fig) {
    const std::string name = strprintf("arch.build_s.fig%d", fig);
    out.layer(name) = reps.best_sum("setup/" + name + "/");
  }
  out.layer("netlist.compile_s") = reps.best_sum("setup/netlist.compile_s/");
  for (const auto& [target, ops] : ops_per_cycle)
    out.layer("netlist.ops_per_cycle") += static_cast<double>(ops);
  out.layer("campaign.s") = campaign_s;
  out.layer("campaign.fig2_s") = reps.best_sum("campaign/s1 fig2") +
                                 reps.best_sum("campaign/tbk fig2");
  for (const char* m : {"s1", "tbk"})
    for (const char* fig : {"fig3", "fig4"})
      out.layer("campaign.thorough_s") +=
          reps.best(strprintf("campaign/%s %s thorough(256)", m, fig));
  out.layer("campaign.activity") =
      cycles_x_ops > 0.0 ? out.layer("campaign.ops_evaluated") / cycles_x_ops : 0.0;
  out.layer("functional.s") = functional_s;
  out.layer("functional.faults") = functional_faults;
  out.layer("fleet.s") = fleet_s;
  out.layer("fleet.instances") = fleet_instances;
  for (const FleetWidthResult& w : fleet_first.widths)
    out.layer("fleet.session_runs") += static_cast<double>(w.stats.session_runs);

  // --- checks ------------------------------------------------------------
  // The serial oracle is slow; the campaigns are checked in parallel.
  std::vector<std::string> verdicts(num_campaigns);
  {
    TaskPool pool(ctx.threads);
    TaskPool::Group group(pool);
    for (std::size_t i = 0; i < num_campaigns; ++i)
      group.run([&, i] {
        const CampaignItem& c = su.campaigns[i];
        try {
          const std::vector<Fault> sample =
              sample_faults(c.target->faults, kOracleSample, ctx.seed * 7919u + i);
          verdicts[i] = oracle_agrees(c.target->cs, c.plan, campaign_first[i], sample);
        } catch (const std::exception& e) {
          verdicts[i] = std::string("oracle check threw: ") + e.what();
        }
      });
    group.wait();
  }
  for (std::size_t i = 0; i < num_campaigns; ++i) {
    const CampaignItem& c = su.campaigns[i];
    const CampaignResult& r = campaign_first[i];
    const std::string label = strprintf("%s %s %s", c.target->machine.c_str(),
                                        c.target->cs.kind.c_str(), c.plan_name);
    out.check(verdicts[i].empty() && !r.degradation.degraded &&
                  r.faults_simulated == c.target->faults.size(),
              label + ": " + (verdicts[i].empty() ? "campaign truncated" : verdicts[i]));
  }
  for (std::size_t k = 0; k < su.functional.size(); ++k) {
    const Built* b = su.functional[k];
    const std::vector<Fault> sample =
        sample_faults(b->faults, kFunctionalSample, ctx.seed * 104729u + k);
    const CoverageResult& full = functional_first[k];
    const std::string why =
        same_verdicts(sample, full, measure_functional_coverage(b->cs, 512, sample));
    out.check(why.empty() && full.simulated == b->faults.size(),
              b->machine + " fig1: functional sweep and re-run sample: " +
                  (why.empty() ? "sweep truncated" : why));
  }
  bool fleet_ok = !fleet_first.degradation.degraded &&
                  fleet_first.widths.size() == kFleetWidths.size();
  for (const FleetWidthResult& w : fleet_first.widths)
    fleet_ok = fleet_ok && w.stats.instances == kFleetInstances &&
               w.stats.sig_detected <= w.stats.defective &&
               w.stats.escapes <= w.stats.any_stream_detected;
  out.check(fleet_ok, "dk27 fig4: fleet run incomplete or inconsistent");
}

}  // namespace stcbench
