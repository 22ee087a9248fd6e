#include "synth/flow.hpp"

#include <chrono>

#include "jobs/cache.hpp"

namespace stc {

SelfTestPlan self_test_plan(const std::string& kind, std::size_t bist_cycles) {
  return kind == "fig2" ? SelfTestPlan::conventional(2 * bist_cycles)
                        : SelfTestPlan::two_session(bist_cycles);
}

StructureReport measure_structure(const ControllerStructure& cs,
                                  const FlowOptions& options,
                                  CoverageResult* coverage_out) {
  StructureReport rep;
  rep.kind = cs.kind;
  rep.technology = technology_name(cs.tech);
  rep.flipflops = cs.nl.num_dffs();
  rep.area_ge = cs.nl.area_ge();
  rep.depth = cs.nl.depth();
  rep.logic = cs.logic;
  rep.logic_ml = cs.logic_ml;
  rep.factored_nodes = cs.factored_nodes;
  rep.degradations = cs.degradations;

  if (options.with_fault_sim) {
    const auto faults = enumerate_stuck_faults(cs.nl);
    rep.total_faults = faults.size();

    // The flow-level budget, when set, governs the measurement stages too.
    CampaignOptions copt = options.campaign;
    if (!options.budget.is_unlimited()) copt.budget = options.budget;

    const auto t0 = std::chrono::steady_clock::now();
    CoverageResult cov;
    if (cs.kind == "fig1") {
      Degradation deg;
      cov = measure_functional_coverage(cs, options.functional_cycles, faults,
                                        0x5EED, copt.budget, &deg);
      if (deg.degraded) rep.degradations.push_back(std::move(deg));
    } else {
      CampaignResult camp = run_fault_campaign(
          cs, self_test_plan(cs.kind, options.bist_cycles), copt, faults);
      if (camp.cycles_simulated > 0) {
        rep.activity = camp.mean_activity();
        rep.fault_sessions_skipped = camp.fault_sessions_skipped;
      }
      if (camp.degradation.degraded)
        rep.degradations.push_back(camp.degradation);
      cov = std::move(camp.raw);
    }
    rep.campaign_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rep.coverage = cov.coverage();

    // Feedback coverage needs a per-fault verdict for every feedback-line
    // fault; under a truncated sweep the unsimulated ones have none, so
    // the number is only reported for a complete sweep.
    if (!cs.feedback_nets.empty() && cov.simulated == cov.total) {
      std::size_t fb_total = 0, fb_missed = 0;
      for (const Fault& f : faults) {
        bool on_fb = false;
        for (NetId n : cs.feedback_nets) on_fb = on_fb || (n == f.net);
        if (!on_fb) continue;
        ++fb_total;
        for (const Fault& u : cov.undetected)
          if (u == f) ++fb_missed;
      }
      if (fb_total > 0)
        rep.feedback_coverage =
            1.0 - static_cast<double>(fb_missed) / static_cast<double>(fb_total);
    }
    if (coverage_out != nullptr) *coverage_out = std::move(cov);
  }
  return rep;
}

FlowResult run_flow(const MealyMachine& fsm, const FlowOptions& options) {
  // A private cache: the flow builds through the same code as every job.
  JobCache cache;
  const auto m = cache.machine("flow", [&fsm](const std::string&) { return fsm; });
  // The flow-level budget, when set, overrides each stage's own budget
  // (the deadline is absolute, so later stages see only what remains).
  OstrOptions ostr = options.ostr;
  if (!options.budget.is_unlimited()) ostr.budget = options.budget;
  const auto o = cache.ensure_ostr(*m, ostr);
  FlowResult res{o->ostr, o->realization, o->verification, {}, {}, {}, {}};
  StructureReport* figs[] = {&res.fig1, &res.fig2, &res.fig3, &res.fig4};
  for (ArchKind arch : {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3, ArchKind::kFig4})
    *figs[static_cast<int>(arch)] = measure_structure(
        cache.structure(m, arch, options.technology, options.minimizer, ostr, options.budget)
            ->cs,
        options);
  return res;
}

}  // namespace stc
