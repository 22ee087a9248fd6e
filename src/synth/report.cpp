#include "synth/report.hpp"

#include "util/strings.hpp"

namespace stc {
namespace {

std::string render_structure(const StructureReport& s) {
  // The logic cost line names the technology it measured: the two-level
  // PLA point always, the factored point next to it on multi-level builds.
  std::string out = strprintf("  %-5s: %2zu FFs, %7.1f GE, depth %2zu, PLA(2L) %zu cubes / %zu lits",
                              s.kind.c_str(), s.flipflops, s.area_ge, s.depth,
                              s.logic.cubes, s.logic.literals);
  if (s.logic_ml)
    out += strprintf(", factored(ML) %zu lits / %zu nodes",
                     s.logic_ml->literals, s.factored_nodes);
  if (s.coverage)
    out += strprintf(", coverage %5.1f%% (%zu faults, %.3fs)", *s.coverage * 100.0,
                     s.total_faults, s.campaign_seconds);
  if (s.activity)
    out += strprintf(", activity %4.1f%%", *s.activity * 100.0);
  if (s.fault_sessions_skipped)
    out += strprintf(", %zu fault-sessions skipped", *s.fault_sessions_skipped);
  if (s.feedback_coverage)
    out += strprintf(", feedback-line coverage %5.1f%%", *s.feedback_coverage * 100.0);
  out += "\n";
  for (const Degradation& d : s.degradations) {
    const std::string line = render_degradation(d);
    if (!line.empty()) out += "         ! " + line + "\n";
  }
  return out;
}

}  // namespace

std::string render_flow_report(const std::string& machine_name, const FlowResult& r) {
  std::string out;
  out += strprintf("=== %s ===\n", machine_name.c_str());
  out += strprintf("OSTR: |S|=%zu -> |S1|=%zu, |S2|=%zu  (%zu FFs; trivial doubling "
                   "would need %zu)\n",
                   r.ostr.stats.num_states, r.ostr.best.s1, r.ostr.best.s2,
                   r.ostr.best.flipflops,
                   2 * ceil_log2(r.ostr.stats.num_states));
  out += strprintf("  pi  = %s\n  tau = %s\n", r.ostr.best.pi.to_string().c_str(),
                   r.ostr.best.tau.to_string().c_str());
  out += strprintf("  search: basis %zu (tree 2^%zu nodes), investigated %llu, "
                   "pruned subtrees %llu%s\n",
                   r.ostr.stats.basis_size, r.ostr.stats.basis_size,
                   static_cast<unsigned long long>(r.ostr.stats.nodes_investigated),
                   static_cast<unsigned long long>(r.ostr.stats.nodes_pruned),
                   r.ostr.stats.exhausted ? "" : " [budget hit]");
  out += strprintf("  realization verified: %s\n",
                   r.verification.ok() ? "yes" : ("NO: " + r.verification.detail).c_str());
  out += render_structure(r.fig1);
  out += render_structure(r.fig2);
  out += render_structure(r.fig3);
  out += render_structure(r.fig4);
  return out;
}

std::string render_flow_summary(const std::string& machine_name, const FlowResult& r) {
  return strprintf("%-10s |S|=%2zu -> %2zu x %2zu, pipeline %zu FFs vs conventional "
                   "BIST %zu FFs",
                   machine_name.c_str(), r.ostr.stats.num_states, r.ostr.best.s1,
                   r.ostr.best.s2, r.ostr.best.flipflops,
                   2 * ceil_log2(r.ostr.stats.num_states));
}

}  // namespace stc
