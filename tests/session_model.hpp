#pragma once
// An independent model of the work a session-major campaign does, built
// from the netlist and the serial oracle only -- no lane kernel code. The
// campaign suites compare CampaignResult::session_runs and
// fault_sessions_skipped against it exactly, and their serial verdicts
// come from the same oracle run (OracleRun), so each fault's full plan
// runs once.
//
// Session by session, the survivors are the faults no compacting bank of
// an earlier session flagged (read off run_self_test's per-session
// register signatures). A session runs those survivors whose fault net
// lies in its observation cone, or whose output-MISR difference from the
// fault-free run is nonzero when the session starts (read off
// run_self_test on the plan's first k sessions); it skips the rest.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bist/session.hpp"

namespace stc {

/// The observation cone of a session by a plain fanin walk from the
/// primary outputs and the D nets of the banks the session clocks in
/// kCompress or kSystem mode, stopping at flip-flops. One flag per net.
/// A cone that reaches every combinational gate is the whole netlist: the
/// kernel then runs the full program, which observes every net.
inline std::vector<char> model_session_cone(const ControllerStructure& cs,
                                            const SessionSpec& spec) {
  const Netlist& nl = cs.nl;
  std::vector<NetId> stack = cs.po;
  const auto add_d = [&](BilboMode mode, const std::vector<std::size_t>& bank) {
    if (mode != BilboMode::kCompress && mode != BilboMode::kSystem) return;
    for (const std::size_t k : bank) stack.push_back(nl.gate(nl.dffs()[k]).fanins[0]);
  };
  add_d(spec.role_a, cs.reg_a);
  add_d(spec.role_b, cs.reg_b);
  std::vector<char> in(nl.num_nets(), 0);
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    if (in[n]) continue;
    in[n] = 1;
    const GateView g = nl.gate(n);
    if (g.type == GateType::kDff) continue;
    for (const NetId f : g.fanins) stack.push_back(f);
  }
  bool whole = true;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const GateType t = nl.gate(n).type;
    const bool combinational = t == GateType::kBuf || t == GateType::kNot ||
                               t == GateType::kAnd || t == GateType::kOr ||
                               t == GateType::kXor;
    if (combinational && !in[n]) whole = false;
  }
  if (whole) std::fill(in.begin(), in.end(), 1);
  return in;
}

/// The serial oracle's full-plan signatures of a fault list: the
/// fault-free run and one run per fault.
struct OracleRun {
  Signatures golden;
  std::vector<Fault> faults;
  std::vector<Signatures> sigs;  // parallel to faults

  /// The serial verdict, as measure_coverage(cs, plan, faults) reports it.
  CoverageResult coverage() const {
    CoverageResult res;
    res.total = faults.size();
    res.simulated = faults.size();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (sigs[i] != golden) {
        ++res.detected;
      } else {
        res.undetected.push_back(faults[i]);
      }
    }
    return res;
  }

  /// This run at the representatives of `cf` (collapsed from `faults`):
  /// the first list member of each class, in class order.
  OracleRun representatives(const CollapsedFaults& cf) const {
    OracleRun reps;
    reps.golden = golden;
    std::vector<char> seen(cf.num_classes(), 0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (seen[cf.class_of[i]]) continue;
      seen[cf.class_of[i]] = 1;
      reps.faults.push_back(faults[i]);
      reps.sigs.push_back(sigs[i]);
    }
    return reps;
  }
};

inline OracleRun run_oracle(const ControllerStructure& cs, const SelfTestPlan& plan,
                            std::vector<Fault> faults) {
  OracleRun run;
  run.golden = run_self_test(cs, plan);
  run.faults = std::move(faults);
  for (const Fault& f : run.faults) run.sigs.push_back(run_self_test(cs, plan, f));
  return run;
}

/// Per session: how many of `faults` survive into it and how many of
/// those it runs.
struct SessionWork {
  std::vector<std::size_t> survivors, runners;

  /// The (session, batch) runs at `per_run` faults per run.
  std::size_t runs(std::size_t per_run) const {
    std::size_t n = 0;
    for (const std::size_t r : runners) n += (r + per_run - 1) / per_run;
    return n;
  }
  /// The (fault, session) pairs skipped.
  std::size_t skipped() const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < survivors.size(); ++s) n += survivors[s] - runners[s];
    return n;
  }
};

/// The model above over the faults of `run` (pass the collapsed
/// representatives to compare with a collapsing campaign). Also checks the
/// skip rule's premise on the serial oracle: a skipped fault leaves every
/// register signature of its session equal to the fault-free one.
inline SessionWork survivors_per_session(const ControllerStructure& cs,
                                         const SelfTestPlan& plan, const OracleRun& run) {
  const Signatures& golden = run.golden;
  const std::vector<Fault>& faults = run.faults;
  const std::vector<Signatures>& sigs = run.sigs;
  std::vector<char> retired(faults.size(), 0);
  SessionWork work;
  std::size_t first_sig = 0;
  for (std::size_t si = 0; si < plan.sessions.size(); ++si) {
    const SessionSpec& spec = plan.sessions[si];
    const std::vector<char> cone = model_session_cone(cs, spec);
    SelfTestPlan prefix = plan;
    prefix.sessions.resize(si);
    const std::uint64_t prefix_golden = si == 0 ? 0 : run_self_test(cs, prefix).output_sig;
    // run_self_test records one signature per compacting bank of the
    // session (an empty reg_b records none).
    const std::size_t n_sigs =
        (spec.role_a == BilboMode::kCompress ? 1 : 0) +
        (spec.role_b == BilboMode::kCompress && !cs.reg_b.empty() ? 1 : 0);
    std::size_t alive = 0, runs = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (retired[i]) continue;
      ++alive;
      if (cone[faults[i].net] ||
          (si > 0 && run_self_test(cs, prefix, faults[i]).output_sig != prefix_golden)) {
        ++runs;
      } else {
        for (std::size_t k = first_sig; k < first_sig + n_sigs; ++k)
          EXPECT_EQ(sigs[i].register_sigs[k], golden.register_sigs[k])
              << "fault on net " << faults[i].net << " skipped in session " << si
              << " changes a register signature";
      }
    }
    work.survivors.push_back(alive);
    work.runners.push_back(runs);
    for (std::size_t i = 0; i < faults.size(); ++i)
      for (std::size_t k = first_sig; k < first_sig + n_sigs; ++k)
        if (sigs[i].register_sigs[k] != golden.register_sigs[k]) retired[i] = 1;
    first_sig += n_sigs;
  }
  return work;
}

}  // namespace stc
