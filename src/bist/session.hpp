#pragma once
// Two-session built-in self-test execution on a controller structure.
//
// During a session every register bank is a BILBO clocked in one mode:
//   * kGenerate -- LFSR mode: autonomous patterns, D ignored;
//   * kCompress -- MISR mode: state <- feedback(state) XOR D;
//   * kSystem   -- plain register (used by the autonomous-transition
//                  variant, paper ref [14], where system transitions act
//                  as pattern generator);
//   * kHold     -- keep state.
// Primary inputs are driven by a dedicated input BILBO in generate mode;
// primary outputs are compacted into an output BILBO in compress mode (the
// output MISR). A fault is detected when any final signature (register
// banks + output MISR) differs from the fault-free run. The paper's
// pipeline scheme is: session 1 = R1 generates / R2 compresses, session 2
// = the converse.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bist/architectures.hpp"
#include "bist/bilbo.hpp"
#include "netlist/eval64.hpp"
#include "util/budget.hpp"

namespace stc {

class TaskPool;  // jobs/scheduler.hpp

struct SessionSpec {
  BilboMode role_a = BilboMode::kGenerate;  // reg_a of the structure
  BilboMode role_b = BilboMode::kCompress;  // reg_b (ignored if absent)
  std::size_t cycles = 256;
  std::uint64_t input_seed = 0x5EED;
  std::uint64_t gen_seed = 0x1;
};

struct SelfTestPlan {
  std::vector<SessionSpec> sessions;
  std::size_t output_misr_width = 16;

  /// The paper's plan for Figs. 3/4: two sessions with swapped roles.
  static SelfTestPlan two_session(std::size_t cycles_per_session = 256);

  /// Fig. 2 plan: T generates, R compresses (single session; T has no
  /// compressor counterpart).
  static SelfTestPlan conventional(std::size_t cycles = 512);

  /// Autonomous-transition variant (paper ref [14]): the generating
  /// register stays in *system* mode, so the machine's own transitions act
  /// as the pattern source while the other register compresses; two
  /// sessions with swapped roles, like two_session().
  static SelfTestPlan autonomous(std::size_t cycles_per_session = 256);

  /// Aliasing-hardened variant: each role assignment runs twice with
  /// independent seeds and coprime session lengths. Narrow signature
  /// registers (1-2 bits) alias systematically against short-period
  /// pattern sources; re-seeding breaks the phase alignment. Four sessions
  /// total.
  static SelfTestPlan thorough(std::size_t cycles_per_session = 256);
};

/// The one plan check of every engine -- the serial oracle, the campaign,
/// the fleet shard and the fleet options: what makes `plan` unrunnable (no
/// sessions; an output MISR width outside [1, 64]), "; "-joined, or ""
/// for a runnable plan. Each caller reports it in its own
/// Error(kInvalidInput) next to its own checks.
std::string plan_problems(const SelfTestPlan& plan);

struct Signatures {
  std::vector<std::uint64_t> register_sigs;  // per session: compacting bank
  std::uint64_t output_sig = 0;

  bool operator==(const Signatures& o) const {
    return register_sigs == o.register_sigs && output_sig == o.output_sig;
  }
  bool operator!=(const Signatures& o) const { return !(*this == o); }
};

/// Run the plan on the structure with an optional injected fault. Throws
/// Error(kInvalidInput) listing plan_problems() for an unrunnable plan.
Signatures run_self_test(const ControllerStructure& cs, const SelfTestPlan& plan,
                         std::optional<Fault> fault = std::nullopt);

struct CoverageResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  /// Faults actually simulated; == total unless a budget truncated the
  /// sweep. `undetected` lists only simulated-but-undetected faults, so
  /// total - simulated faults are in neither bucket.
  std::size_t simulated = 0;
  std::vector<Fault> undetected;

  /// Pessimistic coverage over the FULL fault list: unsimulated faults
  /// count as undetected. The safe number to report for a truncated run.
  double coverage() const {
    return total == 0 ? 1.0 : static_cast<double>(detected) / static_cast<double>(total);
  }
  /// Coverage over the simulated subset only (== coverage() when the run
  /// completed).
  double coverage_of_simulated() const {
    return simulated == 0
               ? 1.0
               : static_cast<double>(detected) / static_cast<double>(simulated);
  }
};

/// Serial fault simulation of the full single-stuck-at list (or a caller-
/// supplied subset) under the plan. One complete self-test run per fault:
/// exact but slow. The serial oracle: the tests and the benchmark's
/// checks compare the bit-parallel engines below against it. Rejects an
/// unrunnable plan like run_self_test.
CoverageResult measure_coverage(const ControllerStructure& cs, const SelfTestPlan& plan,
                                std::optional<std::vector<Fault>> faults = std::nullopt);

/// --- bit-parallel campaign engine (PPSFP) -------------------------------
///
/// Simulates 64·W − 1 faults per lane run on W-word uint64_t lane groups
/// of a compiled levelized netlist (lane 0 = fault-free reference;
/// W = CampaignOptions::lane_words ∈ {1, 4, 8} for 64/256/512 lanes).
/// Campaigns run session-major: each session runs, in batches of 64·W − 1,
/// the faults no earlier session's compacting bank flagged (a bank's
/// signature is final when its session ends), and every survivor carries
/// its output-MISR lane state into the next session. A session runs on
/// its observation cone -- the fanin closure, stopping at flip-flops, of
/// the primary outputs and of the D inputs of the banks it clocks in
/// compress or system mode -- and skips, unchanged, the survivors whose
/// fault net lies outside that cone while their output-MISR difference is
/// 0: nothing the session observes can see them. Detection is
/// signature-exact: a lane is detected iff any final compacting-register
/// or output-MISR signature differs from lane 0 — the same criterion as
/// measure_coverage, so the detected-fault sets are identical by
/// construction at every width and thread count.

/// Faults simulated per self-test run at a given lane width: one per lane
/// minus the reserved fault-free reference lane 0.
inline constexpr std::size_t faults_per_run(unsigned lane_words) {
  return 64u * lane_words - 1;
}

/// The lane kernel's evaluator pin -- not a user option: no job spec,
/// spool key or driver flag selects it. Every evaluator yields identical
/// verdicts; the equivalence suites, goldens and benches pin each one.
enum class CampaignEngine {
  /// The kernel's own policy: event-driven (resident net words,
  /// fanout-cone scheduling, only changed cones re-evaluated per cycle),
  /// handing a lane run off to flat when its first cycles show high
  /// activity (DESIGN.md "Lane retirement and the flat hand-off").
  kEvent,
  /// Pin the flat evaluator: every gate, every cycle (the event
  /// evaluator's reference).
  kFlat,
};

/// Warm per-structure campaign state: the compiled lane programs (the
/// whole netlist, plus one per distinct session observation cone, each
/// compiled on first use and shared read-only by every worker) and a
/// free-list of per-worker scratch (fault masks, lane buffers, banks, event
/// residency per program). Building one costs the whole-netlist compile; a
/// campaign handed a warm state via CampaignOptions::warm skips the
/// compiles it has already done and its workers lease scratch instead of
/// allocating it -- re-queued jobs on a cached structure start hot. Bound to one (structure, MISR width, lane_words)
/// tuple; run_fault_campaign rejects a mismatched warm state with a typed
/// Error. Thread-safe: concurrent campaigns may share one warm state.
class CampaignWarmState;

/// Takes `output_misr_width` (not a SelfTestPlan) on purpose: the three
/// parameters here ARE the warm state's full identity, so any two plans
/// agreeing on output_misr_width may share one warm state -- the property
/// JobCache's warm key relies on.
std::shared_ptr<CampaignWarmState> make_campaign_warm_state(
    const ControllerStructure& cs, std::size_t output_misr_width,
    unsigned lane_words);

/// How many times a leased scratch was *reused* (warm starts) -- the
/// hit-counter the cache tests and the orchestrator report assert on.
std::size_t campaign_warm_reuses(const CampaignWarmState& warm);
/// How many scratches the warm state has constructed in total.
std::size_t campaign_warm_builds(const CampaignWarmState& warm);

struct CampaignOptions {
  /// Worker threads for the fault batches when no `pool` is given: above 1
  /// the batches run on a private TaskPool(num_threads - 1) plus the
  /// calling thread (see run_chunks in jobs/scheduler.hpp). Results are
  /// identical for any value.
  std::size_t num_threads = 1;
  /// Structural fault collapsing: simulate one representative per
  /// equivalence class (see collapse_faults) and expand the verdicts.
  bool collapse = true;
  /// Evaluator pin for the suites and benches that compare evaluators;
  /// kEvent (the default) leaves the choice to the kernel. Both produce
  /// identical detected-fault sets.
  CampaignEngine engine = CampaignEngine::kEvent;
  /// uint64_t words per lane group: 1, 4 or 8 (64, 256 or 512 simulation
  /// lanes, batching faults_per_run(lane_words) faults per self-test run).
  /// A kernel pin like `engine`: no job spec, spool key or driver flag
  /// selects it; the suites and benches that compare widths set it. The
  /// default, 512 lanes, is the fastest on the large machines. Validated
  /// up front by run_fault_campaign. Results are identical for any
  /// supported value.
  unsigned lane_words = kMaxLaneWords;
  /// Anytime governance. One work unit = one lane run of one session over
  /// one batch, charged per chunk of batches; the clock and the
  /// cancel token are also polled every cycle, and an exhausted budget
  /// abandons the run in flight. Every retired verdict is exact; a fault
  /// that did not finish the plan is unsimulated, so the result reports
  /// faults_simulated < raw.total with coverage() counting unsimulated
  /// faults as undetected (pessimistic). Under a deadline or cancellation
  /// WHICH runs completed may depend on thread timing; the work allowance
  /// is deterministic per chunk (use num_threads = 1 and no pool for a
  /// deterministic truncated subset).
  Budget budget;
  /// Shared pool (the jobs/ scheduler's): when set, the batch loop is
  /// split into up to pool->size() chunks that run as tasks of the calling
  /// job, and num_threads MUST stay 1 (validate() rejects anything else --
  /// a private pool nested under the shared one oversubscribes every
  /// core). Results are identical to the private-pool and inline paths by
  /// construction. Non-owning; must outlive the call.
  TaskPool* pool = nullptr;
  /// Warm compiled-program + scratch state for this exact structure (see
  /// make_campaign_warm_state). Non-owning; must outlive the call.
  CampaignWarmState* warm = nullptr;

  /// Check every field against `plan` and report ALL problems in one
  /// Error(kInvalidInput) -- engine, lane_words, num_threads, empty plan,
  /// MISR width, pool/num_threads nesting. Called by run_fault_campaign
  /// before any simulation work.
  void validate(const SelfTestPlan& plan) const;
};

struct CampaignResult {
  CoverageResult raw;                  // over the full input fault list
  std::size_t collapsed_total = 0;     // fault equivalence classes
  std::size_t collapsed_detected = 0;
  /// Equivalence classes whose batch actually ran (== collapsed_total
  /// unless the budget truncated the campaign).
  std::size_t collapsed_simulated = 0;
  /// Raw faults whose class was simulated; < raw.total flags a truncated
  /// campaign (mirrors raw.simulated).
  std::size_t faults_simulated = 0;
  /// Anytime label: what the budget cut, if anything.
  Degradation degradation;
  /// Lane runs performed: one per (session, batch) -- the sum over
  /// sessions of ceil(runners / faults_per_run), where a session's runners
  /// are its survivors minus the ones it skips (below).
  std::size_t session_runs = 0;
  /// (collapsed fault, session) pairs skipped: the survivor's fault net
  /// lies outside the session's observation cone and its output-MISR
  /// difference is 0, so the session cannot change its signatures (see
  /// run_fault_campaign).
  std::size_t fault_sessions_skipped = 0;

  // Activity accounting. ops_per_cycle is the full netlist's combinational
  // op count, i.e. the cost of one flat evaluation of the whole netlist;
  // ops_offered sums, over the simulated cycles, the op count of the
  // program each cycle ran on (a session's observation cone).
  std::uint64_t cycles_simulated = 0;
  std::uint64_t ops_evaluated = 0;
  std::uint64_t ops_offered = 0;
  std::size_t ops_per_cycle = 0;

  double coverage() const { return raw.coverage(); }
  /// Mean fraction of the offered combinational ops re-evaluated to a
  /// fresh value per cycle (1.0 for the flat engine). An *event rate*:
  /// dense PLA products whose cheap resident-word check confirms the old
  /// value are not counted, so this tracks how quiescent the netlist is,
  /// not the engine's wall-clock cost -- compare campaign wall times for
  /// that.
  double mean_activity() const {
    return ops_offered == 0 ? 1.0
                            : static_cast<double>(ops_evaluated) /
                                  static_cast<double>(ops_offered);
  }
};

CampaignResult run_fault_campaign(const ControllerStructure& cs, const SelfTestPlan& plan,
                                  const CampaignOptions& options = {},
                                  std::optional<std::vector<Fault>> faults = std::nullopt);

/// --- fleet shard kernel (bist-side seam of fleet/fleet.hpp) -------------
///
/// Deployment simulation: lanes are packed as (reference, faulty) PAIRS --
/// lane 2j is chip instance j's fault-free twin, lane 2j+1 carries its
/// sampled defects -- so one self-test run simulates 32·W chip instances,
/// each with its own derived LFSR seeds. Detection is a pair-local
/// comparison, never against lane 0, so an instance's verdict depends only
/// on its own two lanes; the bit-parallel evaluator keeps lanes
/// independent, which makes the aggregate counts bit-identical for every
/// shard size, shard order and worker count by construction.

/// Chip instances simulated per self-test run at lane width W.
inline constexpr std::size_t fleet_instances_per_run(unsigned lane_words) {
  return 32u * lane_words;
}

/// Per-instance 64-bit seed key: SplitMix64 applied to the injective
/// stream base_seed + (instance+1)·odd. SplitMix64 is a bijection, so
/// distinct instances ALWAYS get distinct keys (no birthday collisions),
/// and per-(session, role) sub-seeds derived from the key stay distinct
/// across instances too. Width-w register states are then folded onto
/// [1, 2^w - 1] via nonzero_lfsr_state, so derivation can never trip the
/// zero-seed coercion of Bilbo::seed.
std::uint64_t fleet_instance_key(std::uint64_t base_seed, std::uint64_t instance);

/// Sample the defect set of one chip instance into `out` (append; the
/// kernel clears it between instances). MUST be a pure function of
/// `instance` -- shard boundaries and worker interleavings change the call
/// order, and the bit-identical-aggregates contract relies on each
/// instance sampling the same defects regardless.
using FleetDefectSampler =
    std::function<void(std::uint64_t instance, std::vector<Fault>& out)>;

/// Streaming per-shard aggregate: O(1) memory regardless of instance
/// count; no per-instance result is ever materialized.
struct FleetShardStats {
  std::uint64_t instances = 0;   // instances actually simulated
  std::uint64_t defective = 0;   // instances with >= 1 sampled fault
  /// Observability counters (all over simulated instances):
  std::uint64_t po_stream_detected = 0;   // PO stream differed some cycle
  std::uint64_t any_stream_detected = 0;  // PO stream or a compressing
                                          // bank's D stream differed
  std::uint64_t misr_detected = 0;  // final output-MISR signature differs
  std::uint64_t sig_detected = 0;   // any signature differs (banks + MISR)
  /// Alias event: the defect was visible on the primary outputs, but the
  /// output MISR compacted both streams to the same signature -- the
  /// empirical counterpart of the 2^-k aliasing bound for a k-bit MISR.
  std::uint64_t aliases = 0;  // po_stream_detected && !misr_detected
  /// Escape: the defect reached SOME compacted stream, yet every final
  /// signature matched -- the chip ships as good.
  std::uint64_t escapes = 0;  // any_stream_detected && !sig_detected
  std::uint64_t session_runs = 0;
  std::uint64_t cycles = 0;
  /// Final output-MISR signatures of defective instances, folded into 64
  /// buckets (signature mod 64) -- a cheap uniformity check on the
  /// compaction, streamed without materializing signatures.
  std::array<std::uint64_t, 64> signature_histogram{};

  void merge(const FleetShardStats& o);
};

/// Simulate chip instances [first, first + count) of a fleet in packed
/// runs of fleet_instances_per_run(W), leasing scratch from `warm` (which
/// must be bound to (cs, plan.output_misr_width, W)), and fold their counts
/// into `stats`. `engine` is the evaluator pin of CampaignOptions::engine
/// (run_fleet passes kEvent). The budget is charged one unit per self-test
/// run and its clock polled every cycle; it is taken by reference so one
/// copy can govern many shards. Returns false when the budget cut the
/// shard: the cut run and the instances after it stay unsimulated, every
/// completed run's counts are exact.
bool run_fleet_shard(const ControllerStructure& cs, const SelfTestPlan& plan,
                     CampaignWarmState& warm, std::uint64_t base_seed,
                     std::uint64_t first, std::uint64_t count,
                     const FleetDefectSampler& sampler, CampaignEngine engine,
                     Budget& budget, FleetShardStats& stats);

/// Functional (non-BIST) baseline: drive `cycles` LFSR input patterns in
/// system mode and compare primary outputs cycle by cycle. This is what an
/// external random test of the Fig. 1 structure can observe. Runs
/// faults_per_run(kMaxLaneWords) faults per pass on the lane kernel, each
/// pass stopping once all of its faults are detected. One work unit = one
/// fault (a pass is sized to the allowance left); the clock and the cancel
/// token are polled every cycle. A truncated sweep reports simulated <
/// total, optionally labeled via `degradation`.
CoverageResult measure_functional_coverage(const ControllerStructure& cs,
                                           std::size_t cycles,
                                           std::optional<std::vector<Fault>> faults =
                                               std::nullopt,
                                           std::uint64_t seed = 0x5EED,
                                           const Budget& budget = {},
                                           Degradation* degradation = nullptr);

}  // namespace stc
