#pragma once
// The four controller structures of the paper, as gate-level netlists:
//
//  Fig. 1  conventional synthesis: C + single state register R.
//  Fig. 2  conventional BIST: extra test register T and a test-mode mux in
//          the feedback path (the transparency / bypass penalty); during
//          self-test T generates patterns into C while R compresses, so
//          the R -> C feedback lines are NOT exercised (drawback (3)).
//  Fig. 3  doubled structure: two copies of C and two registers in a ring;
//          equals the pipeline structure for the trivial realization.
//  Fig. 4  optimized pipeline structure from a nontrivial OSTR solution:
//          C1 : (I, R1) -> R2,  C2 : (I, R2) -> R1,  lambda(I, R1, R2) -> O.
//
// Figs. 1-3 are all built around the same combinational block C (next
// state and outputs of the encoded machine). minimize_combined() prepares
// that block once; the block builders build_fig1/2/3(enc, block) take the
// shared block, so a flow or a cache minimizes and factors C once for all
// three figures. The (enc, mk, tech, budget) builders are one-line
// wrappers over them for callers that want a single figure.
//
// Every builder returns the netlist plus role maps so the self-test driver
// (bist/session.hpp) can reconfigure registers into PRPG/MISR roles.

#include <optional>

#include "bist/faults.hpp"
#include "encoding/encoded_fsm.hpp"
#include "logic/cost.hpp"
#include "netlist/builder.hpp"
#include "ostr/realization.hpp"
#include "util/budget.hpp"

namespace stc {

/// Which two-level minimizer prepares the covers.
enum class MinimizerKind { kAuto, kQuineMcCluskey, kEspresso };

/// Stable identifier ("auto", "qm", "espresso") -- spool spec files and
/// the drivers' --minimizer flag round-trip through these.
const char* minimizer_name(MinimizerKind mk);
/// Parse a minimizer_name(); throws Error(kInvalidInput) otherwise.
MinimizerKind parse_minimizer(const std::string& name);

// The builders take a Technology (logic/cost.hpp) selecting the style of
// the combinational blocks:
//   * kTwoLevel   -- flat AND-OR planes (the historical netlists);
//   * kMultiLevel -- algebraic factoring on the minimized covers
//     (logic/factor.hpp): intermediate nodes shared via fanout.
// Both styles implement identical boolean functions; the multi-level
// netlists are simulation-equivalent to the two-level ones by
// construction (algebraic division is an identity on cube sets).

struct ControllerStructure {
  Netlist nl;
  std::string kind;                 // "fig1" ... "fig4"
  Technology tech = Technology::kTwoLevel;  // style of the built netlist
  std::vector<NetId> pi;            // functional primary inputs (LSB first)
  std::vector<NetId> po;            // functional primary outputs
  NetId test_mode = kNoNet;         // fig2 only
  std::vector<std::size_t> reg_a;   // dff indices: R (fig1/2), R/first copy (fig3), R1 (fig4)
  std::vector<std::size_t> reg_b;   // dff indices: T (fig2), R' (fig3), R2 (fig4)
  std::vector<NetId> feedback_nets; // the R -> C feedback lines (fault target set)
  LogicCost logic;                  // two-level cost of the combinational blocks
                                    // (shared-product PLA cost on the espresso path)
  /// Factored cost point of the blocks (set on multi-level builds, so one
  /// build reports both technology columns of the area tables).
  std::optional<LogicCost> logic_ml;
  std::size_t factored_nodes = 0;   // intermediate nodes across all blocks
  /// Anytime labels of every minimization/factoring stage the build
  /// truncated under its budget (empty = nothing degraded). The netlist
  /// implements the encoded machine exactly in every case -- degradation
  /// only means less optimization, never wrong logic.
  std::vector<Degradation> degradations;
};

/// One minimized multi-output block. It carries exactly one two-level
/// form: `pla` when the cube-calculus multi-output engine ran (products
/// shared across outputs), the per-output `covers` on the exact QM path.
/// `factored` is set when the block was routed through algebraic
/// extraction (Technology::kMultiLevel).
struct MinimizedBlock {
  std::vector<Cover> covers;
  std::optional<CubeList> pla;
  std::optional<FactoredNetwork> factored;
  /// Anytime labels of the minimization/factoring stages that truncated
  /// work while preparing this block (empty = nothing degraded). Every
  /// structure built from the block carries them.
  std::vector<Degradation> degradations;

  /// Style the block was prepared for: multi-level exactly when factored.
  Technology tech() const {
    return factored ? Technology::kMultiLevel : Technology::kTwoLevel;
  }
  /// Two-level cost point (always available).
  LogicCost cost() const { return pla ? pla_cost(*pla) : block_cost(covers); }
  /// Multi-level cost point (only after extraction).
  std::optional<LogicCost> multilevel_cost() const {
    return factored ? std::optional<LogicCost>(factored_cost(*factored))
                    : std::nullopt;
  }
};

/// Route one block through the configured minimizer: exact per-output QM
/// for small tables (netlists identical to the historical ones), the
/// multi-output cube-calculus espresso for everything else. `spec` and
/// `tables` describe the same functions; on the espresso path a spec
/// whose output or variable count disagrees with `tables` throws
/// std::invalid_argument. With Technology::kMultiLevel the minimized
/// block is additionally run through greedy kernel/cube extraction (from
/// the PLA after espresso, from the per-output covers on the QM path).
/// The budget governs the espresso rounds (heuristic path) and, on the
/// multi-level path, the greedy extraction; the exact QM path for small
/// tables ignores it. Truncations are recorded in the block's
/// `degradations`. The block implements the tables at any budget.
MinimizedBlock minimize_for(const PlaSpec& spec, const std::vector<TruthTable>& tables,
                            MinimizerKind mk,
                            Technology tech = Technology::kTwoLevel,
                            const Budget& budget = {});

/// The combined (next-state low, outputs high) block C of an encoded
/// machine -- the one place it is minimized. Figs. 1-3 are built from it.
MinimizedBlock minimize_combined(const EncodedFsm& enc, MinimizerKind mk,
                                 Technology tech, const Budget& budget = {});

// A builder's anytime budget is shared by all of the minimization/
// factoring stages it runs (the deadline is absolute, so stages naturally
// split what remains); truncations are collected in
// ControllerStructure::degradations, after the labels the shared block
// carries. The built netlist is behavior-exact at any budget.

/// Fig. 1: conventional structure, from the shared block of `enc`.
ControllerStructure build_fig1(const EncodedFsm& enc, const MinimizedBlock& block);

/// Fig. 2: conventional structure + test register + bypass mux.
ControllerStructure build_fig2(const EncodedFsm& enc, const MinimizedBlock& block);

/// Fig. 3: doubled registers and combinational logic. The duplicated copy
/// is the next-state part of `block`; on a multi-level block it is
/// factored again on its own, under `budget`.
ControllerStructure build_fig3(const EncodedFsm& enc, const MinimizedBlock& block,
                               const Budget& budget = {});

/// Single-figure wrappers: build_figN(enc, minimize_combined(enc, mk, tech,
/// budget)).
ControllerStructure build_fig1(const EncodedFsm& enc,
                               MinimizerKind mk = MinimizerKind::kAuto,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});
ControllerStructure build_fig2(const EncodedFsm& enc,
                               MinimizerKind mk = MinimizerKind::kAuto,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});
ControllerStructure build_fig3(const EncodedFsm& enc,
                               MinimizerKind mk = MinimizerKind::kAuto,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});

/// Fig. 4: pipeline structure from a realization; states of each factor
/// are encoded with minimal-width natural codes by default.
ControllerStructure build_fig4(const MealyMachine& fsm, const Realization& real,
                               MinimizerKind mk = MinimizerKind::kAuto,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});

}  // namespace stc
