#pragma once
// Heuristic two-level minimization in the espresso style:
// EXPAND / IRREDUNDANT / REDUCE iterated to a fixpoint on cover cost,
// running entirely on the cube calculus (logic/cubelist.hpp).
//
// Unlike the original dense version, nothing here enumerates minterms:
// the OFF set is a *cover* obtained by unate-recursive complement of
// ON u DC, EXPAND validity is a cube-vs-cover disjointness test, and
// IRREDUNDANT / REDUCE are tautology / sharp computations on cofactors.
// The minimizer is multi-output: the output part of each cube is treated
// espresso-style, so a product term shared by several next-state and
// output bits is derived (and later instantiated in the netlist) once.
//
// Not the full espresso algorithm (no MAXIMAL_REDUCE, no LASTGASP), but
// exact on the containment invariants: the result always implements the
// specification. QM (logic/qm.hpp) stays the exact reference for small
// tables.

#include "logic/cubelist.hpp"
#include "util/budget.hpp"

namespace stc {

struct EspressoOptions {
  /// Anytime governance. One work unit = one EXPAND/IRREDUNDANT/REDUCE
  /// round; the deadline and the cancel token are additionally polled
  /// once per cube inside EXPAND and between OFF-cover complements. The
  /// valid-partial-result invariant: the cover is a
  /// correct implementation of the spec at EVERY stopping point (the
  /// initial merged ON cover is valid, each individual cube expansion
  /// preserves validity, and IRREDUNDANT/REDUCE run only at round
  /// boundaries), so any budget -- including zero -- yields a cover that
  /// implements the spec, labeled via the Degradation out-param.
  Budget budget;
};

/// Multi-output minimization of `spec`. The initial cover is the ON cube
/// list with identical input parts merged; the result implements every
/// output (ON covered, OFF avoided) by construction -- including under an
/// exhausted budget (see EspressoOptions::budget). When `degradation` is
/// non-null it is filled with what, if anything, was truncated.
CubeList minimize_espresso_mv(const PlaSpec& spec, const EspressoOptions& options = {},
                              Degradation* degradation = nullptr);

/// Single-output convenience wrapper over the multi-output engine.
Cover minimize_espresso(const TruthTable& tt, const EspressoOptions& options = {},
                        Degradation* degradation = nullptr);

}  // namespace stc
