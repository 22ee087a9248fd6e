#pragma once
// Multi-level synthesis: algebraic (weak) division and kernel-based
// factoring on top of the cube-calculus PLA type.
//
// The two-level minimizer (logic/espresso_lite.hpp) produces a CubeList:
// a flat AND plane of shared products feeding per-output OR planes. This
// layer re-expresses that PLA as a DAG of small single-output nodes by
// repeatedly pulling the best-value divisor out of the network, in the
// MIS/algebraic tradition:
//
//   * cube divisors  -- a product of >= 2 literals occurring in >= 2 cubes
//     anywhere in the network becomes one AND node, every occurrence is
//     replaced by a reference to it;
//   * kernel divisors -- a cube-free multi-cube quotient f / c (c a
//     co-kernel cube of f) becomes one AND-OR node x, and every function g
//     it divides is rewritten g = quotient * x + remainder.
//
// Division is *algebraic*, not Boolean: literals are opaque symbols, so
// f == quotient * divisor + remainder holds as an identity on cube sets,
// which makes the factored network simulation-equivalent to the two-level
// cover by construction -- no don't-care reasoning, no new minterms. The
// price is that Boolean factors (e.g. x and !x reconverging) are never
// found; the payoff is that equivalence is structural and every consumer
// (netlist builder, cost model, fault-simulation engines) can rely on it.
//
// Everything here operates on sorted vectors of literal ids rather than
// the 64-bit Cube masks: intermediate nodes extend the variable space past
// 64, and algebraic division never needs polarity semantics anyway.

#include <cstdint>
#include <vector>

#include "logic/cubelist.hpp"
#include "util/budget.hpp"

namespace stc {

// --- the algebraic literal space ---------------------------------------------

/// Literal ids of the factored space: input variable v contributes the
/// positive literal 2v and the complemented literal 2v+1; intermediate
/// node j of a network over `num_vars` inputs contributes the (always
/// positive) literal 2*(num_vars + j).
using LitId = std::uint32_t;

inline LitId pos_lit(std::size_t v) { return static_cast<LitId>(2 * v); }
inline LitId neg_lit(std::size_t v) { return static_cast<LitId>(2 * v + 1); }
inline LitId node_lit(std::size_t num_vars, std::size_t node) {
  return static_cast<LitId>(2 * (num_vars + node));
}
inline bool is_node_lit(LitId l, std::size_t num_vars) {
  return l >= 2 * num_vars;
}
inline std::size_t node_of_lit(LitId l, std::size_t num_vars) {
  return static_cast<std::size_t>(l / 2) - num_vars;
}

/// A product term of the algebraic layer: a strictly ascending list of
/// literal ids. The empty cube is the constant 1.
using FCube = std::vector<LitId>;

/// Sum of products over literal ids. Every cube is individually sorted
/// (the invariant all set algebra relies on); the cube *list* is sorted
/// and duplicate-free after normalize(), but divide() tolerates an
/// unsorted list -- the extractor rewrites cubes in place.
struct SopExpr {
  std::vector<FCube> cubes;

  std::size_t num_cubes() const { return cubes.size(); }
  std::size_t num_literals() const;
  bool empty() const { return cubes.empty(); }

  /// Sort the cube list and drop exact duplicates (each FCube must already
  /// be sorted).
  void normalize();

  bool operator==(const SopExpr& o) const { return cubes == o.cubes; }
};

/// Cube of an input-space Cube (no node literals).
FCube fcube_from_cube(const Cube& c, std::size_t num_vars);

/// Per-output expressions of a multi-output PLA: shared products are
/// duplicated per output here; extraction re-discovers the sharing as
/// cube divisors.
std::vector<SopExpr> sops_from_cubelist(const CubeList& pla);

/// Single-output-per-cover CubeList (bit b of the output part = cover b),
/// with identical input parts merged. The bridge from the QM path into
/// the extractor.
CubeList cubelist_from_covers(const std::vector<Cover>& covers);

// --- algebraic division ------------------------------------------------------

struct DivisionResult {
  SopExpr quotient;
  SopExpr remainder;
};

/// Weak (algebraic) division: the unique maximal quotient q with
/// f = q * d + r, q * d a product of support-disjoint cube pairs and every
/// product cube a cube of f. q is empty when d does not divide f.
DivisionResult divide(const SopExpr& f, const SopExpr& d);

/// Quotient of division by a single cube: { c \ d : d subset of c in f }.
std::vector<FCube> quotient_by_cube(const SopExpr& f, const FCube& d);

/// Largest cube dividing every cube of `cubes` (their common literal set);
/// empty result means the list is cube-free.
FCube common_cube(const std::vector<FCube>& cubes);

// --- kernels -----------------------------------------------------------------

/// A kernel of f: a cube-free quotient of f by a cube with >= 2 cubes,
/// together with the co-kernel cube that produced it.
struct Kernel {
  SopExpr kernel;
  FCube cokernel;
};

/// Kernel enumeration via co-kernel cube candidates: every single literal
/// used by >= 2 cubes and -- for functions of at most `pair_cap` cubes --
/// every nonempty pairwise cube intersection; quotients are made cube-free
/// by dividing out their common cube. Includes f itself when f is
/// cube-free with >= 2 cubes. Not the complete recursive kernel set, but a
/// superset of the level-0 kernels reachable from those co-kernels, which
/// is what the greedy extraction consumes.
std::vector<Kernel> enumerate_kernels(const SopExpr& f, std::size_t pair_cap = 96);

// --- the factored network ----------------------------------------------------

/// A DAG of single-output intermediate nodes plus the rewritten output
/// expressions. Node j's SOP references only input literals and nodes
/// < j (topological by construction), and node literals always appear
/// positively.
struct FactoredNetwork {
  std::size_t num_vars = 0;
  std::size_t num_outputs = 0;
  std::vector<SopExpr> nodes;    // intermediate nodes, topologically ordered
  std::vector<SopExpr> outputs;  // one per PLA output

  std::size_t num_nodes() const { return nodes.size(); }

  /// Factored literal count: total SOP literals over every node and output
  /// expression (node references count as one literal each). The metric
  /// the greedy extraction minimizes.
  std::size_t num_literals() const;

  /// Evaluate every node and output on one input minterm. `node_vals` and
  /// `out_vals` are resized by the call.
  void evaluate_all(Minterm m, std::vector<bool>& node_vals,
                    std::vector<bool>& out_vals) const;

  /// Convenience single-output evaluation (allocates scratch per call).
  bool evaluate(Minterm m, std::size_t b) const;

  /// Structural invariants: sorted duplicate-free cubes, node SOPs
  /// referencing only earlier nodes, no empty node SOPs. Throws
  /// std::logic_error on violation (used by tests and debug builds).
  void check() const;
};

struct FactorOptions {
  /// Anytime governance. One work unit = one greedy extraction step (a
  /// cube-divisor pull or a kernel round); the deadline and the cancel
  /// token are additionally polled inside the kernel enumeration and
  /// candidate evaluation loops. Every substitution is applied atomically
  /// and division is an algebraic identity, so the network is exactly
  /// equivalent to the input PLA at ANY stopping point -- an exhausted
  /// budget just means fewer shared divisors (zero budget = the flat SOPs
  /// re-emitted as-is).
  Budget budget;
};

/// Greedy extraction: repeatedly pull the best-value cube or kernel
/// divisor out of the multi-output network until no divisor saves
/// literals, then inline single-use nodes that do not pay for themselves.
/// The result computes exactly the same boolean functions as `pla` --
/// including under an exhausted budget (see FactorOptions::budget). When
/// `degradation` is non-null it reports whether extraction was cut short.
FactoredNetwork extract_factored(const CubeList& pla, const FactorOptions& options = {},
                                 Degradation* degradation = nullptr);

/// QM-path convenience: factor a per-output cover block.
FactoredNetwork extract_factored(const std::vector<Cover>& covers,
                                 const FactorOptions& options = {},
                                 Degradation* degradation = nullptr);

}  // namespace stc
