#pragma once
// Problem OSTR (Optimal Self-Testable Realization) and the depth-first
// search procedure of Section 3.
//
// Given a completely specified Mealy machine M, find a symmetric partition
// pair (pi, tau) with pi `meet` tau refining state equivalence, minimizing
//   (i)  ceil(log2 |S/pi|) + ceil(log2 |S/tau|)          (flip-flops)
//   (ii) | |S/pi| / |S/tau| - 1 |                        (balance, tie-break)
//
// Search space: the Mm-lattice skeleton. Nodes of the search tree are
// subsets N of the basis {m(rho_{s,t})}; at each node kappa = join(N) and
// the Mm-pair (M(kappa), kappa) is examined, falling back to
// (m(kappa), kappa). Lemma 1: if m(kappa) meet kappa does not refine
// epsilon, no node in the subtree can yield a solution -> prune.
//
// Engine: the search runs as an explicit iterative frontier over interned
// PartitionIds (see partition/store.hpp). Each child kappa is one memoized
// join of the parent kappa with a basis element; all m/M/meet/refines
// queries hit the store's memo tables. The top-level subtrees (one per
// basis element) are independent tasks, run on the calling thread in
// rounds of deterministic geometric node quotas and merged in task order,
// so a node-capped search always visits the same nodes and returns the
// same pair (see DESIGN.md "Deterministic quota rounds").

#include <cstdint>
#include <optional>
#include <vector>

#include "ostr/realization.hpp"
#include "partition/lattice.hpp"
#include "partition/store.hpp"
#include "util/budget.hpp"

namespace stc {

struct OstrOptions {
  /// Apply Lemma-1 pruning (Table 2 ablates this).
  bool prune = true;
  /// Abort after visiting (approximately) this many search-tree nodes
  /// (paper: "timeout" for tbk). The budget is split across the top-level
  /// subtrees with deterministic geometric quotas, so a capped search is
  /// reproducible; the best solution found so far is returned.
  std::uint64_t max_nodes = 5'000'000;
  /// Anytime governance (util/budget.hpp). The work allowance caps search
  /// nodes exactly like max_nodes (the effective node cap is the minimum
  /// of the two, split with the same deterministic quotas); the deadline
  /// and the cancel token are checked at every frontier pop. Node-capped
  /// searches are reproducible; under a deadline or a cancellation WHICH
  /// nodes were visited depends on timing -- the returned best is always
  /// a valid symmetric pair (the doubling solution exists at budget zero),
  /// and the result is labeled via OstrResult::degradation.
  Budget budget;
  /// Use cost criterion (ii) as tie-break; when false, the first solution
  /// with minimal (i) wins (ablation bench).
  bool balance_tiebreak = true;
};

/// One candidate solution of problem OSTR.
struct OstrSolution {
  Partition pi;
  Partition tau;
  std::size_t s1 = 0;        // |S/pi|
  std::size_t s2 = 0;        // |S/tau|
  std::size_t flipflops = 0; // criterion (i)
  double balance = 0.0;      // criterion (ii)

  /// Lexicographic comparison on ((i), (ii)).
  bool better_than(const OstrSolution& o, bool use_balance) const;
};

struct OstrStats {
  std::size_t num_states = 0;
  std::size_t basis_size = 0;          // |M|; search tree has 2^|M| nodes
  std::uint64_t nodes_investigated = 0;
  std::uint64_t nodes_pruned = 0;      // subtree roots cut by Lemma 1
  std::uint64_t solutions_seen = 0;    // candidate symmetric pairs evaluated
  bool exhausted = true;               // false if max_nodes hit
  /// Interner/memo counters of the search's store (deltas for this solve
  /// when an external long-lived store was supplied).
  PartitionStore::Stats cache;
};

struct OstrResult {
  OstrSolution best;                   // never absent: doubling always works
  OstrStats stats;
  /// Anytime label: degraded == !stats.exhausted, with the budget's reason
  /// ("work-allowance" covers the max_nodes cap too) and the node counts.
  Degradation degradation;
};

/// Run the Section-3 depth-first search. The machine must be completely
/// specified.
OstrResult solve_ostr(const MealyMachine& fsm, const OstrOptions& options = {});

/// Same, but reuse a caller-owned interner (one per machine across a whole
/// synthesis flow). The store must be bound to `fsm`; the search interns
/// into it and reports its counter deltas in OstrStats::cache.
OstrResult solve_ostr(const MealyMachine& fsm, const OstrOptions& options,
                      PartitionStore& store);

/// Reference implementation: enumerate *all* partitions of S (Bell-number
/// many -- use only for |S| <= ~8) and return the optimum over all
/// symmetric pairs with intersection refining epsilon. Used by tests and
/// the exactness ablation.
OstrSolution brute_force_ostr(const MealyMachine& fsm, bool balance_tiebreak = true);

/// All set partitions of {0..n-1} (Bell(n) of them) in a deterministic
/// order; exposed for tests. Throws for n > 10.
std::vector<Partition> all_partitions(std::size_t n);

}  // namespace stc
