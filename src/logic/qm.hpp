#pragma once
// Quine-McCluskey two-level minimization: prime implicant generation by
// iterative merging, followed by unate covering. A greedy cover with
// essential extraction seeds the incumbent; a branch-and-bound over the
// covering table then improves it, exactly unless the node cap is reached.

#include "logic/cover.hpp"

namespace stc {

/// All prime implicants of the function (ON u DC used for merging; primes
/// that cover only DC minterms are kept -- the cover step ignores them).
std::vector<Cube> prime_implicants(const TruthTable& tt);

struct QmOptions {
  /// Upper bound on branch-and-bound nodes. At the cap the search stops and
  /// returns the best cover found so far (at worst the greedy seed).
  std::size_t max_bb_nodes = 200000;
};

/// Minimal SOP cover of tt, or the best one found within the node cap.
Cover minimize_qm(const TruthTable& tt, const QmOptions& options = {});

}  // namespace stc
