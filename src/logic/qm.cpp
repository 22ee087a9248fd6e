#include "logic/qm.hpp"

#include <algorithm>
#include <set>

#include "util/bitvec.hpp"

namespace stc {

std::vector<Cube> prime_implicants(const TruthTable& tt) {
  // Generation 0: minterms of ON u DC.
  std::set<Cube> current;
  for (Minterm m = 0; m < tt.num_minterms(); ++m)
    if (!tt.is_off(m)) current.insert(Cube::minterm(m, tt.num_vars()));

  std::vector<Cube> primes;
  while (!current.empty()) {
    std::set<Cube> next;
    std::set<Cube> merged_away;
    std::vector<Cube> cur(current.begin(), current.end());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      for (std::size_t j = i + 1; j < cur.size(); ++j) {
        Cube m;
        if (cur[i].try_merge(cur[j], &m)) {
          next.insert(m);
          merged_away.insert(cur[i]);
          merged_away.insert(cur[j]);
        }
      }
    }
    for (const auto& c : cur)
      if (!merged_away.count(c)) primes.push_back(c);
    current = std::move(next);
  }
  // Merging by identical care-sets can yield non-maximal cubes that another
  // prime strictly covers; drop them.
  std::vector<Cube> maximal;
  for (std::size_t i = 0; i < primes.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < primes.size() && !dominated; ++j)
      if (i != j && primes[j].covers(primes[i]) && !(primes[i].covers(primes[j])))
        dominated = true;
    if (!dominated) maximal.push_back(primes[i]);
  }
  std::sort(maximal.begin(), maximal.end());
  maximal.erase(std::unique(maximal.begin(), maximal.end()), maximal.end());
  return maximal;
}

namespace {

/// The covering table, one bit row per prime over the ON-minterm indices:
/// bit k of prime p's row is set iff p covers on[k]. Rows are `words`
/// 64-bit words long; the bits past on.size() stay 0.
struct CoverProblem {
  std::vector<Cube> primes;
  std::vector<Minterm> on;                    // minterms to cover
  std::vector<std::vector<std::size_t>> covers_of;  // per ON index: prime ids
  std::size_t words = 0;
  std::vector<std::uint64_t> rows;            // primes.size() x words

  explicit CoverProblem(const TruthTable& tt) {
    primes = prime_implicants(tt);
    on = tt.on_minterms();
    words = (on.size() + 63) / 64;
    rows.assign(primes.size() * words, 0);
    covers_of.resize(on.size());
    for (std::size_t k = 0; k < on.size(); ++k)
      for (std::size_t p = 0; p < primes.size(); ++p)
        if (primes[p].contains_minterm(on[k])) {
          covers_of[k].push_back(p);
          rows[p * words + k / 64] |= std::uint64_t{1} << (k % 64);
        }
  }

  const std::uint64_t* row(std::size_t p) const { return rows.data() + p * words; }
};

/// Cost of a prime for comparisons: cube first, literals second.
std::size_t prime_cost(const Cube& c) { return 64 + c.num_literals(); }

/// Greedy cover with essential-prime extraction.
std::vector<std::size_t> greedy_cover(const CoverProblem& prob) {
  std::vector<bool> chosen(prob.primes.size(), false);
  std::vector<std::uint64_t> covered(prob.words, 0);
  std::size_t remaining = prob.on.size();

  // Minterms of p's row not yet covered.
  auto gain_of = [&](std::size_t p) {
    const std::uint64_t* r = prob.row(p);
    std::size_t gain = 0;
    for (std::size_t w = 0; w < prob.words; ++w)
      gain += static_cast<std::size_t>(popcount64(r[w] & ~covered[w]));
    return gain;
  };
  auto choose = [&](std::size_t p) {
    chosen[p] = true;
    remaining -= gain_of(p);
    const std::uint64_t* r = prob.row(p);
    for (std::size_t w = 0; w < prob.words; ++w) covered[w] |= r[w];
  };
  auto is_covered = [&](std::size_t k) { return (covered[k / 64] >> (k % 64)) & 1; };

  // Essentials.
  for (std::size_t k = 0; k < prob.on.size(); ++k)
    if (!is_covered(k) && prob.covers_of[k].size() == 1) choose(prob.covers_of[k][0]);

  // Greedy: maximize newly covered minterms, tie-break on fewer literals.
  while (remaining > 0) {
    std::size_t best = SIZE_MAX, best_gain = 0, best_cost = SIZE_MAX;
    for (std::size_t p = 0; p < prob.primes.size(); ++p) {
      if (chosen[p]) continue;
      const std::size_t gain = gain_of(p);
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && prime_cost(prob.primes[p]) < best_cost)) {
        best = p;
        best_gain = gain;
        best_cost = prime_cost(prob.primes[p]);
      }
    }
    if (best == SIZE_MAX) break;  // uncoverable (cannot happen: primes cover ON)
    choose(best);
  }

  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < prob.primes.size(); ++p)
    if (chosen[p]) out.push_back(p);
  return out;
}

/// Branch-and-bound over the covering problem, seeded with the greedy
/// cover as incumbent. Each node branches on the primes covering the first
/// uncovered ON minterm; a branch is pruned once its cost reaches the
/// incumbent's. Past the node cap every remaining node returns at once, so
/// the result is the best cover found so far (exact when the cap is not
/// reached).
///
/// Every node picks a prime covering a new minterm, so the search is at
/// most on.size() deep: the covered rows of all depths live in one
/// preallocated stack, and a node allocates nothing.
class BranchBound {
 public:
  BranchBound(const CoverProblem& prob, std::size_t node_budget)
      : prob_(prob), budget_(node_budget) {
    best_choice_ = greedy_cover(prob);
    best_cost_ = cost_of(best_choice_);
    best_choice_.reserve(prob.on.size());
    chosen_.reserve(prob.on.size());
    covered_.assign((prob.on.size() + 1) * prob.words, 0);
    // Padding bits past on.size() count as covered, so the first zero bit
    // of a row is always an ON index.
    if (prob.on.size() % 64 != 0)
      covered_[prob.words - 1] = ~std::uint64_t{0} << (prob.on.size() % 64);
    recurse(0, 0);
  }

  const std::vector<std::size_t>& best() const { return best_choice_; }

 private:
  std::size_t cost_of(const std::vector<std::size_t>& sel) const {
    std::size_t c = 0;
    for (auto p : sel) c += prime_cost(prob_.primes[p]);
    return c;
  }

  void recurse(std::size_t depth, std::size_t cur_cost) {
    if (++nodes_ > budget_) return;
    const std::size_t words = prob_.words;
    const std::uint64_t* covered = covered_.data() + depth * words;
    // First uncovered ON minterm.
    std::size_t k = SIZE_MAX;
    for (std::size_t w = 0; w < words; ++w) {
      if (~covered[w]) {
        k = w * 64 + static_cast<std::size_t>(count_trailing_zeros64(~covered[w]));
        break;
      }
    }
    if (k == SIZE_MAX) {
      if (cur_cost < best_cost_) {
        best_cost_ = cur_cost;
        best_choice_ = chosen_;
      }
      return;
    }
    // Branch on every prime covering minterm k.
    std::uint64_t* next = covered_.data() + (depth + 1) * words;
    for (std::size_t p : prob_.covers_of[k]) {
      const std::size_t new_cost = cur_cost + prime_cost(prob_.primes[p]);
      if (new_cost >= best_cost_) continue;  // bound
      const std::uint64_t* r = prob_.row(p);
      for (std::size_t w = 0; w < words; ++w) next[w] = covered[w] | r[w];
      chosen_.push_back(p);
      recurse(depth + 1, new_cost);
      chosen_.pop_back();
    }
  }

  const CoverProblem& prob_;
  std::size_t budget_;
  std::uint64_t nodes_ = 0;
  std::vector<std::size_t> chosen_;
  std::vector<std::uint64_t> covered_;  // (on.size() + 1) x words
  std::vector<std::size_t> best_choice_;
  std::size_t best_cost_ = SIZE_MAX;
};

}  // namespace

Cover minimize_qm(const TruthTable& tt, const QmOptions& options) {
  Cover out(tt.num_vars());
  if (tt.on_count() == 0) return out;  // constant 0: empty cover

  CoverProblem prob(tt);
  BranchBound bb(prob, options.max_bb_nodes);
  for (std::size_t p : bb.best()) out.add(prob.primes[p]);
  out.remove_contained();
  return out;
}

}  // namespace stc
