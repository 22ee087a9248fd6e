// Differential test of QM's covering step. The reference below is the
// scalar greedy + branch-and-bound that minimize_qm ran before its covering
// table became bit rows: it copies a std::vector<bool> per node and
// re-tests every ON minterm against every chosen prime. The two must pick
// the same primes in the same order at every node cap, so a change in
// node order or node count cannot hide behind the cap.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "logic/qm.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

// --- scalar reference -----------------------------------------------------------

struct RefProblem {
  std::vector<Cube> primes;
  std::vector<Minterm> on;
  std::vector<std::vector<std::size_t>> covers_of;

  explicit RefProblem(const TruthTable& tt) {
    primes = prime_implicants(tt);
    on = tt.on_minterms();
    covers_of.resize(on.size());
    for (std::size_t k = 0; k < on.size(); ++k)
      for (std::size_t p = 0; p < primes.size(); ++p)
        if (primes[p].contains_minterm(on[k])) covers_of[k].push_back(p);
  }
};

std::size_t ref_cost(const Cube& c) { return 64 + c.num_literals(); }

std::vector<std::size_t> ref_greedy(const RefProblem& prob) {
  std::vector<bool> chosen(prob.primes.size(), false);
  std::vector<bool> covered(prob.on.size(), false);
  std::size_t remaining = prob.on.size();
  auto choose = [&](std::size_t p) {
    chosen[p] = true;
    for (std::size_t k = 0; k < prob.on.size(); ++k) {
      if (!covered[k] && prob.primes[p].contains_minterm(prob.on[k])) {
        covered[k] = true;
        --remaining;
      }
    }
  };
  for (std::size_t k = 0; k < prob.on.size(); ++k)
    if (!covered[k] && prob.covers_of[k].size() == 1) choose(prob.covers_of[k][0]);
  while (remaining > 0) {
    std::size_t best = SIZE_MAX, best_gain = 0, best_cost = SIZE_MAX;
    for (std::size_t p = 0; p < prob.primes.size(); ++p) {
      if (chosen[p]) continue;
      std::size_t gain = 0;
      for (std::size_t k = 0; k < prob.on.size(); ++k)
        if (!covered[k] && prob.primes[p].contains_minterm(prob.on[k])) ++gain;
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && ref_cost(prob.primes[p]) < best_cost)) {
        best = p;
        best_gain = gain;
        best_cost = ref_cost(prob.primes[p]);
      }
    }
    if (best == SIZE_MAX) break;
    choose(best);
  }
  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < prob.primes.size(); ++p)
    if (chosen[p]) out.push_back(p);
  return out;
}

class RefBranchBound {
 public:
  RefBranchBound(const RefProblem& prob, std::size_t node_budget)
      : prob_(prob), budget_(node_budget) {
    best_ = ref_greedy(prob);
    for (std::size_t p : best_) best_cost_ += ref_cost(prob.primes[p]);
    std::vector<std::size_t> chosen;
    std::vector<bool> covered(prob.on.size(), false);
    recurse(chosen, covered, 0);
  }

  const std::vector<std::size_t>& best() const { return best_; }
  std::uint64_t nodes() const { return nodes_; }

 private:
  void recurse(std::vector<std::size_t>& chosen, std::vector<bool>& covered,
               std::size_t cur_cost) {
    if (++nodes_ > budget_) return;
    std::size_t k = SIZE_MAX;
    for (std::size_t i = 0; i < covered.size(); ++i) {
      if (!covered[i]) {
        k = i;
        break;
      }
    }
    if (k == SIZE_MAX) {
      if (cur_cost < best_cost_) {
        best_cost_ = cur_cost;
        best_ = chosen;
      }
      return;
    }
    for (std::size_t p : prob_.covers_of[k]) {
      const std::size_t new_cost = cur_cost + ref_cost(prob_.primes[p]);
      if (new_cost >= best_cost_) continue;
      std::vector<bool> saved = covered;
      for (std::size_t i = 0; i < prob_.on.size(); ++i)
        if (prob_.primes[p].contains_minterm(prob_.on[i])) covered[i] = true;
      chosen.push_back(p);
      recurse(chosen, covered, new_cost);
      chosen.pop_back();
      covered = std::move(saved);
    }
  }

  const RefProblem& prob_;
  std::size_t budget_;
  std::uint64_t nodes_ = 0;
  std::vector<std::size_t> best_;
  std::size_t best_cost_ = 0;
};

/// The reference cover, assembled the way minimize_qm assembles its own.
Cover reference_qm(const TruthTable& tt, std::size_t max_bb_nodes, std::uint64_t* nodes) {
  Cover out(tt.num_vars());
  *nodes = 0;
  if (tt.on_count() == 0) return out;
  const RefProblem prob(tt);
  const RefBranchBound bb(prob, max_bb_nodes);
  *nodes = bb.nodes();
  for (std::size_t p : bb.best()) out.add(prob.primes[p]);
  out.remove_contained();
  return out;
}

// --- tables ---------------------------------------------------------------------

/// `on` distinct random ON minterms and `dc` don't-cares among the rest.
TruthTable random_table(std::size_t vars, std::size_t on, std::size_t dc, Rng& rng) {
  TruthTable tt(vars);
  std::vector<Minterm> order(tt.num_minterms());
  for (Minterm m = 0; m < order.size(); ++m) order[m] = m;
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  for (std::size_t i = 0; i < on; ++i) tt.set_on(order[i]);
  for (std::size_t i = on; i < on + dc; ++i) tt.set_dc(order[i]);
  return tt;
}

struct TableCase {
  std::size_t vars, on, dc;
};

// ON counts around the 64-bit word boundaries (63, 64, 65, 128 and more)
// and small tables of 4-6 variables.
const TableCase kCases[] = {
    {4, 7, 3},    {5, 13, 6},   {6, 30, 10},  {7, 63, 20},   {7, 64, 16},
    {7, 65, 24},  {8, 63, 60},  {8, 64, 40},  {8, 65, 50},   {8, 128, 40},
    {9, 128, 90}, {9, 129, 60}, {9, 200, 80}, {10, 258, 120}, {10, 300, 60},
};

TEST(QmDifferential, BitRowCoverEqualsScalarReferenceAtEveryCap) {
  Rng rng(0x9A17);
  std::size_t capped = 0, finished = 0;
  for (const TableCase& tc : kCases) {
    const TruthTable tt = random_table(tc.vars, tc.on, tc.dc, rng);
    ASSERT_EQ(tt.on_count(), tc.on);
    for (std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{1000},
                            std::size_t{200000}}) {
      SCOPED_TRACE("vars " + std::to_string(tc.vars) + " on " + std::to_string(tc.on) +
                   " cap " + std::to_string(cap));
      std::uint64_t nodes = 0;
      const Cover ref = reference_qm(tt, cap, &nodes);
      QmOptions opt;
      opt.max_bb_nodes = cap;
      const Cover got = minimize_qm(tt, opt);
      ASSERT_EQ(got.num_cubes(), ref.num_cubes());
      for (std::size_t i = 0; i < ref.num_cubes(); ++i)
        EXPECT_EQ(got.cubes()[i], ref.cubes()[i]) << "cube " << i;
      EXPECT_TRUE(got.implements(tt));
      (nodes > cap ? capped : finished) += 1;
    }
  }
  // Both regimes are exercised: searches cut by the cap and searches that
  // finish below it.
  EXPECT_GT(capped, 0u);
  EXPECT_GT(finished, 0u);
}

}  // namespace
}  // namespace stc
