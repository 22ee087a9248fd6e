#include "ostr/ostr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "fsm/minimize.hpp"

namespace stc {

bool OstrSolution::better_than(const OstrSolution& o, bool use_balance) const {
  if (flipflops != o.flipflops) return flipflops < o.flipflops;
  if (use_balance && balance != o.balance) return balance < o.balance;
  return false;
}

namespace {

double balance_of(std::size_t s1, std::size_t s2) {
  return s2 == 0 ? 0.0
                 : std::abs(static_cast<double>(s1) / static_cast<double>(s2) - 1.0);
}

OstrSolution make_solution(const Partition& pi, const Partition& tau) {
  OstrSolution s;
  s.pi = pi;
  s.tau = tau;
  s.s1 = pi.num_blocks();
  s.s2 = tau.num_blocks();
  s.flipflops = ceil_log2(s.s1) + ceil_log2(s.s2);
  s.balance = balance_of(s.s1, s.s2);
  return s;
}

/// (flipflops, balance) packed so that the lexicographic solution order is
/// plain integer order: flip-flops in the high word, the IEEE bits of
/// balance-as-float in the low word (balance >= 0, so float bit patterns
/// are monotone).
std::uint64_t pack_cost(std::size_t ff, double balance) {
  const float f = static_cast<float>(balance);
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return (static_cast<std::uint64_t>(ff) << 32) | bits;
}

/// Outcome of one independent unit of search (the identity root, or one
/// top-level subtree). Results are merged in task order, so the final best
/// does not depend on which budget round last ran a task.
struct TaskResult {
  bool has_best = false;
  OstrSolution best;
  std::uint64_t nodes = 0;
  std::uint64_t pruned = 0;
  std::uint64_t seen = 0;
  bool exhausted = true;
};

/// Search state shared by all tasks: the caller's interner, the interned
/// search anchors and the best cost found by any task so far.
struct SearchCtx {
  const MealyMachine& fsm;
  const OstrOptions& opt;
  PartitionStore& store;
  /// Packed cost (pack_cost) of the best solution any task has found.
  std::uint64_t bound = UINT64_MAX;
  PartitionId eps_id;
  PartitionId identity_id;
  std::vector<PartitionId> basis_ids;
  std::vector<PartitionId> rho_ids;  // lazily interned pair relations
  std::vector<PartitionId> frame_kappa;  // reusable DFS stack
  std::vector<std::size_t> frame_next;
  /// Deadline/cancel copy of the caller's budget (the work allowance is
  /// folded into the deterministic node quotas instead, see run_search).
  Budget budget;

  SearchCtx(const MealyMachine& f, const OstrOptions& o, PartitionStore& s,
            const Partition& eps, const std::vector<Partition>& basis)
      : fsm(f), opt(o), store(s), budget(o.budget) {
    budget.with_work(UINT64_MAX);
    eps_id = store.intern(eps);
    identity_id = store.identity_id(fsm.num_states());
    basis_ids.reserve(basis.size());
    for (const auto& p : basis) basis_ids.push_back(store.intern(p));
    rho_ids.assign(fsm.num_states() * (fsm.num_states() + 1) / 2, kNoPartition);
  }

  PartitionId rho(std::size_t s, std::size_t t) {
    const std::size_t n = fsm.num_states();
    const std::size_t idx = s * (2 * n - s - 1) / 2 + (t - s - 1);
    if (rho_ids[idx] == kNoPartition)
      rho_ids[idx] = store.intern(Partition::pair_relation(n, s, t));
    return rho_ids[idx];
  }
};

/// One task: the iterative DFS over a single top-level subtree (or the
/// identity root alone), with a task-local incumbent seeded at the trivial
/// doubling solution. Candidate generation depends only on the task and
/// the machine -- never on other tasks -- so a task restarted in a later
/// budget round retraces its earlier prefix exactly.
struct TaskRun {
  SearchCtx& w;
  std::uint64_t quota;
  TaskResult res;
  OstrSolution incumbent;  // starts as the doubling solution
  bool improved = false;   // reset per node; gates greedy_coarsen

  TaskRun(SearchCtx& ctx, std::uint64_t q, const OstrSolution& doubling)
      : w(ctx), quota(q), incumbent(doubling) {}

  void offer(PartitionId pi, PartitionId tau) {
    ++res.seen;
    const Partition& p = w.store.get(pi);
    const Partition& t = w.store.get(tau);
    const std::size_t s1 = p.num_blocks();
    const std::size_t s2 = t.num_blocks();
    const std::size_t ff = ceil_log2(s1) + ceil_log2(s2);
    const double bal = balance_of(s1, s2);
    const bool better =
        ff != incumbent.flipflops
            ? ff < incumbent.flipflops
            : (w.opt.balance_tiebreak && bal < incumbent.balance);
    if (!better) return;
    incumbent = make_solution(p, t);
    improved = true;
    res.has_best = true;
    res.best = incumbent;
    w.bound = std::min(w.bound, pack_cost(ff, bal));
  }

  /// Examine the node kappa; returns false if (by Lemma 1) the subtree
  /// below it cannot contain a solution.
  bool visit(PartitionId kappa) {
    ++res.nodes;
    improved = false;

    // Lemma 1 / minimal-intersection argument: m(kappa) meet kappa is the
    // least intersection over the whole interval of pairs anchored at this
    // Mm-pair. If it already violates epsilon, neither this node nor any
    // successor can yield a solution.
    const PartitionId mk = w.store.m_of(kappa);
    if (!w.store.refines(w.store.meet(mk, kappa), w.eps_id)) return false;

    // Preferred candidate: the Mm-pair (M(kappa), kappa); pi as coarse as
    // possible means the fewest R1 states.
    const PartitionId Mk = w.store.M_of(kappa);
    if (w.store.refines(w.store.meet(Mk, kappa), w.eps_id) &&
        w.store.refines(mk, Mk)) {  // (kappa, M(kappa)) is a pair
      offer(Mk, kappa);
    } else if (w.store.refines(w.store.m_of(mk), kappa)) {
      // Fallback of Section 3: (m(kappa), kappa) has the minimal
      // intersection in the interval; by the check above it refines eps.
      offer(mk, kappa);
    }

    // Completion of the paper's candidate set (see DESIGN.md, "Algorithm
    // completion"): the paper's procedure only scores the Mm endpoints,
    // but the Theorem-2 interval around the Mm-pair contains symmetric
    // pairs whose components are strictly *between* them (e.g. product
    // machines where M(kappa) over-coarsens past epsilon but an
    // intermediate pi works). Greedily coarsen (m(kappa), kappa) inside
    // the validity region. Gated to small machines or nodes that just
    // improved the task incumbent, to keep large searches fast.
    if (w.fsm.num_states() <= 12 || improved) greedy_coarsen(mk, kappa);
    return true;
  }

  /// Greedily coarsen pi, then tau, one pair-join at a time, while the
  /// result stays a symmetric partition pair whose meet refines epsilon.
  /// Every accepted step is offered as a candidate. All lattice steps and
  /// pair checks are memoized store lookups after first touch.
  void greedy_coarsen(PartitionId pi, PartitionId tau) {
    const std::size_t n = w.fsm.num_states();
    bool progress = true;
    while (progress) {
      progress = false;
      for (int side = 0; side < 2 && !progress; ++side) {
        const PartitionId other = side == 0 ? tau : pi;
        for (std::size_t s = 0; s < n && !progress; ++s) {
          for (std::size_t t = s + 1; t < n && !progress; ++t) {
            const PartitionId target = side == 0 ? pi : tau;
            if (w.store.get(target).same_block(s, t)) continue;
            const PartitionId cand = w.store.join(target, w.rho(s, t));
            if (!w.store.refines(w.store.meet(cand, other), w.eps_id)) continue;
            const PartitionId new_pi = side == 0 ? cand : pi;
            const PartitionId new_tau = side == 0 ? tau : cand;
            if (!w.store.is_pair(new_pi, new_tau) ||
                !w.store.is_pair(new_tau, new_pi))
              continue;
            (side == 0 ? pi : tau) = cand;
            offer(new_pi, new_tau);
            progress = true;
          }
        }
      }
    }
  }

  /// Visit the identity root node only (children are the per-subtree
  /// tasks). Returns the Lemma-1 viability of the root.
  bool run_root() { return visit(w.identity_id); }

  /// Iterative pre-order DFS over the subtree rooted at basis element k,
  /// expanding with basis indices > k. Child kappa = one memoized join.
  void run_subtree(std::size_t k) {
    const PartitionId root = w.basis_ids[k];
    if (root == w.identity_id) return;  // join leaves kappa unchanged
    if (quota == 0) {
      res.exhausted = false;
      return;
    }
    const bool viable = visit(root);
    if (!viable && w.opt.prune) {
      ++res.pruned;
      return;
    }
    const std::size_t num_basis = w.basis_ids.size();
    auto& kap = w.frame_kappa;
    auto& nxt = w.frame_next;
    kap.clear();
    nxt.clear();
    kap.push_back(root);
    nxt.push_back(k + 1);
    while (!kap.empty()) {
      if (nxt.back() >= num_basis) {
        kap.pop_back();
        nxt.pop_back();
        continue;
      }
      const std::size_t j = nxt.back()++;
      const PartitionId child = w.store.join(kap.back(), w.basis_ids[j]);
      if (child == kap.back()) continue;
      if (res.nodes >= quota || w.budget.spend()) {
        res.exhausted = false;
        return;
      }
      const bool v = visit(child);
      if (!v && w.opt.prune) {
        ++res.pruned;
        continue;
      }
      kap.push_back(child);
      nxt.push_back(j + 1);
    }
  }
};

/// Deterministic node quota for the task at position `rank` of the current
/// round's active list: geometric in the rank (subtree k ranges over basis
/// indices > k, so its node count upper bound halves with each k), floored
/// so deep tasks always get a share. Quotas depend only on (budget, rank),
/// which makes budgeted searches reproducible. Tasks that hit their quota
/// are re-run in a later round with the leftover budget redistributed (see
/// run_search), so a generous global budget is never stranded on small
/// subtrees.
std::uint64_t task_quota(std::uint64_t budget, std::size_t rank) {
  const std::size_t shift = std::min<std::size_t>(rank + 1, 14);
  return std::max<std::uint64_t>(1, budget >> shift);
}

OstrResult run_search(const MealyMachine& fsm, const OstrOptions& opt,
                      PartitionStore& store) {
  const Partition eps = state_equivalence(fsm);
  const std::vector<Partition> basis = mm_basis(fsm);
  const std::size_t num_tasks = basis.size();

  OstrResult out;
  out.stats.num_states = fsm.num_states();
  out.stats.basis_size = num_tasks;

  const PartitionStore::Stats store_before = store.stats();

  // The trivial doubling solution (identity, identity) always exists and
  // seeds every incumbent.
  const Partition id = Partition::identity(fsm.num_states());
  const OstrSolution doubling = make_solution(id, id);
  out.best = doubling;

  // Nothing can beat (ceil_log2(|S/eps|), 0): s1*s2 >= |meet blocks| >=
  // |eps blocks| and balance >= 0. Once the bound reaches this floor,
  // remaining tasks cannot improve the cost and may be skipped.
  const std::uint64_t floor_packed = pack_cost(ceil_log2(eps.num_blocks()), 0.0);
  const auto reached_floor = [&](std::uint64_t b) {
    return opt.balance_tiebreak ? b <= floor_packed
                                : (b >> 32) <= (floor_packed >> 32);
  };

  // The budget's work allowance caps nodes exactly like max_nodes; fold
  // them into one effective cap so the deterministic quota machinery
  // governs both.
  const std::uint64_t max_nodes =
      std::min<std::uint64_t>(opt.max_nodes, opt.budget.work_allowance());

  const auto label_degraded = [&out](const Budget& b) {
    out.degradation = truncation_label(
        "ostr", out.stats.nodes_investigated, 0, !out.stats.exhausted,
        b.exhausted() ? b.reason() : "",
        "search tree truncated; best symmetric pair so far returned");
  };

  if (max_nodes == 0) {
    out.stats.exhausted = false;
    out.stats.cache = store.stats().delta(store_before);
    label_degraded(opt.budget);
    return out;
  }

  SearchCtx ctx(fsm, opt, store, eps, basis);
  ctx.bound = pack_cost(doubling.flipflops, doubling.balance);

  // Root node (kappa = identity).
  TaskRun root_run(ctx, 1, doubling);
  const bool root_viable = root_run.run_root();
  TaskResult root_res = std::move(root_run.res);

  std::vector<TaskResult> task_results(num_tasks);

  if (!root_viable && opt.prune) {
    ++root_res.pruned;  // Lemma 1 cuts the entire tree at the root
  } else if (num_tasks > 0) {
    // Budget rounds: every round hands the still-unfinished tasks
    // deterministic geometric quotas from the remaining budget; tasks that
    // hit their quota are restarted next round with a bigger share (their
    // already-visited prefix replays through the memo tables cheaply).
    std::uint64_t budget = max_nodes - 1;
    std::vector<std::size_t> active(num_tasks);
    for (std::size_t k = 0; k < num_tasks; ++k) active[k] = k;
    constexpr int kMaxRounds = 16;

    if (budget == 0) {
      // Root consumed the whole budget; any real subtree goes unvisited.
      for (const auto& b : basis)
        if (!b.is_identity()) out.stats.exhausted = false;
    }

    for (int round = 0; round < kMaxRounds && !active.empty() && budget > 0;
         ++round) {
      // A restart only makes sense when the new quota goes deeper than the
      // task already got; otherwise the task is parked (its previous,
      // deeper result stands and it stays marked un-exhausted).
      std::vector<std::size_t> run_tasks;
      std::vector<std::uint64_t> quotas;
      for (std::size_t rank = 0; rank < active.size(); ++rank) {
        const std::uint64_t q = task_quota(budget, rank);
        if (q > task_results[active[rank]].nodes) {
          run_tasks.push_back(active[rank]);
          quotas.push_back(q);
        }
      }
      if (run_tasks.empty()) break;
      active = run_tasks;

      // Run the tasks in rank order until the round is drained or the
      // bound reaches the floor (the optimum is already in hand).
      for (std::size_t rank = 0;
           rank < active.size() && !reached_floor(ctx.bound); ++rank) {
        TaskRun t(ctx, quotas[rank], doubling);
        t.run_subtree(active[rank]);
        task_results[active[rank]] = std::move(t.res);
      }

      // Deterministic accounting: every node visited this round (including
      // replayed prefixes of restarted tasks) draws down the budget.
      std::uint64_t spent = 0;
      std::vector<std::size_t> still_active;
      for (const std::size_t k : active) {
        spent += task_results[k].nodes;
        if (!task_results[k].exhausted) still_active.push_back(k);
      }
      budget = spent >= budget ? 0 : budget - spent;
      active = std::move(still_active);
      if (reached_floor(ctx.bound)) break;
      // Deadline/cancellation: restarting truncated tasks cannot make
      // progress once the wall-clock budget is gone.
      if (ctx.budget.exhausted()) break;
    }
  }

  // Deterministic merge in task order (root first): the earliest task with
  // a strictly better ((i),(ii)) cost wins, matching sequential DFS order.
  auto absorb = [&](TaskResult& r) {
    out.stats.nodes_investigated += r.nodes;
    out.stats.nodes_pruned += r.pruned;
    out.stats.solutions_seen += r.seen;
    out.stats.exhausted = out.stats.exhausted && r.exhausted;
    if (r.has_best && r.best.better_than(out.best, opt.balance_tiebreak))
      out.best = std::move(r.best);
  };
  absorb(root_res);
  for (auto& r : task_results) absorb(r);

  // A bound at the problem floor certifies optimality even when some task
  // was truncated: the answer is final, so the search counts as exhausted.
  if (reached_floor(ctx.bound)) out.stats.exhausted = true;

  out.stats.cache = store.stats().delta(store_before);
  label_degraded(ctx.budget);
  return out;
}

}  // namespace

OstrResult solve_ostr(const MealyMachine& fsm, const OstrOptions& options) {
  fsm.validate();
  PartitionStore store(&fsm);
  return run_search(fsm, options, store);
}

OstrResult solve_ostr(const MealyMachine& fsm, const OstrOptions& options,
                      PartitionStore& store) {
  fsm.validate();
  if (store.machine() != &fsm)
    throw std::invalid_argument("solve_ostr: store bound to a different machine");
  return run_search(fsm, options, store);
}

std::vector<Partition> all_partitions(std::size_t n) {
  if (n > 10) throw std::invalid_argument("all_partitions: n too large");
  std::vector<Partition> out;
  // Enumerate restricted growth strings: label[0] = 0,
  // label[k] <= max(label[0..k-1]) + 1.
  std::vector<std::size_t> label(n, 0);
  auto rec = [&](auto&& self, std::size_t k, std::size_t maxl) -> void {
    if (k == n) {
      out.push_back(Partition::from_labels(label));
      return;
    }
    for (std::size_t v = 0; v <= maxl + 1; ++v) {
      label[k] = v;
      self(self, k + 1, std::max(maxl, v));
    }
  };
  if (n == 0) return {Partition::from_labels({})};
  rec(rec, 1, 0);
  return out;
}

OstrSolution brute_force_ostr(const MealyMachine& fsm, bool balance_tiebreak) {
  fsm.validate();
  const std::size_t n = fsm.num_states();
  const Partition eps = state_equivalence(fsm);
  const auto parts = all_partitions(n);

  // Precompute m(pi) for each partition; (pi, tau) is a pair iff
  // m(pi) refines tau.
  std::vector<Partition> m_of(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) m_of[i] = m_operator(fsm, parts[i]);

  OstrSolution best = make_solution(Partition::identity(n), Partition::identity(n));
  for (std::size_t a = 0; a < parts.size(); ++a) {
    for (std::size_t b = 0; b < parts.size(); ++b) {
      if (!m_of[a].refines(parts[b])) continue;  // (pi, tau) pair
      if (!m_of[b].refines(parts[a])) continue;  // (tau, pi) pair
      if (!parts[a].meet(parts[b]).refines(eps)) continue;
      OstrSolution cand = make_solution(parts[a], parts[b]);
      if (cand.better_than(best, balance_tiebreak)) best = cand;
    }
  }
  return best;
}

}  // namespace stc
