#include "logic/espresso_lite.hpp"

#include <algorithm>

#include "util/bitvec.hpp"

namespace stc {
namespace {

/// EXPAND/IRREDUNDANT/REDUCE rounds at most; the fixpoint test usually
/// stops the loop sooner.
constexpr std::size_t kMaxRounds = 8;

/// Per-output OFF covers: complement of ON_b u DC_b via unate recursion,
/// each bit-sliced once into a CubeIndex for EXPAND's disjointness tests.
/// This is the only place the OFF set is ever computed, and it is a cover,
/// never a minterm list. The budget is polled between outputs (the unate
/// recursion for one output is the indivisible step); `*complete` reports
/// whether every output got its cover -- EXPAND needs all of them, so an
/// incomplete set means the caller must skip minimization entirely.
std::vector<CubeIndex> off_covers(const PlaSpec& spec, const Budget& budget,
                                  bool* complete) {
  *complete = true;
  std::vector<CubeIndex> off;
  off.reserve(spec.num_outputs);
  for (std::size_t b = 0; b < spec.num_outputs; ++b) {
    if (budget.exhausted()) {
      *complete = false;
      break;
    }
    Cover care_b = spec.on.output_cover(b);
    const Cover dc_b = spec.dc.output_cover(b);
    for (const Cube& q : dc_b.cubes()) care_b.add(q);
    off.emplace_back(complement_cover(care_b).cubes());
  }
  return off;
}

/// EXPAND, one multi-output cube at a time: drop input literals (LSB
/// first) while the enlarged cube stays disjoint from the OFF cover of
/// every output it drives, then raise the output part onto any further
/// output whose OFF cover the cube avoids (espresso's output-part
/// expansion -- this is what buys product-term sharing beyond identical ON
/// rows).
///
/// The literal drops are espresso's blocking-matrix test, bit-sliced. The
/// trial for the cube's k-th literal keeps the literals kept so far and
/// every original literal after k, so for each driven output the OFF cubes
/// it meets are P & S[k+1]: P is the AND of the kept literals' rows of that
/// output's OFF index, S[k+1] the AND of the rows of the original literals
/// from k+1 on. The suffix rows are built once per cube and P takes one
/// AND per kept literal, so a cube costs O(lits x words) per driven output
/// instead of one fresh O(lits x words) intersection per trial. Every
/// trial tests the same cube as before, so every choice is unchanged. A
/// variable outside an index's support has no row there and counts as all
/// ones. The scratch rows are sized once for the whole minimization.
class Expander {
 public:
  Expander(const std::vector<CubeIndex>& off, std::size_t num_vars)
      : off_(off), base_(off.size()) {
    std::size_t total = 0;
    for (std::size_t b = 0; b < off.size(); ++b) {
      base_[b] = total;
      total += (num_vars + 1) * off[b].num_words();  // P, then S[1..lits]
    }
    scratch_.resize(total);
  }

  void expand(MCube& m) {
    std::size_t vars[64];
    std::size_t n = 0;
    for (std::uint64_t rest = m.in.care; rest; rest &= rest - 1)
      vars[n++] = static_cast<std::size_t>(count_trailing_zeros64(rest));
    const std::uint64_t value = m.in.value;
    const auto row = [&](const CubeIndex& idx, std::size_t k) {
      return idx.literal_row(vars[k], (value >> vars[k]) & 1);
    };

    // Per driven output: P = every OFF cube, S[n] = every OFF cube,
    // S[k] = S[k+1] & row(k) down to S[1].
    for (std::uint64_t rest = m.out; rest && n > 0; rest &= rest - 1) {
      const std::size_t b = static_cast<std::size_t>(count_trailing_zeros64(rest));
      const CubeIndex& idx = off_[b];
      const std::size_t words = idx.num_words();
      std::uint64_t* p = scratch_.data() + base_[b];  // S[k] at p + k * words
      std::copy(idx.all_row(), idx.all_row() + words, p);
      std::copy(idx.all_row(), idx.all_row() + words, p + n * words);
      for (std::size_t k = n - 1; k >= 1; --k) {
        const std::uint64_t* src = p + (k + 1) * words;
        std::uint64_t* dst = p + k * words;
        if (const std::uint64_t* r = row(idx, k)) {
          for (std::size_t w = 0; w < words; ++w) dst[w] = src[w] & r[w];
        } else {
          std::copy(src, src + words, dst);
        }
      }
    }

    for (std::size_t k = 0; k < n; ++k) {
      bool valid = true;
      for (std::uint64_t rest = m.out; valid && rest; rest &= rest - 1) {
        const std::size_t b = static_cast<std::size_t>(count_trailing_zeros64(rest));
        const std::size_t words = off_[b].num_words();
        const std::uint64_t* p = scratch_.data() + base_[b];
        const std::uint64_t* suffix = p + (k + 1) * words;  // S[k + 1]
        for (std::size_t w = 0; w < words; ++w) {
          if (p[w] & suffix[w]) {
            valid = false;
            break;
          }
        }
      }
      if (valid) {
        m.in = m.in.without(vars[k]);
        continue;
      }
      for (std::uint64_t rest = m.out; rest; rest &= rest - 1) {
        const std::size_t b = static_cast<std::size_t>(count_trailing_zeros64(rest));
        const CubeIndex& idx = off_[b];
        if (const std::uint64_t* r = row(idx, k)) {
          std::uint64_t* p = scratch_.data() + base_[b];
          for (std::size_t w = 0; w < idx.num_words(); ++w) p[w] &= r[w];
        }
      }
    }

    for (std::size_t b = 0; b < off_.size(); ++b) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      if (m.out & bit) continue;
      if (!off_[b].any_intersecting(m.in)) m.out |= bit;
    }
  }

 private:
  const std::vector<CubeIndex>& off_;
  std::vector<std::size_t> base_;       // output b's rows start at scratch_[base_[b]]
  std::vector<std::uint64_t> scratch_;  // per output: P, then S[1..lits]
};

/// Shared scaffolding of IRREDUNDANT / REDUCE: the cofactor, with respect
/// to cube `idx`, of everything else that drives output b (other active
/// cubes plus b's don't-care cubes). select(idx) ANDs idx's literal rows of
/// the cube index once; build(b) then visits only the survivors that also
/// drive b, in ascending index order, and builds straight into a scratch
/// vector. The index is taken at construction: IRREDUNDANT only clears
/// output bits and REDUCE only shrinks cubes in place, so its rows are a
/// superset of the live candidates, and each survivor is re-checked
/// against the live cube.
class AbsorbingCofactor {
 public:
  AbsorbingCofactor(const CubeList& f, const PlaSpec& spec)
      : f_(f), index_(f), near_(index_.num_words()), dc_per_output_(spec.num_outputs) {
    for (const MCube& q : spec.dc.cubes()) {
      std::uint64_t rest = q.out;
      while (rest) {
        dc_per_output_[static_cast<std::size_t>(count_trailing_zeros64(rest))]
            .push_back(q.in);
        rest &= rest - 1;
      }
    }
  }

  /// Make cube `idx` the one the next build() calls cofactor against.
  void select(std::size_t idx) {
    idx_ = idx;
    index_.intersecting(f_.cubes()[idx].in, near_.data());
  }

  /// Fill `out` with the cofactored absorbing list for (selected cube, b).
  /// Output bits may have been cleared since construction; the live mask
  /// decides.
  void build(std::size_t b, std::vector<Cube>* out) const {
    out->clear();
    const Cube& c = f_.cubes()[idx_].in;
    const std::uint64_t bit = std::uint64_t{1} << b;
    const std::uint64_t* drives_b = index_.output_row(b);
    for (std::size_t w = 0; w < near_.size(); ++w) {
      for (std::uint64_t rest = near_[w] & drives_b[w]; rest; rest &= rest - 1) {
        const std::size_t j = w * 64 + static_cast<std::size_t>(count_trailing_zeros64(rest));
        if (j == idx_ || !(f_.cubes()[j].out & bit)) continue;
        const Cube& q = f_.cubes()[j].in;
        if (!q.intersects(c)) continue;
        out->push_back(Cube{q.care & ~c.care, q.value & ~c.care});
      }
    }
    for (const Cube& q : dc_per_output_[b]) {
      if (!q.intersects(c)) continue;
      out->push_back(Cube{q.care & ~c.care, q.value & ~c.care});
    }
  }

 private:
  const CubeList& f_;
  const CubeIndex index_;
  std::vector<std::uint64_t> near_;  // cubes intersecting the selected one
  std::size_t idx_ = 0;
  std::vector<std::vector<Cube>> dc_per_output_;
};

/// IRREDUNDANT: clear output bits whose cover absorbs the cube without it
/// (a unate-recursive tautology check on the cofactor), dropping cubes
/// whose output part empties. Most-specific cubes are processed first so
/// small redundant cubes vanish in favor of large ones, and the updates
/// are sequential -- two mutually-redundant cubes cannot both disappear.
void irredundant(CubeList& f, const PlaSpec& spec) {
  std::vector<std::size_t> order(f.num_cubes());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return f.cubes()[a].in.num_literals() > f.cubes()[b].in.num_literals();
  });

  AbsorbingCofactor absorbing(f, spec);
  std::vector<Cube> scratch;
  for (std::size_t idx : order) {
    MCube& m = f.cubes()[idx];
    absorbing.select(idx);
    const std::size_t num_free = f.num_vars() - m.in.num_literals();
    std::uint64_t rest = m.out;
    while (rest) {
      const std::size_t b = static_cast<std::size_t>(count_trailing_zeros64(rest));
      const std::uint64_t bit = rest & (~rest + 1);
      rest &= rest - 1;
      absorbing.build(b, &scratch);
      if (is_tautology_cubes(scratch, num_free)) m.out &= ~bit;
    }
  }
  auto& cubes = f.cubes();
  cubes.erase(std::remove_if(cubes.begin(), cubes.end(),
                             [](const MCube& m) { return m.out == 0; }),
              cubes.end());
}

/// REDUCE: shrink each cube to the supercube of the parts it covers alone
/// (per output, the complement of the cofactored absorbing cover inside
/// the cube -- espresso's sharp), enabling different expansions next
/// round. Sequential in-place processing keeps the cover valid -- the
/// simultaneous variant can drop a minterm from two mutually-redundant
/// cubes at once.
void reduce(CubeList& f, const PlaSpec& spec) {
  AbsorbingCofactor absorbing(f, spec);
  std::vector<Cube> scratch;
  for (std::size_t i = 0; i < f.num_cubes(); ++i) {
    MCube& m = f.cubes()[i];
    absorbing.select(i);
    // Supercube accumulator over every needed part of every driven output.
    std::uint64_t care_all = ~std::uint64_t{0}, ones = 0, zeros = 0;
    bool any = false;
    std::uint64_t rest = m.out;
    while (rest) {
      const std::size_t b = static_cast<std::size_t>(count_trailing_zeros64(rest));
      rest &= rest - 1;
      absorbing.build(b, &scratch);
      for (const Cube& q : complement_cubes(scratch)) {
        // Map back into the cube's subspace before accumulating.
        const Cube part{q.care | m.in.care, q.value | m.in.value};
        care_all &= part.care;
        ones |= part.value;
        zeros |= part.care & ~part.value;
        any = true;
      }
    }
    // Fully redundant cubes are left alone for irredundant() to drop.
    if (!any) continue;
    const std::uint64_t keep = care_all & ~(ones & zeros);
    m.in = Cube{keep, ones & keep};
  }
}

}  // namespace

CubeList minimize_espresso_mv(const PlaSpec& spec, const EspressoOptions& options,
                              Degradation* degradation) {
  Budget budget = options.budget;
  std::size_t rounds_done = 0;
  bool truncated = false;
  const auto label = [&](const char* what) {
    if (!degradation) return;
    *degradation = truncation_label("espresso", rounds_done,
                                    kMaxRounds, truncated,
                                    budget.reason(), what);
  };

  CubeList f = spec.on;
  f.merge_identical_inputs();
  if (f.empty()) {
    label("");
    return CubeList(spec.num_vars, spec.num_outputs);
  }

  // Zero budget: the merged ON cover is already a valid implementation.
  if (budget.exhausted() || budget.work_allowance() == 0) {
    truncated = true;
    label("returned the merged ON cover; no minimization ran");
    return f;
  }

  bool off_complete = true;
  const std::vector<CubeIndex> off = off_covers(spec, budget, &off_complete);
  if (!off_complete) {
    truncated = true;
    label("OFF-cover complement cut short; returned the merged ON cover");
    return f;
  }

  Expander expander(off, spec.num_vars);
  CubeList best = f;
  std::size_t best_cost = SIZE_MAX, last_cost = SIZE_MAX;
  for (std::size_t iter = 0; iter < kMaxRounds; ++iter) {
    // One round = one work unit, charged before the round runs.
    if (budget.spend(1)) {
      truncated = true;
      break;
    }
    // EXPAND, with a deadline/cancel poll per cube. Stopping
    // mid-loop is safe: each completed single-cube expansion preserves
    // validity on its own, and the unexpanded tail is still the old cover.
    bool stop = false;
    for (MCube& m : f.cubes()) {
      if (budget.spend(0)) {
        truncated = stop = true;
        break;
      }
      expander.expand(m);
    }
    f.merge_identical_inputs();
    f.remove_dominated();
    // IRREDUNDANT runs only at round boundaries (mid-flight its partial
    // output-bit clearing would still be valid, but it is cheap relative
    // to EXPAND, so the round either finishes it or skips it whole).
    if (!stop) irredundant(f, spec);
    const std::size_t cost =
        f.num_cubes() * 64 + f.num_input_literals() + f.num_output_literals();
    if (cost < best_cost) {
      best = f;
      best_cost = cost;
    }
    ++rounds_done;
    if (stop) break;
    // Fixpoint on cost, with a relative floor: iterating a 4000-cube cover
    // seven more times to shave 0.1% is not worth seconds of wall clock.
    if (cost >= last_cost ||
        (last_cost != SIZE_MAX && (last_cost - cost) * 200 < last_cost))
      break;
    last_cost = cost;
    // REDUCE (perturb for the next round).
    if (iter + 1 < kMaxRounds) reduce(f, spec);
  }
  label("returned the best valid cover reached before the budget expired");
  return best;
}

Cover minimize_espresso(const TruthTable& tt, const EspressoOptions& options,
                        Degradation* degradation) {
  if (tt.on_count() == 0) {
    if (degradation) *degradation = Degradation{};
    return Cover(tt.num_vars());
  }
  const PlaSpec spec = PlaSpec::from_tables({tt});
  return minimize_espresso_mv(spec, options, degradation).output_cover(0);
}

}  // namespace stc
