#include "logic/cubelist.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bitvec.hpp"

namespace stc {
namespace {

/// Cofactor of a cube list w.r.t. `c`: drop disjoint cubes, strip the
/// literals c fixes. Resulting cubes only have literals on c's free vars.
std::vector<Cube> cofactor_cubes(const std::vector<Cube>& cubes, const Cube& c) {
  std::vector<Cube> out;
  out.reserve(cubes.size());
  for (const Cube& q : cubes) {
    if (!q.intersects(c)) continue;
    out.push_back(Cube{q.care & ~c.care, q.value & ~c.care});
  }
  return out;
}

/// Most frequently used variable among `candidates`, ties to the lowest
/// index. Returns 64 when no cube uses any candidate variable.
std::size_t most_used_var(const std::vector<Cube>& cubes, std::uint64_t candidates) {
  std::size_t best = 64, best_count = 0;
  std::uint64_t rest = candidates;
  while (rest) {
    const std::size_t v = static_cast<std::size_t>(count_trailing_zeros64(rest));
    rest &= rest - 1;
    const std::uint64_t bit = std::uint64_t{1} << v;
    std::size_t count = 0;
    for (const Cube& q : cubes)
      if (q.care & bit) ++count;
    if (count > best_count) {
      best = v;
      best_count = count;
    }
  }
  return best;
}

/// Splitting variable for the unate recursion: the most frequently used
/// binate variable, or the most used variable overall when the cover is
/// unate (only reached by the complement, which has no unate shortcut).
std::size_t splitting_var(const std::vector<Cube>& cubes) {
  std::uint64_t pos = 0, neg = 0;
  for (const Cube& q : cubes) {
    pos |= q.value;
    neg |= q.care & ~q.value;
  }
  const std::uint64_t binate = pos & neg;
  const std::size_t v = most_used_var(cubes, binate);
  if (v < 64) return v;
  return most_used_var(cubes, pos | neg);
}

bool taut_rec(const std::vector<Cube>& cubes, std::size_t num_free) {
  bool any_top = false;
  for (const Cube& q : cubes) any_top = any_top || q.care == 0;
  if (any_top) return true;
  if (cubes.empty()) return false;

  // Vacuous bound: if the cubes cannot even count up to 2^num_free
  // minterms with multiplicity, they cannot cover the space.
  if (num_free < 63) {
    const std::uint64_t cap = std::uint64_t{1} << num_free;
    std::uint64_t sum = 0;
    for (const Cube& q : cubes) {
      sum += std::uint64_t{1} << (num_free - q.num_literals());
      if (sum >= cap) break;
    }
    if (sum < cap) return false;
  }

  // Unate covers without the top cube are never tautologies.
  std::uint64_t pos = 0, neg = 0;
  for (const Cube& q : cubes) {
    pos |= q.value;
    neg |= q.care & ~q.value;
  }
  const std::uint64_t binate = pos & neg;
  if (binate == 0) return false;

  const std::size_t v = most_used_var(cubes, binate);
  const Cube lo{std::uint64_t{1} << v, 0};
  const Cube hi{std::uint64_t{1} << v, std::uint64_t{1} << v};
  return taut_rec(cofactor_cubes(cubes, lo), num_free - 1) &&
         taut_rec(cofactor_cubes(cubes, hi), num_free - 1);
}

/// Complement of `cubes`, appended to `out`. The result's support stays
/// inside the input's support, so it is the complement in any enclosing
/// variable space.
void compl_rec(const std::vector<Cube>& cubes, std::vector<Cube>* out) {
  for (const Cube& q : cubes)
    if (q.care == 0) return;  // cover is the whole space: empty complement
  if (cubes.empty()) {
    out->push_back(Cube::top());
    return;
  }
  if (cubes.size() == 1) {
    // De Morgan on a single product term: one cube per negated literal.
    const Cube& q = cubes[0];
    std::uint64_t rest = q.care;
    while (rest) {
      const std::uint64_t bit = rest & (~rest + 1);
      rest &= rest - 1;
      out->push_back(Cube{bit, ~q.value & bit});
    }
    return;
  }

  const std::size_t v = splitting_var(cubes);
  const std::uint64_t bit = std::uint64_t{1} << v;
  const Cube lo{bit, 0};
  const Cube hi{bit, bit};

  std::vector<Cube> r0, r1;
  compl_rec(cofactor_cubes(cubes, lo), &r0);
  compl_rec(cofactor_cubes(cubes, hi), &r1);

  // Merge: a cube present in both branch complements does not depend on v
  // and is emitted once without the literal.
  std::sort(r0.begin(), r0.end());
  std::vector<bool> matched(r0.size(), false);
  for (const Cube& q : r1) {
    const auto it = std::lower_bound(r0.begin(), r0.end(), q);
    if (it != r0.end() && *it == q) {
      const std::size_t idx = static_cast<std::size_t>(it - r0.begin());
      if (!matched[idx]) {
        matched[idx] = true;
        out->push_back(q);
        continue;
      }
    }
    out->push_back(Cube{q.care | bit, q.value | bit});
  }
  for (std::size_t i = 0; i < r0.size(); ++i)
    if (!matched[i]) out->push_back(Cube{r0[i].care | bit, r0[i].value});
}

}  // namespace

Cover cofactor(const Cover& cover, const Cube& c) {
  Cover out(cover.num_vars());
  for (Cube& q : cofactor_cubes(cover.cubes(), c)) out.add(q);
  return out;
}

bool is_tautology(const Cover& cover) {
  return taut_rec(cover.cubes(), cover.num_vars());
}

bool is_tautology_cubes(const std::vector<Cube>& cubes, std::size_t num_free) {
  return taut_rec(cubes, num_free);
}

std::vector<Cube> complement_cubes(const std::vector<Cube>& cubes) {
  std::vector<Cube> out;
  compl_rec(cubes, &out);
  return out;
}

bool cover_contains_cube(const Cover& cover, const Cube& c) {
  const std::size_t free = cover.num_vars() - c.num_literals();
  return taut_rec(cofactor_cubes(cover.cubes(), c), free);
}

bool cover_contains_cover(const Cover& outer, const Cover& inner) {
  for (const Cube& q : inner.cubes())
    if (!cover_contains_cube(outer, q)) return false;
  return true;
}

Cover complement_cover(const Cover& cover) {
  std::vector<Cube> result;
  compl_rec(cover.cubes(), &result);
  Cover out(cover.num_vars());
  for (const Cube& q : result) out.add(q);
  out.remove_contained();
  return out;
}

std::vector<Cube> sharp(const Cube& c, const Cover& cover) {
  std::vector<Cube> comp;
  compl_rec(cofactor_cubes(cover.cubes(), c), &comp);
  for (Cube& q : comp) q = Cube{q.care | c.care, q.value | c.value};
  return comp;
}

Cube supercube(const std::vector<Cube>& cubes) {
  std::uint64_t care_all = ~std::uint64_t{0}, ones = 0, zeros = 0;
  for (const Cube& q : cubes) {
    care_all &= q.care;
    ones |= q.value;
    zeros |= q.care & ~q.value;
  }
  const std::uint64_t keep = care_all & ~(ones & zeros);
  return Cube{keep, ones & keep};
}

// --- containment -------------------------------------------------------------

namespace {

/// Keep the cubes no other cube dominates, in their order: cube i goes
/// when some other cube dominates it strictly (covers its input part and
/// drives a superset of its outputs), or equals it and comes first.
/// `index` is over `cubes`, and `as_mcube` views a cube as an MCube. The
/// index is fresh, so dominating() yields exactly the cubes that dominate
/// or equal cube i, and only the equal ones need a look.
template <typename T, typename AsMCube>
void keep_undominated(std::vector<T>& cubes, const CubeIndex& index, AsMCube as_mcube) {
  std::vector<std::uint64_t> candidates(index.num_words());
  std::vector<T> kept;
  kept.reserve(cubes.size());
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    const MCube mi = as_mcube(cubes[i]);
    index.dominating(mi, candidates.data());
    candidates[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    bool dominated = false;
    for (std::size_t w = 0; w < candidates.size() && !dominated; ++w) {
      for (std::uint64_t bits = candidates[w]; bits && !dominated; bits &= bits - 1) {
        const std::size_t j = w * 64 + static_cast<std::size_t>(count_trailing_zeros64(bits));
        dominated = j < i || !(as_mcube(cubes[j]) == mi);
      }
    }
    if (!dominated) kept.push_back(cubes[i]);
  }
  cubes = std::move(kept);
}

}  // namespace

void Cover::remove_contained() {
  keep_undominated(cubes_, CubeIndex(cubes_), [](const Cube& c) { return MCube{c, 0}; });
}

// --- CubeList ----------------------------------------------------------------

CubeList::CubeList(std::size_t num_vars, std::size_t num_outputs)
    : num_vars_(num_vars), num_outputs_(num_outputs) {
  if (num_outputs > 64)
    throw std::invalid_argument("CubeList: more than 64 outputs per block");
}

void CubeList::add(const Cube& in, std::uint64_t out_mask) {
  cubes_.push_back(MCube{in, out_mask});
}

Cover CubeList::output_cover(std::size_t b) const {
  Cover out(num_vars_);
  const std::uint64_t bit = std::uint64_t{1} << b;
  for (const MCube& m : cubes_)
    if (m.out & bit) out.add(m.in);
  return out;
}

std::size_t CubeList::num_input_literals() const {
  std::size_t n = 0;
  for (const MCube& m : cubes_) n += m.in.num_literals();
  return n;
}

std::size_t CubeList::num_output_literals() const {
  std::size_t n = 0;
  for (const MCube& m : cubes_) n += popcount64(m.out);
  return n;
}

bool CubeList::evaluate(Minterm m, std::size_t b) const {
  const std::uint64_t bit = std::uint64_t{1} << b;
  for (const MCube& q : cubes_)
    if ((q.out & bit) && q.in.contains_minterm(m)) return true;
  return false;
}

void CubeList::merge_identical_inputs() {
  std::sort(cubes_.begin(), cubes_.end());
  std::vector<MCube> merged;
  merged.reserve(cubes_.size());
  for (const MCube& m : cubes_) {
    if (!merged.empty() && merged.back().in == m.in) {
      merged.back().out |= m.out;
    } else {
      merged.push_back(m);
    }
  }
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const MCube& m) { return m.out == 0; }),
               merged.end());
  cubes_ = std::move(merged);
}

void CubeList::remove_dominated() {
  keep_undominated(cubes_, CubeIndex(*this), [](const MCube& m) { return m; });
}

bool CubeList::implements(const std::vector<TruthTable>& tables) const {
  if (tables.size() != num_outputs_) return false;
  for (std::size_t b = 0; b < tables.size(); ++b) {
    if (tables[b].num_vars() != num_vars_) return false;
    const Cover c = output_cover(b);
    if (!c.implements(tables[b])) return false;
  }
  return true;
}

// --- CubeIndex ---------------------------------------------------------------

namespace {

/// Number of bit positions up to and including the highest set bit.
std::size_t bit_width(std::uint64_t x) {
  std::size_t n = 0;
  for (; x; x >>= 1) ++n;
  return n;
}

std::uint64_t support_of(const std::vector<Cube>& cubes) {
  std::uint64_t s = 0;
  for (const Cube& c : cubes) s |= c.care;
  return s;
}

std::uint64_t support_of(const CubeList& list) {
  std::uint64_t s = 0;
  for (const MCube& m : list.cubes()) s |= m.in.care;
  return s;
}

/// Output rows an index over `list` needs: up to the highest output bit
/// some cube drives.
std::size_t output_rows(const CubeList& list) {
  std::uint64_t o = 0;
  for (const MCube& m : list.cubes()) o |= m.out;
  return bit_width(o);
}

}  // namespace

CubeIndex::CubeIndex(std::size_t num_cubes, std::uint64_t support,
                     std::size_t num_outputs)
    : words_((num_cubes + 63) / 64), support_(support), all_(words_, ~std::uint64_t{0}) {
  if (num_cubes % 64 != 0) all_.back() = (std::uint64_t{1} << (num_cubes % 64)) - 1;
  // Every cube is compatible with every literal until its own literal on
  // that variable rules out the opposite value (set_cube).
  const std::size_t num_rows = 2 * bit_width(support);
  lit_.reserve(num_rows * words_);
  for (std::size_t r = 0; r < num_rows; ++r) lit_.insert(lit_.end(), all_.begin(), all_.end());
  out_.assign(num_outputs * words_, 0);
}

void CubeIndex::set_cube(std::size_t j, const Cube& c) {
  const std::uint64_t bit = std::uint64_t{1} << (j % 64);
  for (std::uint64_t rest = c.care; rest; rest &= rest - 1) {
    const std::size_t v = static_cast<std::size_t>(count_trailing_zeros64(rest));
    const std::uint64_t opposite = ((c.value >> v) & 1) ^ 1;
    lit_[(2 * v + opposite) * words_ + j / 64] &= ~bit;
  }
}

void CubeIndex::set_free_rows() {
  // A cube compatible with both v = 0 and v = 1 has no literal on v.
  const std::size_t num_vars = bit_width(support_);
  free_.resize(num_vars * words_);
  for (std::size_t v = 0; v < num_vars; ++v)
    for (std::size_t w = 0; w < words_; ++w)
      free_[v * words_ + w] = lit_[2 * v * words_ + w] & lit_[(2 * v + 1) * words_ + w];
}

CubeIndex::CubeIndex(const std::vector<Cube>& cubes)
    : CubeIndex(cubes.size(), support_of(cubes), 0) {
  for (std::size_t j = 0; j < cubes.size(); ++j) set_cube(j, cubes[j]);
  set_free_rows();
}

CubeIndex::CubeIndex(const CubeList& list)
    : CubeIndex(list.num_cubes(), support_of(list), output_rows(list)) {
  for (std::size_t j = 0; j < list.num_cubes(); ++j) {
    const MCube& m = list.cubes()[j];
    set_cube(j, m.in);
    for (std::uint64_t rest = m.out; rest; rest &= rest - 1)
      out_[static_cast<std::size_t>(count_trailing_zeros64(rest)) * words_ + j / 64] |=
          std::uint64_t{1} << (j % 64);
  }
  set_free_rows();
}

void CubeIndex::and_rows(const std::uint64_t* const* rows, std::size_t n,
                         std::uint64_t* dst) const {
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t acc = all_[w];
    for (std::size_t r = 0; r < n && acc; ++r) acc &= rows[r][w];
    dst[w] = acc;
  }
}

std::size_t CubeIndex::literal_rows(const Cube& c, const std::uint64_t** rows) const {
  std::size_t n = 0;
  for (std::uint64_t rest = c.care & support_; rest; rest &= rest - 1) {
    const std::size_t v = static_cast<std::size_t>(count_trailing_zeros64(rest));
    rows[n++] = literal_row(v, (c.value >> v) & 1);
  }
  return n;
}

void CubeIndex::intersecting(const Cube& c, std::uint64_t* dst) const {
  const std::uint64_t* rows[64];
  and_rows(rows, literal_rows(c, rows), dst);
}

bool CubeIndex::any_intersecting(const Cube& c) const {
  const std::uint64_t* rows[64];
  const std::size_t n = literal_rows(c, rows);
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t acc = all_[w];
    for (std::size_t r = 0; r < n && acc; ++r) acc &= rows[r][w];
    if (acc) return true;
  }
  return false;
}

void CubeIndex::dominating(const MCube& m, std::uint64_t* dst) const {
  // A covering cube has no literal where m.in has none (one precomputed
  // row per variable), and agrees with m.in wherever it has one.
  // Variables outside the support constrain nothing: no indexed cube has a
  // literal there. The no-literal rows go first: they are the sparse ones,
  // so a word's AND reaches 0 (and stops) sooner.
  const std::uint64_t* rows[64 + 64];
  std::size_t n = 0;
  for (std::uint64_t rest = support_ & ~m.in.care; rest; rest &= rest - 1)
    rows[n++] = &free_[static_cast<std::size_t>(count_trailing_zeros64(rest)) * words_];
  n += literal_rows(m.in, rows + n);
  for (std::uint64_t rest = m.out; rest; rest &= rest - 1)
    rows[n++] = output_row(static_cast<std::size_t>(count_trailing_zeros64(rest)));
  and_rows(rows, n, dst);
}

// --- PlaSpec -----------------------------------------------------------------

PlaSpec PlaSpec::from_tables(const std::vector<TruthTable>& tables) {
  PlaSpec spec;
  if (tables.empty()) return spec;
  spec.num_vars = tables[0].num_vars();
  spec.num_outputs = tables.size();
  spec.on = CubeList(spec.num_vars, spec.num_outputs);
  spec.dc = CubeList(spec.num_vars, spec.num_outputs);
  for (const TruthTable& t : tables)
    if (t.num_vars() != spec.num_vars)
      throw std::invalid_argument("PlaSpec: mixed table arities");

  const std::size_t span = std::size_t{1} << spec.num_vars;
  for (Minterm m = 0; m < span; ++m) {
    std::uint64_t on_mask = 0, dc_mask = 0;
    for (std::size_t b = 0; b < tables.size(); ++b) {
      if (tables[b].is_on(m)) on_mask |= std::uint64_t{1} << b;
      if (tables[b].is_dc(m)) dc_mask |= std::uint64_t{1} << b;
    }
    if (on_mask) spec.on.add(Cube::minterm(m, spec.num_vars), on_mask);
    if (dc_mask) spec.dc.add(Cube::minterm(m, spec.num_vars), dc_mask);
  }
  return spec;
}

}  // namespace stc
