#include "logic/factor.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_set>

namespace stc {
namespace {

// --- sorted-set helpers on FCubes --------------------------------------------

bool cube_includes(const FCube& big, const FCube& small) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

FCube cube_difference(const FCube& a, const FCube& b) {
  FCube out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

FCube cube_union(const FCube& a, const FCube& b) {
  FCube out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

FCube cube_intersection(const FCube& a, const FCube& b) {
  FCube out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Intersection of two sorted duplicate-free cube lists.
std::vector<FCube> cubeset_intersection(const std::vector<FCube>& a,
                                        const std::vector<FCube>& b) {
  std::vector<FCube> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// FNV-1a over a cube list's literals, each cube closed by a separator
/// that no literal id takes.
struct CubeSetHash {
  std::size_t operator()(const std::vector<FCube>& cubes) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const FCube& c : cubes) {
      for (LitId l : c) h = (h ^ l) * 0x100000001b3ULL;
      h = (h ^ 0xFFFFFFFFu) * 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

// --- SopExpr -----------------------------------------------------------------

std::size_t SopExpr::num_literals() const {
  std::size_t n = 0;
  for (const FCube& c : cubes) n += c.size();
  return n;
}

void SopExpr::normalize() {
  std::sort(cubes.begin(), cubes.end());
  cubes.erase(std::unique(cubes.begin(), cubes.end()), cubes.end());
}

FCube fcube_from_cube(const Cube& c, std::size_t num_vars) {
  FCube out;
  out.reserve(c.num_literals());
  for (std::size_t v = 0; v < num_vars; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    if (!(c.care & bit)) continue;
    out.push_back((c.value & bit) ? pos_lit(v) : neg_lit(v));
  }
  return out;  // ascending by construction (one literal per variable)
}

std::vector<SopExpr> sops_from_cubelist(const CubeList& pla) {
  std::vector<SopExpr> out(pla.num_outputs());
  for (const MCube& m : pla.cubes()) {
    const FCube fc = fcube_from_cube(m.in, pla.num_vars());
    std::uint64_t rest = m.out;
    while (rest) {
      const std::size_t b = static_cast<std::size_t>(__builtin_ctzll(rest));
      rest &= rest - 1;
      out[b].cubes.push_back(fc);
    }
  }
  for (SopExpr& s : out) s.normalize();
  return out;
}

CubeList cubelist_from_covers(const std::vector<Cover>& covers) {
  if (covers.empty()) return CubeList();
  const std::size_t num_vars = covers[0].num_vars();
  for (const Cover& c : covers)
    if (c.num_vars() != num_vars)
      throw std::invalid_argument("cubelist_from_covers: mixed cover arities");
  CubeList pla(num_vars, covers.size());
  for (std::size_t b = 0; b < covers.size(); ++b)
    for (const Cube& c : covers[b].cubes()) pla.add(c, std::uint64_t{1} << b);
  pla.merge_identical_inputs();
  return pla;
}

// --- algebraic division ------------------------------------------------------

std::vector<FCube> quotient_by_cube(const SopExpr& f, const FCube& d) {
  std::vector<FCube> out;
  for (const FCube& c : f.cubes)
    if (cube_includes(c, d)) out.push_back(cube_difference(c, d));
  std::sort(out.begin(), out.end());
  return out;
}

FCube common_cube(const std::vector<FCube>& cubes) {
  if (cubes.empty()) return {};
  FCube common = cubes[0];
  for (std::size_t i = 1; i < cubes.size() && !common.empty(); ++i)
    common = cube_intersection(common, cubes[i]);
  return common;
}

DivisionResult divide(const SopExpr& f, const SopExpr& d) {
  DivisionResult res;
  if (d.cubes.empty()) {
    res.remainder = f;
    return res;
  }
  // Quotient: intersection over divisor cubes of { c \ dc : dc subset c }.
  // Every cube of the intersection is support-disjoint from *every* divisor
  // cube (it equals c' \ dc for each dc), so quotient * divisor is a proper
  // algebraic product and each of its cubes is a cube of f.
  bool first = true;
  std::vector<FCube> q;
  for (const FCube& dc : d.cubes) {
    std::vector<FCube> cand = quotient_by_cube(f, dc);
    if (first) {
      q = std::move(cand);
      first = false;
    } else {
      q = cubeset_intersection(q, cand);
    }
    if (q.empty()) break;
  }
  res.quotient.cubes = std::move(q);

  // Remainder: the cubes of f not covered by quotient * divisor. Scanned
  // by membership (not set_difference) so f's cube *list* need not be
  // sorted -- the extractor rewrites cubes in place, which preserves each
  // cube's internal order but not the list order.
  std::vector<FCube> product;
  product.reserve(res.quotient.cubes.size() * d.cubes.size());
  for (const FCube& qc : res.quotient.cubes)
    for (const FCube& dc : d.cubes) product.push_back(cube_union(qc, dc));
  std::sort(product.begin(), product.end());
  product.erase(std::unique(product.begin(), product.end()), product.end());
  for (const FCube& c : f.cubes)
    if (!std::binary_search(product.begin(), product.end(), c))
      res.remainder.cubes.push_back(c);
  return res;
}

// --- kernels -----------------------------------------------------------------

namespace {

/// enumerate_kernels(f, pair_cap) without the kernels of more than
/// `max_cubes` cubes. A kernel has one cube per occurrence of its
/// co-kernel candidate in f, so a larger one is skipped before any of its
/// cubes is built; the kernels kept come in the same order.
std::vector<Kernel> kernels_up_to(const SopExpr& f, std::size_t pair_cap,
                                  std::size_t max_cubes) {
  std::vector<Kernel> out;
  if (f.cubes.size() < 2) return out;

  // Occurrences of every literal: (literal, index of a cube using it),
  // grouped by literal with the cube indices ascending.
  std::vector<std::pair<LitId, std::uint32_t>> occ;
  for (std::uint32_t i = 0; i < f.cubes.size(); ++i)
    for (LitId l : f.cubes[i]) occ.emplace_back(l, i);
  std::sort(occ.begin(), occ.end());
  const auto occurrences = [&](LitId l) {
    return std::equal_range(occ.begin(), occ.end(), std::make_pair(l, std::uint32_t{0}),
                            [](const auto& a, const auto& b) { return a.first < b.first; });
  };

  // Co-kernel cube candidates: single literals used by >= 2 cubes, pairwise
  // cube intersections (small functions only), and the empty cube (which
  // yields f itself when f is cube-free). Tried in ascending order, each
  // once.
  std::vector<FCube> candidates;
  candidates.emplace_back();
  for (std::size_t i = 0; i + 1 < occ.size(); ++i)
    if (occ[i].first == occ[i + 1].first && (i == 0 || occ[i - 1].first != occ[i].first))
      candidates.push_back({occ[i].first});
  if (f.cubes.size() <= pair_cap) {
    // Only >= 2-literal cubes can contribute a multi-literal co-kernel;
    // a pair involving a 1-literal cube intersects to at most that
    // literal, which the single-literal candidates above already cover.
    FCube inter;
    for (std::size_t i = 0; i < f.cubes.size(); ++i) {
      if (f.cubes[i].size() < 2) continue;
      for (std::size_t j = i + 1; j < f.cubes.size(); ++j) {
        if (f.cubes[j].size() < 2) continue;
        inter.clear();
        std::set_intersection(f.cubes[i].begin(), f.cubes[i].end(), f.cubes[j].begin(),
                              f.cubes[j].end(), std::back_inserter(inter));
        if (!inter.empty()) candidates.push_back(inter);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  // Kernels already returned, as indices into `out`, hashed by their cubes.
  const auto kernel_hash = [&](std::size_t k) { return CubeSetHash()(out[k].kernel.cubes); };
  const auto same_kernel = [&](std::size_t a, std::size_t b) {
    return out[a].kernel.cubes == out[b].kernel.cubes;
  };
  std::unordered_set<std::size_t, decltype(kernel_hash), decltype(same_kernel)> seen(
      16, kernel_hash, same_kernel);
  std::vector<std::uint32_t> matches;
  for (const FCube& ck : candidates) {
    // The cubes of f that ck divides, from the occurrences of its first
    // literal.
    matches.clear();
    if (ck.empty()) {
      for (std::uint32_t i = 0; i < f.cubes.size(); ++i) matches.push_back(i);
    } else {
      const auto range = occurrences(ck[0]);
      for (auto it = range.first; it != range.second; ++it)
        if (ck.size() == 1 || cube_includes(f.cubes[it->second], ck))
          matches.push_back(it->second);
    }
    if (matches.size() < 2 || matches.size() > max_cubes) continue;
    std::vector<FCube> q;
    q.reserve(matches.size());
    for (std::uint32_t i : matches) q.push_back(cube_difference(f.cubes[i], ck));
    // Make the quotient cube-free; the divided-out cube joins the co-kernel.
    const FCube cc = common_cube(q);
    Kernel k;
    k.cokernel = cube_union(ck, cc);
    k.kernel.cubes.reserve(q.size());
    for (const FCube& c : q) k.kernel.cubes.push_back(cube_difference(c, cc));
    std::sort(k.kernel.cubes.begin(), k.kernel.cubes.end());
    out.push_back(std::move(k));
    if (!seen.insert(out.size() - 1).second) out.pop_back();
  }
  return out;
}

}  // namespace

std::vector<Kernel> enumerate_kernels(const SopExpr& f, std::size_t pair_cap) {
  return kernels_up_to(f, pair_cap, SIZE_MAX);
}

// --- FactoredNetwork ---------------------------------------------------------

std::size_t FactoredNetwork::num_literals() const {
  std::size_t n = 0;
  for (const SopExpr& s : nodes) n += s.num_literals();
  for (const SopExpr& s : outputs) n += s.num_literals();
  return n;
}

namespace {

bool eval_lit(LitId l, Minterm m, const std::vector<bool>& node_vals,
              std::size_t num_vars) {
  if (is_node_lit(l, num_vars)) return node_vals[node_of_lit(l, num_vars)];
  const bool bit = (m >> (l / 2)) & 1;
  return (l & 1) ? !bit : bit;
}

bool eval_sop(const SopExpr& s, Minterm m, const std::vector<bool>& node_vals,
              std::size_t num_vars) {
  for (const FCube& c : s.cubes) {
    bool v = true;
    for (LitId l : c) v = v && eval_lit(l, m, node_vals, num_vars);
    if (v) return true;
  }
  return false;
}

}  // namespace

void FactoredNetwork::evaluate_all(Minterm m, std::vector<bool>& node_vals,
                                   std::vector<bool>& out_vals) const {
  node_vals.assign(nodes.size(), false);
  out_vals.assign(outputs.size(), false);
  for (std::size_t j = 0; j < nodes.size(); ++j)
    node_vals[j] = eval_sop(nodes[j], m, node_vals, num_vars);
  for (std::size_t b = 0; b < outputs.size(); ++b)
    out_vals[b] = eval_sop(outputs[b], m, node_vals, num_vars);
}

bool FactoredNetwork::evaluate(Minterm m, std::size_t b) const {
  std::vector<bool> node_vals, out_vals;
  evaluate_all(m, node_vals, out_vals);
  return out_vals.at(b);
}

void FactoredNetwork::check() const {
  auto check_sop = [&](const SopExpr& s, std::size_t max_node) {
    for (const FCube& c : s.cubes) {
      for (std::size_t i = 0; i + 1 < c.size(); ++i)
        if (c[i] >= c[i + 1])
          throw std::logic_error("FactoredNetwork: unsorted cube");
      for (LitId l : c)
        if (is_node_lit(l, num_vars) && node_of_lit(l, num_vars) >= max_node)
          throw std::logic_error("FactoredNetwork: forward node reference");
    }
  };
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (nodes[j].cubes.empty())
      throw std::logic_error("FactoredNetwork: empty node SOP");
    check_sop(nodes[j], j);
  }
  for (const SopExpr& s : outputs) check_sop(s, nodes.size());
}

// --- greedy extraction -------------------------------------------------------

namespace {

/// Hard cap on extracted intermediate nodes (the greedy loop normally
/// stops on its own when no divisor saves literals).
constexpr std::size_t kMaxNodes = std::size_t{1} << 16;
/// Functions with more cubes than this skip the pairwise co-kernel
/// enumeration (single-literal co-kernels are always tried).
constexpr std::size_t kKernelPairCap = 96;
/// Kernel divisors larger than this are not considered (bounds the
/// division work per candidate).
constexpr std::size_t kMaxDivisorCubes = 64;
/// At most this many kernels per function enter the candidate pool per
/// enumeration (largest literal mass first): big PLA outputs yield
/// hundreds of near-identical kernels that all evaluate unprofitable.
constexpr std::size_t kMaxKernelsPerFunc = 24;

/// Max-queue of (count, key) entries kept as one key max-heap per count.
/// It pops exactly the sequence a std::priority_queue of (count, key)
/// pairs pops over the same multiset of entries: the highest count first,
/// the highest key among equal counts, and a duplicated entry once per
/// copy. Each push and pop touches only the heap of one count.
class PairQueue {
 public:
  bool empty() const { return size_ == 0; }

  void push(std::uint32_t count, std::uint64_t key) {
    if (count >= heaps_.size()) heaps_.resize(count + 1);
    std::vector<std::uint64_t>& h = heaps_[count];
    h.push_back(key);
    std::push_heap(h.begin(), h.end());
    top_ = std::max(top_, count);
    ++size_;
  }

  /// Remove and return the largest entry; the queue must not be empty.
  std::pair<std::uint32_t, std::uint64_t> pop() {
    while (heaps_[top_].empty()) --top_;
    std::vector<std::uint64_t>& h = heaps_[top_];
    std::pop_heap(h.begin(), h.end());
    const std::uint64_t key = h.back();
    h.pop_back();
    --size_;
    return {top_, key};
  }

 private:
  std::vector<std::vector<std::uint64_t>> heaps_;  // by count
  std::uint32_t top_ = 0;  // no entry has a higher count
  std::size_t size_ = 0;
};

/// Occurrence count per 2-literal key in an open-addressing table. Keys
/// are never 0 (the first literal of a pair is the smaller one), so 0
/// marks an empty slot; a key whose count fell back to 0 keeps its slot
/// and reads as absent.
class PairCounts {
 public:
  PairCounts() : slots_(std::size_t{1} << kInitialBits) {}

  std::uint32_t get(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (slots_[i].key == key) return slots_[i].count;
      if (slots_[i].key == 0) return 0;
    }
  }

  /// Add `delta` to the count of `key`; returns the new count.
  std::uint32_t add(std::uint64_t key, int delta) {
    std::size_t i = home(key);
    while (slots_[i].key != key && slots_[i].key != 0) i = (i + 1) & mask();
    if (slots_[i].key == 0) {
      if (2 * (used_ + 1) > slots_.size()) {
        grow();
        return add(key, delta);
      }
      slots_[i].key = key;
      ++used_;
    }
    slots_[i].count = static_cast<std::uint32_t>(static_cast<int>(slots_[i].count) + delta);
    return slots_[i].count;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t count = 0;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: the top `bits_` bits of key * 2^64 / phi.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
  }
  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    ++bits_;
    for (const Slot& s : old) {
      if (s.key == 0) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != 0) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  static constexpr unsigned kInitialBits = 12;
  std::vector<Slot> slots_;  // 2^bits_ slots, at most half used
  unsigned bits_ = kInitialBits;
  std::size_t used_ = 0;
};

/// A cube's signature: one bit per literal -- the literal's own bit below
/// 64, a hashed one above -- ORed over the cube. A cube whose signature
/// lacks a bit of another's cannot include it.
std::uint64_t cube_sig(const FCube& c) {
  std::uint64_t sig = 0;
  for (LitId l : c)
    sig |= std::uint64_t{1} << (l < 64 ? l : (l * 0x9E3779B97F4A7C15ULL) >> 58);
  return sig;
}

/// Per-literal bit rows over cube slots (the CubeIndex idiom): every live
/// cube holds one slot, and bit s of row l is set iff the cube in slot s
/// contains literal l. The cubes containing a set of literals are the AND
/// of their rows. A released slot has all its bits clear.
class SlotRows {
 public:
  explicit SlotRows(std::size_t num_rows) : num_rows_(num_rows) {}

  std::size_t num_words() const { return words_; }
  const std::uint64_t* row(std::size_t r) const { return &bits_[r * words_]; }

  std::uint32_t alloc() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    if (next_ == 64 * words_) grow();
    return next_++;
  }
  void release(std::uint32_t s) { free_.push_back(s); }

  void set(std::size_t r, std::uint32_t s) {
    bits_[r * words_ + s / 64] |= std::uint64_t{1} << (s % 64);
  }
  void clear(std::size_t r, std::uint32_t s) {
    bits_[r * words_ + s / 64] &= ~(std::uint64_t{1} << (s % 64));
  }

 private:
  void grow() {
    const std::size_t words = std::max<std::size_t>(1, 2 * words_);
    std::vector<std::uint64_t> bits(num_rows_ * words, 0);
    for (std::size_t r = 0; r < num_rows_; ++r)
      std::copy(bits_.begin() + r * words_, bits_.begin() + (r + 1) * words_,
                bits.begin() + r * words);
    bits_.swap(bits);
    words_ = words;
  }

  std::size_t num_rows_;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // num_rows_ x words_
  std::uint32_t next_ = 0;           // slots below it have been handed out
  std::vector<std::uint32_t> free_;
};

/// The extraction working state: outputs and node definitions live in one
/// function array (funcs_[b] = output b, funcs_[num_outputs + j] = node j),
/// with incremental bookkeeping, all of it current after every rewrite:
///   * pair_count_ / pair_queue_ -- global occurrence counts of 2-literal
///     sub-cubes, a max-queue with lazy invalidation;
///   * input_rows_ / slots_ -- input literal -> the cubes containing it, as
///     bit rows over cube slots;
///   * node_refs_ -- node literal -> cube references, lazily stale: entries
///     are validated against the function generation and actual membership
///     before use;
///   * lit_funcs_ / max_width_ -- literal -> the functions using it, and
///     each function's widest cube: the kernel search's candidate filter;
///   * sigs_ -- each cube's cube_sig, the division scans' prefilter.
class Extractor {
 public:
  Extractor(const CubeList& pla, const FactorOptions& opt)
      : num_vars_(pla.num_vars()), num_outputs_(pla.num_outputs()),
        budget_(opt.budget) {
    std::vector<SopExpr> outs = sops_from_cubelist(pla);
    funcs_ = std::move(outs);
    gen_.assign(funcs_.size(), 0);
    dirty_.assign(funcs_.size(), true);
    max_width_.assign(funcs_.size(), 0);
    slots_.resize(funcs_.size());
    sigs_.resize(funcs_.size());
    lit_funcs_.resize(2 * num_vars_);
    for (std::uint32_t f = 0; f < funcs_.size(); ++f) {
      register_func(f);
      for (const FCube& c : funcs_[f].cubes) add_uses(f, c, +1);
    }
  }

  FactoredNetwork run() {
    // Alternate the two searches until neither finds a profitable divisor:
    // kernel substitutions create fresh cube-sharing opportunities and
    // cube extraction reshapes the kernel structure. Every substitution is
    // applied atomically, so stopping between steps (budget) leaves an
    // exactly equivalent network.
    bool changed = true;
    while (changed && num_nodes() < kMaxNodes && !truncated_) {
      changed = false;
      if (cube_phase()) changed = true;
      if (!truncated_ && kernel_phase()) changed = true;
    }
    cleanup();
    return emit();
  }

  bool truncated() const { return truncated_; }
  /// Budget reason at the stop ("" when not truncated).
  const char* stop_reason() const { return budget_.reason(); }

 private:
  struct CubeRef {
    std::uint32_t func;
    std::uint32_t idx;
    std::uint32_t gen;
  };

  /// One entry of a literal's function list.
  struct FuncUses {
    std::uint32_t func;
    std::uint32_t uses;  // cubes of func containing the literal
  };

  std::size_t num_nodes() const { return funcs_.size() - num_outputs_; }
  LitId lit_of_node(std::size_t j) const { return node_lit(num_vars_, j); }
  std::size_t func_of_node(std::size_t j) const { return num_outputs_ + j; }
  bool is_node_func(std::size_t f) const { return f >= num_outputs_; }

  static std::uint64_t pair_key(LitId a, LitId b) {
    return (std::uint64_t{a} << 32) | b;  // requires a < b
  }

  bool ref_valid(const CubeRef& r) const {
    return r.gen == gen_[r.func] && r.idx < funcs_[r.func].cubes.size();
  }
  const FCube& ref_cube(const CubeRef& r) const {
    return funcs_[r.func].cubes[r.idx];
  }

  /// Count the 2-literal sub-cubes of c in (delta +1) or out (-1); a
  /// count reaching 2 or more on the way in queues the pair at it.
  void add_pairs(const FCube& c, int delta) {
    for (std::size_t i = 0; i < c.size(); ++i)
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        const std::uint64_t key = pair_key(c[i], c[j]);
        const std::uint32_t count = pair_count_.add(key, delta);
        if (delta > 0 && count >= 2) pair_queue_.push(count, key);
      }
  }

  /// Count the cube c of function f in (delta +1) or out of (-1) the
  /// function lists of its literals.
  void add_uses(std::uint32_t f, const FCube& c, int delta) {
    for (LitId l : c) {
      std::vector<FuncUses>& v = lit_funcs_[l];
      auto it = std::lower_bound(
          v.begin(), v.end(), f,
          [](const FuncUses& u, std::uint32_t g) { return u.func < g; });
      if (delta > 0) {
        if (it != v.end() && it->func == f) {
          ++it->uses;
        } else {
          v.insert(it, FuncUses{f, 1});
        }
      } else if (--it->uses == 0) {
        v.erase(it);
      }
    }
  }

  void update_max_width(std::uint32_t f) {
    std::uint32_t w = 0;
    for (const FCube& c : funcs_[f].cubes)
      w = std::max(w, static_cast<std::uint32_t>(c.size()));
    max_width_[f] = w;
  }

  /// Register every cube of a function (fresh generation); the caller
  /// counts its literal uses.
  void register_func(std::uint32_t f) {
    const std::uint32_t g = gen_[f];
    slots_[f].resize(funcs_[f].cubes.size());
    sigs_[f].resize(funcs_[f].cubes.size());
    for (std::uint32_t i = 0; i < funcs_[f].cubes.size(); ++i) {
      const FCube& c = funcs_[f].cubes[i];
      sigs_[f][i] = cube_sig(c);
      const std::uint32_t slot = input_rows_.alloc();
      slots_[f][i] = slot;
      if (slot >= slot_cube_.size()) slot_cube_.resize(slot + 1);
      slot_cube_[slot] = {f, i};
      for (LitId l : c) {
        if (is_node_lit(l, num_vars_)) {
          node_refs_[node_of_lit(l, num_vars_)].push_back({f, i, g});
        } else {
          input_rows_.set(l, slot);
        }
      }
      add_pairs(c, +1);
    }
    update_max_width(f);
  }

  /// Drop the input literals of `lits` from the row bits of cube (f, i).
  void clear_input_bits(std::uint32_t f, std::uint32_t i, const FCube& lits) {
    for (LitId l : lits)
      if (!is_node_lit(l, num_vars_)) input_rows_.clear(l, slots_[f][i]);
  }

  /// Rewrite one cube c to (c \ divisor) + x in place (cube-divisor
  /// substitution; divisor is a subset of c and x a fresh node literal, the
  /// largest id). The bookkeeping ends as if c were counted out and the new
  /// cube counted in, but touches only what changes: a pair that stays
  /// keeps its count and is queued again at it, as counting it out and
  /// back in would; pairs with a divisor literal are counted out, pairs
  /// with x counted in. The divisor's node literals leave stale entries in
  /// node_refs_; x is indexed.
  void rewrite_cube(const CubeRef& r, const FCube& divisor, LitId x) {
    FCube& cur = funcs_[r.func].cubes[r.idx];
    FCube next;
    next.reserve(cur.size() - divisor.size() + 1);
    std::set_difference(cur.begin(), cur.end(), divisor.begin(), divisor.end(),
                        std::back_inserter(next));
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const bool keep_i = !std::binary_search(divisor.begin(), divisor.end(), cur[i]);
      for (std::size_t j = i + 1; j < cur.size(); ++j) {
        const std::uint64_t key = pair_key(cur[i], cur[j]);
        if (keep_i && !std::binary_search(divisor.begin(), divisor.end(), cur[j])) {
          const std::uint32_t count = pair_count_.get(key);
          if (count >= 2) pair_queue_.push(count, key);
        } else {
          pair_count_.add(key, -1);
        }
      }
    }
    for (LitId l : next) {
      const std::uint64_t key = pair_key(l, x);
      const std::uint32_t count = pair_count_.add(key, +1);
      if (count >= 2) pair_queue_.push(count, key);
    }
    add_uses(r.func, divisor, -1);
    add_uses(r.func, FCube{x}, +1);
    clear_input_bits(r.func, r.idx, divisor);
    node_refs_[node_of_lit(x, num_vars_)].push_back({r.func, r.idx, r.gen});
    const bool was_widest = cur.size() == max_width_[r.func];
    next.push_back(x);
    cur = std::move(next);
    sigs_[r.func][r.idx] = cube_sig(cur);
    if (was_widest) update_max_width(r.func);
    dirty_[r.func] = true;
  }

  /// Replace a whole function (kernel substitution): bump the generation so
  /// every old index entry goes stale, then re-register.
  void rebuild_func(std::uint32_t f, std::vector<FCube> next) {
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    // Uses count the new cubes in before the old ones out, so a literal
    // the function keeps never leaves (and re-enters) its function list.
    for (const FCube& c : next) add_uses(f, c, +1);
    for (std::uint32_t i = 0; i < funcs_[f].cubes.size(); ++i) {
      const FCube& c = funcs_[f].cubes[i];
      add_pairs(c, -1);
      add_uses(f, c, -1);
      clear_input_bits(f, i, c);
      input_rows_.release(slots_[f][i]);
    }
    funcs_[f].cubes = std::move(next);
    ++gen_[f];
    register_func(f);
    dirty_[f] = true;
  }

  std::uint32_t new_node(std::vector<FCube> def) {
    const std::uint32_t f = static_cast<std::uint32_t>(funcs_.size());
    funcs_.emplace_back();
    std::sort(def.begin(), def.end());
    funcs_.back().cubes = std::move(def);
    gen_.push_back(0);
    dirty_.push_back(true);
    max_width_.push_back(0);
    slots_.emplace_back();
    sigs_.emplace_back();
    // The node's own literal joins the literal space.
    node_refs_.resize(num_nodes());
    lit_funcs_.resize(2 * (num_vars_ + num_nodes()));
    register_func(f);
    for (const FCube& c : funcs_[f].cubes) add_uses(f, c, +1);
    return f;
  }

  /// Does the definition cone of the literal set `lits` reach node function
  /// `target`? Guards substitutions into node definitions against cycles.
  /// Stamp-based visited set: no allocation per call.
  bool cone_reaches(const FCube& lits, std::uint32_t target) {
    bool any_node = false;
    for (LitId l : lits) any_node = any_node || is_node_lit(l, num_vars_);
    if (!any_node) return false;
    if (reach_seen_.size() < funcs_.size()) reach_seen_.resize(funcs_.size(), 0);
    const std::uint32_t stamp = ++reach_stamp_;
    reach_stack_.clear();
    for (LitId l : lits)
      if (is_node_lit(l, num_vars_)) {
        const std::uint32_t f =
            static_cast<std::uint32_t>(func_of_node(node_of_lit(l, num_vars_)));
        if (reach_seen_[f] != stamp) {
          reach_seen_[f] = stamp;
          reach_stack_.push_back(f);
        }
      }
    while (!reach_stack_.empty()) {
      const std::uint32_t f = reach_stack_.back();
      reach_stack_.pop_back();
      if (f == target) return true;
      for (const FCube& c : funcs_[f].cubes)
        for (LitId l : c)
          if (is_node_lit(l, num_vars_)) {
            const std::uint32_t g = static_cast<std::uint32_t>(
                func_of_node(node_of_lit(l, num_vars_)));
            if (reach_seen_[g] != stamp) {
              reach_seen_[g] = stamp;
              reach_stack_.push_back(g);
            }
          }
    }
    return false;
  }

  /// All current cubes containing every literal of `c` (c non-empty).
  std::vector<CubeRef> cubes_containing(const FCube& c) {
    std::vector<CubeRef> out;
    // With a node literal in c, scan the shortest node reference list. Its
    // valid entries are unique (one per cube per generation), so no
    // deduplication is needed.
    const std::vector<CubeRef>* list = nullptr;
    for (LitId l : c)
      if (is_node_lit(l, num_vars_)) {
        const std::vector<CubeRef>& refs = node_refs_[node_of_lit(l, num_vars_)];
        if (!list || refs.size() < list->size()) list = &refs;
      }
    if (list) {
      for (const CubeRef& r : *list)
        if (ref_valid(r) && cube_includes(ref_cube(r), c)) out.push_back(r);
      return out;
    }
    // Input literals only: the AND of their rows.
    for (std::size_t w = 0; w < input_rows_.num_words(); ++w) {
      std::uint64_t acc = ~std::uint64_t{0};
      for (std::size_t k = 0; k < c.size() && acc; ++k) acc &= input_rows_.row(c[k])[w];
      for (; acc; acc &= acc - 1) {
        const std::uint32_t slot =
            static_cast<std::uint32_t>(64 * w + __builtin_ctzll(acc));
        const auto [f, i] = slot_cube_[slot];
        out.push_back({f, i, gen_[f]});
      }
    }
    return out;
  }

  // --- cube-divisor phase ----------------------------------------------------

  struct CubeCandidate {
    FCube divisor;
    std::vector<CubeRef> targets;
    long value = 0;
  };

  /// Best common-cube divisor grown from the pair (a, b): take every cube
  /// containing the pair and try both the pair itself and the full common
  /// cube of those occurrences.
  CubeCandidate grow_pair(LitId a, LitId b) {
    CubeCandidate cand;
    const FCube pair = {a, b};
    std::vector<CubeRef> occ = cubes_containing(pair);
    if (occ.size() < 2) return cand;

    // Common cube of the occurrences, narrowed in place; it keeps the pair.
    FCube grown = ref_cube(occ[0]);
    for (std::size_t i = 1; i < occ.size() && grown.size() > 2; ++i) {
      const FCube& c = ref_cube(occ[i]);
      grown.erase(std::remove_if(grown.begin(), grown.end(),
                                 [&](LitId l) {
                                   return !std::binary_search(c.begin(), c.end(), l);
                                 }),
                  grown.end());
    }

    const FCube* const divisors[] = {&pair, &grown};
    for (const FCube* divisor : divisors) {
      if (divisor->size() < 2) continue;
      std::vector<CubeRef> targets =
          divisor == &pair ? occ : cubes_containing(*divisor);
      // Cycle guard: drop occurrences inside node definitions the divisor's
      // own cone depends on.
      targets.erase(std::remove_if(targets.begin(), targets.end(),
                                   [&](const CubeRef& r) {
                                     return is_node_func(r.func) &&
                                            cone_reaches(*divisor, r.func);
                                   }),
                    targets.end());
      if (targets.size() < 2) continue;
      const long w = static_cast<long>(divisor->size());
      const long value = static_cast<long>(targets.size()) * (w - 1) - w;
      if (value > cand.value) {
        cand.divisor = *divisor;
        cand.targets = std::move(targets);
        cand.value = value;
      }
    }
    return cand;
  }

  /// Extract the best-value common-cube divisor until none saves literals.
  bool cube_phase() {
    bool any = false;
    while (num_nodes() < kMaxNodes) {
      // One extraction step = one budget unit, charged up front.
      if (budget_.spend(1)) {
        truncated_ = true;
        break;
      }
      // Pop the top candidate pairs (lazy queue: entries are revalidated
      // against the live count).
      constexpr std::size_t kProbe = 16;
      std::vector<std::pair<std::uint32_t, std::uint64_t>> probed;
      CubeCandidate best;
      while (probed.size() < kProbe && !pair_queue_.empty()) {
        const auto top = pair_queue_.pop();
        const std::uint32_t live = pair_count_.get(top.second);
        if (live == 0) continue;
        if (live != top.first) {
          // Stale entry. Increments push fresh entries, so a higher live
          // count is already represented; a *dropped* count is not
          // (decrements don't push) and is re-inserted here so a pair
          // falling back to a still-profitable count stays reachable.
          if (live >= 2 && live < top.first) pair_queue_.push(live, top.second);
          continue;
        }
        probed.push_back(top);
        CubeCandidate cand = grow_pair(
            static_cast<LitId>(top.second >> 32),
            static_cast<LitId>(top.second & 0xFFFFFFFFu));
        if (cand.value > best.value) best = std::move(cand);
      }
      for (const auto& p : probed) pair_queue_.push(p.first, p.second);
      if (best.value <= 0) break;

      // One AND node for the divisor; every occurrence drops the divisor's
      // literals and gains a reference to it.
      const std::uint32_t nf = new_node({best.divisor});
      const LitId x = lit_of_node(nf - num_outputs_);
      for (const CubeRef& r : best.targets) {
        if (!ref_valid(r) || !cube_includes(ref_cube(r), best.divisor))
          continue;  // the new node's own def is not among the targets
        rewrite_cube(r, best.divisor, x);
      }
      any = true;
    }
    return any;
  }

  // --- kernel-divisor phase --------------------------------------------------

  struct KernelTarget {
    std::uint32_t func;
    SopExpr quotient;
    SopExpr remainder;
  };

  /// Does divide(funcs_[g], d) have a nonempty quotient? If so, adds its
  /// cube and literal counts to *q_cubes and *q_lits. Builds neither the
  /// quotient cubes nor the remainder: the quotient is
  /// { c \ d0 : d0 subset of c } narrowed by each further divisor cube dc
  /// to the members q with q u dc a cube of g and q disjoint from dc --
  /// the intersection divide() takes, since g's cubes are distinct.
  bool quotient_sizes(std::uint32_t g, const SopExpr& d, long* q_cubes, long* q_lits) {
    const std::vector<FCube>& f = funcs_[g].cubes;
    const std::vector<std::uint64_t>& sig = sigs_[g];
    const FCube& d0 = d.cubes[0];
    const std::uint64_t sig0 = cube_sig(d0);
    std::size_t n = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      if ((sig[i] & sig0) != sig0 || !cube_includes(f[i], d0)) continue;
      const FCube& c = f[i];
      if (n == q_buf_.size()) q_buf_.emplace_back();
      FCube& q = q_buf_[n++];
      q.clear();
      std::set_difference(c.begin(), c.end(), d0.begin(), d0.end(),
                          std::back_inserter(q));
    }
    q_live_.clear();
    for (std::size_t i = 0; i < n; ++i) q_live_.push_back(&q_buf_[i]);
    const auto by_cube = [](const FCube* a, const FCube* b) { return *a < *b; };
    std::sort(q_live_.begin(), q_live_.end(), by_cube);
    for (std::size_t k = 1; k < d.cubes.size() && !q_live_.empty(); ++k) {
      const FCube& dc = d.cubes[k];
      const std::uint64_t sig_dc = cube_sig(dc);
      q_hit_.assign(q_live_.size(), 0);
      for (std::size_t i = 0; i < f.size(); ++i) {
        if ((sig[i] & sig_dc) != sig_dc || !cube_includes(f[i], dc)) continue;
        const FCube& c = f[i];
        q_diff_.clear();
        std::set_difference(c.begin(), c.end(), dc.begin(), dc.end(),
                            std::back_inserter(q_diff_));
        auto it = std::lower_bound(q_live_.begin(), q_live_.end(), &q_diff_, by_cube);
        if (it != q_live_.end() && **it == q_diff_) q_hit_[it - q_live_.begin()] = 1;
      }
      std::size_t kept = 0;
      for (std::size_t i = 0; i < q_live_.size(); ++i)
        if (q_hit_[i]) q_live_[kept++] = q_live_[i];
      q_live_.resize(kept);
    }
    if (q_live_.empty()) return false;
    *q_cubes += static_cast<long>(q_live_.size());
    for (const FCube* q : q_live_) *q_lits += static_cast<long>(q->size());
    return true;
  }

  /// Candidate value: substituting divisor d into g = q*d + r turns
  /// cubes(d)*lits(q) + cubes(q)*lits(d) product literals into
  /// lits(q) + cubes(q), and the node definition itself costs lits(d).
  /// Without `targets` (the scan over the pool) only the quotient sizes
  /// are computed; with it (the winner) every divided function is listed
  /// with its quotient and remainder.
  long evaluate_kernel(const SopExpr& d, std::vector<KernelTarget>* targets,
                       std::vector<std::uint32_t>* watched = nullptr) {
    std::uint32_t d_width = 0;
    for (const FCube& c : d.cubes)
      d_width = std::max(d_width, static_cast<std::uint32_t>(c.size()));
    // A function divisible by d must use every literal of d's support
    // (each divisor cube has to be a subset of one of its cubes), so the
    // candidate set is the intersection of the per-literal function lists,
    // narrowed from the shortest one.
    FCube support;
    for (const FCube& c : d.cubes)
      support.insert(support.end(), c.begin(), c.end());
    std::sort(support.begin(), support.end());
    support.erase(std::unique(support.begin(), support.end()), support.end());
    if (support.empty()) return 0;
    LitId shortest = support[0];
    for (LitId l : support)
      if (lit_funcs_[l].size() < lit_funcs_[shortest].size()) shortest = l;
    std::vector<std::uint32_t> funcs;
    funcs.reserve(lit_funcs_[shortest].size());
    for (const FuncUses& u : lit_funcs_[shortest]) funcs.push_back(u.func);
    for (LitId l : support) {
      if (funcs.empty()) return 0;
      if (l == shortest) continue;
      const std::vector<FuncUses>& list = lit_funcs_[l];
      std::size_t kept = 0, j = 0;
      for (std::uint32_t f : funcs) {
        while (j < list.size() && list[j].func < f) ++j;
        if (j < list.size() && list[j].func == f) funcs[kept++] = f;
      }
      funcs.resize(kept);
    }
    if (funcs.empty()) return 0;
    if (watched) *watched = funcs;

    const long d_cubes = static_cast<long>(d.cubes.size());
    const long d_lits = static_cast<long>(d.num_literals());
    long value = -d_lits;
    bool divides_any = false;
    for (std::uint32_t g : funcs) {
      // Every divisor cube must fit inside some cube of g.
      if (d_width > max_width_[g]) continue;
      if (is_node_func(g) && cone_reaches(support, g)) continue;
      long q_cubes = 0, q_lits = 0;
      if (targets) {
        DivisionResult div = divide(funcs_[g], d);
        if (div.quotient.cubes.empty()) continue;
        q_cubes = static_cast<long>(div.quotient.cubes.size());
        q_lits = static_cast<long>(div.quotient.num_literals());
        targets->push_back({g, std::move(div.quotient), std::move(div.remainder)});
      } else if (!quotient_sizes(g, d, &q_cubes, &q_lits)) {
        continue;
      }
      divides_any = true;
      value += d_cubes * q_lits + q_cubes * d_lits - q_lits - q_cubes;
    }
    return targets && !divides_any ? 0 : value;
  }

  /// Extract the best-value kernel divisor until none saves literals.
  /// Kernels are enumerated only for functions changed since their last
  /// enumeration; candidates that evaluate unprofitable are dropped and
  /// come back only if a changed function re-yields them.
  bool kernel_phase() {
    bool any = false;
    // Candidate values are cached between rounds: an extraction only
    // rewrites its target functions, so only candidates watching one of
    // those (their support-intersection function list) are re-evaluated.
    struct PoolEntry {
      SopExpr expr;
      long value = 0;
      std::vector<std::uint32_t> watched;
      std::uint64_t eval_round = 0;  // 0: never evaluated
    };
    std::map<std::vector<FCube>, PoolEntry> pool;
    std::vector<std::uint64_t> changed;  // per func: round of last rewrite
    std::uint64_t round = 0;
    while (num_nodes() < kMaxNodes) {
      // One kernel round = one budget unit; the enumeration and evaluation
      // loops below additionally poll the deadline (a first round over a
      // big network can take a long time on its own).
      if (budget_.spend(1)) {
        truncated_ = true;
        break;
      }
      ++round;
      for (std::uint32_t f = 0; f < funcs_.size(); ++f) {
        if (budget_.spend(0)) {
          truncated_ = true;
          break;
        }
        if (!dirty_[f]) continue;
        dirty_[f] = false;
        if (funcs_[f].cubes.size() < 2) continue;
        std::vector<Kernel> ks =
            kernels_up_to(funcs_[f], kKernelPairCap, kMaxDivisorCubes);
        // Large functions yield hundreds of kernels; keep the ones with
        // the largest sharing potential (literal mass) to bound the pool.
        if (ks.size() > kMaxKernelsPerFunc) {
          std::partial_sort(ks.begin(), ks.begin() + kMaxKernelsPerFunc,
                            ks.end(), [](const Kernel& a, const Kernel& b) {
                              return a.kernel.num_literals() >
                                     b.kernel.num_literals();
                            });
          ks.resize(kMaxKernelsPerFunc);
        }
        for (Kernel& k : ks) {
          std::vector<FCube> key = k.kernel.cubes;  // key before the move
          pool.emplace(std::move(key), PoolEntry{std::move(k.kernel), 0, {}, 0});
        }
      }

      if (truncated_) break;

      changed.resize(funcs_.size(), 0);
      long best_value = 0;
      const std::vector<FCube>* best = nullptr;
      for (auto it = pool.begin(); it != pool.end();) {
        if (budget_.spend(0)) {
          truncated_ = true;
          break;
        }
        PoolEntry& e = it->second;
        bool stale = e.eval_round == 0;
        for (std::uint32_t f : e.watched)
          stale = stale || changed[f] >= e.eval_round;
        if (stale) {
          e.watched.clear();
          e.value = evaluate_kernel(e.expr, nullptr, &e.watched);
          e.eval_round = round;
          if (e.value <= 0) {
            it = pool.erase(it);
            continue;
          }
        }
        if (e.value > best_value) {
          best_value = e.value;
          best = &it->first;
        }
        ++it;
      }
      if (truncated_ || !best) break;

      // Re-evaluate the winner collecting quotients, then rewrite.
      std::vector<KernelTarget> targets;
      const SopExpr divisor = pool.find(*best)->second.expr;
      if (evaluate_kernel(divisor, &targets) <= 0 || targets.empty()) {
        pool.erase(divisor.cubes);
        continue;
      }
      const std::uint32_t nf = new_node(divisor.cubes);
      const LitId x = lit_of_node(nf - num_outputs_);
      for (KernelTarget& t : targets) {
        std::vector<FCube> next = std::move(t.remainder.cubes);
        for (FCube& qc : t.quotient.cubes) {
          qc.push_back(x);  // x is the largest id: stays sorted
          next.push_back(std::move(qc));
        }
        rebuild_func(t.func, std::move(next));
        changed[t.func] = round;
      }
      pool.erase(divisor.cubes);
      any = true;
    }
    return any;
  }

  // --- cleanup + emission ----------------------------------------------------

  /// Inline single-use nodes when doing so does not increase the literal
  /// count: a single-cube node merges into its one using cube; a multi-cube
  /// node replaces a using cube that consists of the bare reference.
  /// Runs to a fixpoint: single-cube inlines rewrite their site in place
  /// (no index shifts, so one pass applies as many as it can validate),
  /// while a multi-cube inline erases a cube and ends the pass, and
  /// cascades (a freed node exposing another single use) land in the next
  /// pass's recount.
  void cleanup() {
    bool changed = true;
    while (changed) {
      changed = false;
      // Use counts + the single use site per node.
      std::vector<std::size_t> uses(num_nodes(), 0);
      std::vector<CubeRef> site(num_nodes(), CubeRef{0, 0, 0});
      for (std::uint32_t f = 0; f < funcs_.size(); ++f)
        for (std::uint32_t i = 0; i < funcs_[f].cubes.size(); ++i)
          for (LitId l : funcs_[f].cubes[i])
            if (is_node_lit(l, num_vars_)) {
              const std::size_t j = node_of_lit(l, num_vars_);
              if (++uses[j] == 1) site[j] = {f, i, 0};
            }

      bool shifted = false;
      for (std::size_t j = 0; j < num_nodes() && !shifted; ++j) {
        if (uses[j] != 1) continue;
        const SopExpr& def = funcs_[func_of_node(j)];
        if (def.cubes.empty()) continue;
        SopExpr& g = funcs_[site[j].func];
        // An earlier inline this pass may have cleared the using function
        // (the site was inside a now-dead node definition): revalidate.
        if (site[j].idx >= g.cubes.size()) continue;
        FCube& c = g.cubes[site[j].idx];
        const LitId x = lit_of_node(j);
        if (!std::binary_search(c.begin(), c.end(), x)) continue;
        if (def.cubes.size() == 1) {
          FCube rest = cube_difference(c, {x});
          c = cube_union(rest, def.cubes[0]);
          changed = true;
        } else if (c.size() == 1 && c[0] == x) {
          g.cubes.erase(g.cubes.begin() + site[j].idx);
          for (const FCube& dc : def.cubes) g.cubes.push_back(dc);
          changed = true;
          shifted = true;  // cube indices moved: recount before continuing
        } else {
          continue;
        }
        funcs_[func_of_node(j)].cubes.clear();  // dead: dropped at emission
      }
    }
  }

  FactoredNetwork emit() {
    // Liveness + topological order over node references (node definitions
    // may reference nodes created later, after kernel substitution into an
    // older node's body).
    std::vector<int> state(num_nodes(), 0);  // 0 new, 1 open, 2 done
    std::vector<std::size_t> order;
    struct Frame {
      std::size_t node;
      std::size_t seen = 0;
      std::vector<std::size_t> children;  // gathered once per node
    };
    auto gather_children = [&](std::size_t j) {
      std::vector<std::size_t> children;
      for (const FCube& c : funcs_[func_of_node(j)].cubes)
        for (LitId l : c)
          if (is_node_lit(l, num_vars_))
            children.push_back(node_of_lit(l, num_vars_));
      std::sort(children.begin(), children.end());
      children.erase(std::unique(children.begin(), children.end()),
                     children.end());
      return children;
    };
    auto visit = [&](std::size_t root) {
      if (state[root] == 2) return;
      std::vector<Frame> stack;
      stack.push_back({root, 0, gather_children(root)});
      state[root] = 1;
      while (!stack.empty()) {
        Frame& fr = stack.back();
        bool descended = false;
        while (fr.seen < fr.children.size()) {
          const std::size_t ch = fr.children[fr.seen++];
          if (state[ch] == 0) {
            state[ch] = 1;
            stack.push_back({ch, 0, gather_children(ch)});
            descended = true;
            break;
          }
          if (state[ch] == 1)
            throw std::logic_error("extract_factored: node cycle");
        }
        if (descended) continue;
        state[fr.node] = 2;
        order.push_back(fr.node);
        stack.pop_back();
      }
    };
    for (std::size_t b = 0; b < num_outputs_; ++b)
      for (const FCube& c : funcs_[b].cubes)
        for (LitId l : c)
          if (is_node_lit(l, num_vars_)) visit(node_of_lit(l, num_vars_));

    std::vector<std::size_t> remap(num_nodes(), SIZE_MAX);
    for (std::size_t k = 0; k < order.size(); ++k) remap[order[k]] = k;

    auto remap_sop = [&](const SopExpr& s) {
      SopExpr out;
      out.cubes.reserve(s.cubes.size());
      for (const FCube& c : s.cubes) {
        FCube nc;
        nc.reserve(c.size());
        for (LitId l : c)
          nc.push_back(is_node_lit(l, num_vars_)
                           ? node_lit(num_vars_, remap[node_of_lit(l, num_vars_)])
                           : l);
        std::sort(nc.begin(), nc.end());
        out.cubes.push_back(std::move(nc));
      }
      out.normalize();
      return out;
    };

    FactoredNetwork fn;
    fn.num_vars = num_vars_;
    fn.num_outputs = num_outputs_;
    fn.nodes.reserve(order.size());
    for (std::size_t j : order)
      fn.nodes.push_back(remap_sop(funcs_[func_of_node(j)]));
    fn.outputs.reserve(num_outputs_);
    for (std::size_t b = 0; b < num_outputs_; ++b)
      fn.outputs.push_back(remap_sop(funcs_[b]));
    return fn;
  }

  std::size_t num_vars_;
  std::size_t num_outputs_;
  Budget budget_;
  bool truncated_ = false;
  std::vector<SopExpr> funcs_;
  std::vector<std::uint32_t> gen_;
  std::vector<bool> dirty_;
  PairCounts pair_count_;
  PairQueue pair_queue_;
  SlotRows input_rows_{2 * num_vars_};             // rows by input LitId
  std::vector<std::vector<std::uint32_t>> slots_;  // by function: cube -> slot
  std::vector<std::vector<std::uint64_t>> sigs_;   // by function: cube_sig per cube
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slot_cube_;  // (func, cube)
  std::vector<std::vector<CubeRef>> node_refs_;    // by node
  std::vector<std::vector<FuncUses>> lit_funcs_;   // by LitId, ascending func
  std::vector<std::uint32_t> max_width_;           // by function
  std::vector<std::uint32_t> reach_seen_;
  std::vector<std::uint32_t> reach_stack_;
  std::uint32_t reach_stamp_ = 0;
  // quotient_sizes scratch
  std::vector<FCube> q_buf_;
  std::vector<const FCube*> q_live_;
  std::vector<char> q_hit_;
  FCube q_diff_;
};

}  // namespace

FactoredNetwork extract_factored(const CubeList& pla, const FactorOptions& options,
                                 Degradation* degradation) {
  Extractor ex(pla, options);
  FactoredNetwork fn = ex.run();
  fn.check();
  if (degradation) {
    // Greedy extraction is open-ended: no work total.
    *degradation = truncation_label(
        "factor", fn.num_nodes(), 0, ex.truncated(), ex.stop_reason(),
        "divisor extraction stopped early; partial factorization is exact");
  }
  return fn;
}

FactoredNetwork extract_factored(const std::vector<Cover>& covers,
                                 const FactorOptions& options,
                                 Degradation* degradation) {
  return extract_factored(cubelist_from_covers(covers), options, degradation);
}

}  // namespace stc
