#include "logic/factor.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>

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

std::vector<Kernel> enumerate_kernels(const SopExpr& f, std::size_t pair_cap) {
  std::vector<Kernel> out;
  if (f.cubes.size() < 2) return out;

  // Co-kernel cube candidates: single literals used by >= 2 cubes, pairwise
  // cube intersections (small functions only), and the empty cube (which
  // yields f itself when f is cube-free).
  std::set<FCube> candidates;
  candidates.insert(FCube{});  // NOT insert({}): that is the empty init-list
  {
    std::unordered_map<LitId, std::size_t> lit_count;
    for (const FCube& c : f.cubes)
      for (LitId l : c) ++lit_count[l];
    for (const auto& [lit, count] : lit_count)
      if (count >= 2) candidates.insert({lit});
  }
  if (f.cubes.size() <= pair_cap) {
    // Only >= 2-literal cubes can contribute a multi-literal co-kernel;
    // a pair involving a 1-literal cube intersects to at most that
    // literal, which the single-literal candidates above already cover.
    for (std::size_t i = 0; i < f.cubes.size(); ++i) {
      if (f.cubes[i].size() < 2) continue;
      for (std::size_t j = i + 1; j < f.cubes.size(); ++j) {
        if (f.cubes[j].size() < 2) continue;
        FCube inter = cube_intersection(f.cubes[i], f.cubes[j]);
        if (!inter.empty()) candidates.insert(std::move(inter));
      }
    }
  }

  std::set<std::vector<FCube>> seen_kernels;
  for (const FCube& ck : candidates) {
    std::vector<FCube> q = quotient_by_cube(f, ck);
    if (q.size() < 2) continue;
    // Make the quotient cube-free; the divided-out cube joins the co-kernel.
    const FCube cc = common_cube(q);
    Kernel k;
    k.cokernel = cube_union(ck, cc);
    k.kernel.cubes.reserve(q.size());
    for (const FCube& c : q) k.kernel.cubes.push_back(cube_difference(c, cc));
    std::sort(k.kernel.cubes.begin(), k.kernel.cubes.end());
    if (!seen_kernels.insert(k.kernel.cubes).second) continue;
    out.push_back(std::move(k));
  }
  return out;
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

/// The extraction working state: outputs and node definitions live in one
/// function array (funcs_[b] = output b, funcs_[num_outputs + j] = node j),
/// with incremental bookkeeping for the cube-divisor search:
///   * pair_count_ / pair_heap_ -- global occurrence counts of 2-literal
///     sub-cubes, max-heap with lazy invalidation;
///   * lit_cubes_ -- literal -> cube references, also lazily stale: entries
///     are validated against the function generation and actual membership
///     before use.
class Extractor {
 public:
  Extractor(const CubeList& pla, const FactorOptions& opt)
      : num_vars_(pla.num_vars()), num_outputs_(pla.num_outputs()),
        budget_(opt.budget) {
    std::vector<SopExpr> outs = sops_from_cubelist(pla);
    funcs_ = std::move(outs);
    gen_.assign(funcs_.size(), 0);
    dirty_.assign(funcs_.size(), true);
    for (std::uint32_t f = 0; f < funcs_.size(); ++f) register_func(f);
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

  void add_pairs(const FCube& c, int delta) {
    for (std::size_t i = 0; i < c.size(); ++i)
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        const std::uint64_t key = pair_key(c[i], c[j]);
        auto it = pair_count_.find(key);
        if (it == pair_count_.end()) it = pair_count_.emplace(key, 0).first;
        it->second = static_cast<std::uint32_t>(
            static_cast<int>(it->second) + delta);
        if (it->second == 0) {
          pair_count_.erase(it);
        } else if (delta > 0 && it->second >= 2) {
          pair_heap_.push({it->second, key});
        }
      }
  }

  /// Register every cube of a function (fresh generation).
  void register_func(std::uint32_t f) {
    const std::uint32_t g = gen_[f];
    for (std::uint32_t i = 0; i < funcs_[f].cubes.size(); ++i) {
      const FCube& c = funcs_[f].cubes[i];
      for (LitId l : c) lit_cubes_[l].push_back({f, i, g});
      add_pairs(c, +1);
    }
  }

  /// Replace one cube in place (cube-divisor substitution): removed
  /// literals leave stale index entries behind; `fresh` literals (never
  /// seen in this cube before) are indexed.
  void rewrite_cube(const CubeRef& r, FCube next, LitId fresh) {
    FCube& cur = funcs_[r.func].cubes[r.idx];
    add_pairs(cur, -1);
    lit_cubes_[fresh].push_back({r.func, r.idx, r.gen});
    cur = std::move(next);
    add_pairs(cur, +1);
    dirty_[r.func] = true;
  }

  /// Replace a whole function (kernel substitution): bump the generation so
  /// every old index entry goes stale, then re-register.
  void rebuild_func(std::uint32_t f, std::vector<FCube> next) {
    for (const FCube& c : funcs_[f].cubes) add_pairs(c, -1);
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
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
    register_func(f);
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
  /// Valid entries are unique per literal list (one entry per cube per
  /// generation), so no deduplication is needed.
  std::vector<CubeRef> cubes_containing(const FCube& c) {
    // Scan the shortest literal index list.
    LitId best = c[0];
    std::size_t best_size = SIZE_MAX;
    for (LitId l : c) {
      auto it = lit_cubes_.find(l);
      const std::size_t sz = it == lit_cubes_.end() ? 0 : it->second.size();
      if (sz < best_size) {
        best_size = sz;
        best = l;
      }
    }
    std::vector<CubeRef> out;
    auto it = lit_cubes_.find(best);
    if (it == lit_cubes_.end()) return out;
    for (const CubeRef& r : it->second) {
      if (!ref_valid(r)) continue;
      if (!cube_includes(ref_cube(r), c)) continue;
      out.push_back(r);
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

    std::vector<FCube> occ_cubes;
    occ_cubes.reserve(occ.size());
    for (const CubeRef& r : occ) occ_cubes.push_back(ref_cube(r));
    const FCube grown = common_cube(occ_cubes);

    for (const FCube* divisor : {&pair, &grown}) {
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
      // Pop the top candidate pairs (lazy heap: entries are revalidated
      // against the live count).
      constexpr std::size_t kProbe = 16;
      std::vector<std::pair<std::uint32_t, std::uint64_t>> probed;
      CubeCandidate best;
      while (probed.size() < kProbe && !pair_heap_.empty()) {
        const auto top = pair_heap_.top();
        pair_heap_.pop();
        auto it = pair_count_.find(top.second);
        if (it == pair_count_.end()) continue;
        if (it->second != top.first) {
          // Stale entry. Increments push fresh entries, so a higher live
          // count is already represented; a *dropped* count is not
          // (decrements don't push) and is re-inserted here so a pair
          // falling back to a still-profitable count stays reachable.
          if (it->second >= 2 && it->second < top.first)
            pair_heap_.push({it->second, top.second});
          continue;
        }
        probed.push_back(top);
        CubeCandidate cand = grow_pair(
            static_cast<LitId>(top.second >> 32),
            static_cast<LitId>(top.second & 0xFFFFFFFFu));
        if (cand.value > best.value) best = std::move(cand);
      }
      for (const auto& p : probed) pair_heap_.push(p);
      if (best.value <= 0) break;

      // One AND node for the divisor; every occurrence drops the divisor's
      // literals and gains a reference to it.
      const std::uint32_t nf = new_node({best.divisor});
      const LitId x = lit_of_node(nf - num_outputs_);
      for (const CubeRef& r : best.targets) {
        if (!ref_valid(r) || !cube_includes(ref_cube(r), best.divisor))
          continue;  // the new node's own def is not among the targets
        FCube next = cube_difference(ref_cube(r), best.divisor);
        next.push_back(x);  // x is the largest id: stays sorted
        rewrite_cube(r, std::move(next), x);
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

  /// Literal -> sorted list of functions whose current cubes use it.
  /// Rebuilt once per kernel round (O(total literals)); the support
  /// intersection below is what keeps candidate evaluation from dividing
  /// every function in the network.
  using LitFuncIndex = std::unordered_map<LitId, std::vector<std::uint32_t>>;

  LitFuncIndex build_lit_func_index(std::vector<std::uint32_t>* max_width) const {
    LitFuncIndex index;
    max_width->assign(funcs_.size(), 0);
    for (std::uint32_t f = 0; f < funcs_.size(); ++f) {
      for (const FCube& c : funcs_[f].cubes) {
        (*max_width)[f] = std::max((*max_width)[f],
                                   static_cast<std::uint32_t>(c.size()));
        for (LitId l : c) {
          auto& v = index[l];
          if (v.empty() || v.back() != f) v.push_back(f);
        }
      }
    }
    return index;
  }

  /// Candidate value: substituting divisor d into g = q*d + r turns
  /// cubes(d)*lits(q) + cubes(q)*lits(d) product literals into
  /// lits(q) + cubes(q), and the node definition itself costs lits(d).
  long evaluate_kernel(const SopExpr& d, const LitFuncIndex& index,
                       const std::vector<std::uint32_t>& max_width,
                       std::vector<KernelTarget>* targets,
                       std::vector<std::uint32_t>* watched = nullptr) {
    std::uint32_t d_width = 0;
    for (const FCube& c : d.cubes)
      d_width = std::max(d_width, static_cast<std::uint32_t>(c.size()));
    // A function divisible by d must use every literal of d's support
    // (each divisor cube has to be a subset of one of its cubes), so the
    // candidate set is the intersection of the per-literal function lists.
    FCube support;
    for (const FCube& c : d.cubes)
      support.insert(support.end(), c.begin(), c.end());
    std::sort(support.begin(), support.end());
    support.erase(std::unique(support.begin(), support.end()), support.end());
    if (support.empty()) return 0;
    std::vector<std::uint32_t> funcs;
    for (std::size_t i = 0; i < support.size(); ++i) {
      auto it = index.find(support[i]);
      if (it == index.end()) return 0;
      if (i == 0) {
        funcs = it->second;
      } else {
        std::vector<std::uint32_t> next;
        std::set_intersection(funcs.begin(), funcs.end(), it->second.begin(),
                              it->second.end(), std::back_inserter(next));
        funcs = std::move(next);
      }
      if (funcs.empty()) return 0;
    }
    if (watched) *watched = funcs;

    const long d_cubes = static_cast<long>(d.cubes.size());
    const long d_lits = static_cast<long>(d.num_literals());
    long value = -d_lits;
    for (std::uint32_t g : funcs) {
      // Every divisor cube must fit inside some cube of g.
      if (d_width > max_width[g]) continue;
      if (is_node_func(g) && cone_reaches(support, g)) continue;
      DivisionResult div = divide(funcs_[g], d);
      if (div.quotient.cubes.empty()) continue;
      const long q_cubes = static_cast<long>(div.quotient.cubes.size());
      const long q_lits = static_cast<long>(div.quotient.num_literals());
      value += d_cubes * q_lits + q_cubes * d_lits - q_lits - q_cubes;
      if (targets)
        targets->push_back({g, std::move(div.quotient), std::move(div.remainder)});
    }
    return targets && targets->empty() ? 0 : value;
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
        std::vector<Kernel> ks = enumerate_kernels(funcs_[f], kKernelPairCap);
        ks.erase(std::remove_if(ks.begin(), ks.end(),
                                [&](const Kernel& k) {
                                  return k.kernel.cubes.size() < 2 ||
                                         k.kernel.cubes.size() >
                                             kMaxDivisorCubes;
                                }),
                 ks.end());
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

      std::vector<std::uint32_t> max_width;
      const LitFuncIndex index = build_lit_func_index(&max_width);
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
          e.value = evaluate_kernel(e.expr, index, max_width, nullptr, &e.watched);
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
      if (evaluate_kernel(divisor, index, max_width, &targets) <= 0 ||
          targets.empty()) {
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
  std::unordered_map<std::uint64_t, std::uint32_t> pair_count_;
  std::priority_queue<std::pair<std::uint32_t, std::uint64_t>> pair_heap_;
  std::unordered_map<LitId, std::vector<CubeRef>> lit_cubes_;
  std::vector<std::uint32_t> reach_seen_;
  std::vector<std::uint32_t> reach_stack_;
  std::uint32_t reach_stamp_ = 0;
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
