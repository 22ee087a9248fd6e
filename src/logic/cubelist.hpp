#pragma once
// Cube-calculus core: unate-recursive tautology / complement / containment
// over covers, and a multi-output PLA cube list in the espresso style.
//
// The point of this layer is that no operation ever materializes a minterm
// list. The OFF set of a function is represented as a *cover* computed by
// unate-recursive complement of ON u DC, cube-in-cover containment is a
// tautology check of a cofactor, and IRREDUNDANT/REDUCE run entirely on
// covers. This is what lets the two-level minimizer handle the 13-variable
// multi-output tables of the big corpus machines in milliseconds where the
// dense O(2^n) enumeration took tens of seconds.

#include <cstdint>
#include <vector>

#include "logic/cover.hpp"

namespace stc {

// --- unate-recursion primitives over single-output covers --------------------

/// Shannon cofactor of `cover` with respect to cube `c`: cubes disjoint
/// from c are dropped, literals fixed by c are removed from the rest. The
/// result is a cover over the free variables of c such that for every
/// minterm m of c:  cover(m) == cofactor(cover, c)(m).
Cover cofactor(const Cover& cover, const Cube& c);

/// Unate-recursive tautology check: does `cover` evaluate to 1 on every
/// minterm? (Empty covers are not tautologies; a literal-free cube is.)
bool is_tautology(const Cover& cover);

/// Low-level tautology entry for hot loops: `cubes` is an already-
/// cofactored list spanning `num_free` variables (every care bit must lie
/// inside the free space).
bool is_tautology_cubes(const std::vector<Cube>& cubes, std::size_t num_free);

/// Low-level complement entry for hot loops: complement of an already-
/// cofactored cube list. The result's support is contained in the input's
/// support; minterms over variables the input never mentions are covered
/// or excluded uniformly, so the same cube list is the complement in any
/// enclosing space.
std::vector<Cube> complement_cubes(const std::vector<Cube>& cubes);

/// Cube-vs-cover containment: every minterm of `c` is covered by `cover`.
/// Implemented as is_tautology(cofactor(cover, c)).
bool cover_contains_cube(const Cover& cover, const Cube& c);

/// Cover-vs-cover containment: every minterm of `inner` is in `outer`.
bool cover_contains_cover(const Cover& outer, const Cover& inner);

/// Complement via unate recursion (the sharp operation against the
/// universe): a cover of exactly the minterms NOT covered by `cover`.
Cover complement_cover(const Cover& cover);

/// Sharp: a cover of (minterms of c) \ (minterms of `cover`). Every
/// returned cube is contained in c.
std::vector<Cube> sharp(const Cube& c, const Cover& cover);

/// Smallest single cube containing every cube of `cubes` (the supercube).
/// Meaningless for an empty input; callers must check.
Cube supercube(const std::vector<Cube>& cubes);

// --- multi-output PLA --------------------------------------------------------

/// One row of a multi-output PLA: an input product term plus the set of
/// outputs whose cover it belongs to (espresso's output part, one bit per
/// output, so at most 64 outputs per block).
struct MCube {
  Cube in;
  std::uint64_t out = 0;

  bool operator==(const MCube& o) const { return in == o.in && out == o.out; }
  bool operator<(const MCube& o) const {
    return in == o.in ? out < o.out : in < o.in;
  }
};

/// A list of multi-output cubes over a shared input space: the cover of
/// output b is { m.in : bit b of m.out set }. Product terms shared between
/// next-state and output bits appear once with several output bits set.
class CubeList {
 public:
  CubeList() = default;
  CubeList(std::size_t num_vars, std::size_t num_outputs);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_outputs() const { return num_outputs_; }
  std::size_t num_cubes() const { return cubes_.size(); }
  bool empty() const { return cubes_.empty(); }

  const std::vector<MCube>& cubes() const { return cubes_; }
  std::vector<MCube>& cubes() { return cubes_; }
  void add(const Cube& in, std::uint64_t out_mask);
  void add(const MCube& m) { add(m.in, m.out); }

  /// Single-output view: the cover of output b.
  Cover output_cover(std::size_t b) const;

  /// AND-plane literal count (each distinct product term counted once).
  std::size_t num_input_literals() const;
  /// OR-plane connection count (sum of output-part popcounts).
  std::size_t num_output_literals() const;

  bool evaluate(Minterm m, std::size_t b) const;

  /// OR the output parts of cubes with identical input parts (and drop
  /// cubes with an empty output part).
  void merge_identical_inputs();

  /// Drop cubes dominated by another cube (bigger-or-equal input part AND
  /// superset output part), with an index tie-break for exact duplicates.
  void remove_dominated();

  /// Exact check against per-output truth tables: tables[b] must be
  /// implemented (ON covered, OFF avoided) by output b's cover.
  bool implements(const std::vector<TruthTable>& tables) const;

 private:
  std::size_t num_vars_ = 0;
  std::size_t num_outputs_ = 0;
  std::vector<MCube> cubes_;
};

/// Bit-sliced index over a fixed list of cubes, for all-pairs scans a word
/// at a time. Cube j is bit j of every row. For each variable v and value
/// x the literal row holds the cubes compatible with the literal v = x
/// (no literal on v, or the literal v = x); for each output b the output
/// row holds the cubes whose output part has bit b. The AND of a cube's
/// literal rows is then exactly the set of indexed cubes it intersects.
/// A no-literal row per variable (the AND of its two literal rows) serves
/// dominating().
/// The index is a snapshot: callers that shrink indexed cubes afterwards
/// still get a superset of the intersecting cubes and must re-check.
class CubeIndex {
 public:
  /// Index over input parts only (no output rows).
  explicit CubeIndex(const std::vector<Cube>& cubes);
  /// Index over a multi-output cube list, with one row per output.
  explicit CubeIndex(const CubeList& list);

  /// Row length in 64-bit words.
  std::size_t num_words() const { return words_; }

  /// dst[0, num_words()) = the indexed cubes that intersect c.
  void intersecting(const Cube& c, std::uint64_t* dst) const;
  /// True iff some indexed cube intersects c.
  bool any_intersecting(const Cube& c) const;
  /// dst[0, num_words()) = the indexed cubes whose input part covers m.in
  /// and whose output part contains m.out. Every output of m.out must be
  /// driven by some indexed cube (as when m is one of them).
  void dominating(const MCube& m, std::uint64_t* dst) const;

  /// The cubes driving output b; b must be driven by some indexed cube.
  const std::uint64_t* output_row(std::size_t b) const { return &out_[b * words_]; }
  /// Every indexed cube (the bits past the last cube are 0).
  const std::uint64_t* all_row() const { return all_.data(); }
  /// The cubes compatible with the literal v = x, or nullptr when no
  /// indexed cube has a literal on v: every cube is, so the row would be
  /// all_row() and callers treat the missing row as all ones.
  const std::uint64_t* literal_row(std::size_t v, std::uint64_t x) const {
    return (support_ >> v) & 1 ? &lit_[(2 * v + x) * words_] : nullptr;
  }

 private:
  CubeIndex(std::size_t num_cubes, std::uint64_t support, std::size_t num_outputs);
  void set_cube(std::size_t j, const Cube& c);
  /// Derive the no-literal rows once every cube is set.
  void set_free_rows();
  /// Fill rows[] with c's literal rows (those of its support variables);
  /// returns how many.
  std::size_t literal_rows(const Cube& c, const std::uint64_t** rows) const;
  /// dst = all_ AND the rows; a word whose AND hits 0 stops early.
  void and_rows(const std::uint64_t* const* rows, std::size_t n, std::uint64_t* dst) const;

  std::size_t words_ = 0;
  std::uint64_t support_ = 0;       // variables some indexed cube has a literal on
  std::vector<std::uint64_t> all_;  // every indexed cube
  std::vector<std::uint64_t> lit_;  // (2 v + x) x words_, for v below support_'s top bit
  std::vector<std::uint64_t> free_;  // v x words_: the cubes with no literal on v
  std::vector<std::uint64_t> out_;  // b x words_
};

/// Multi-output specification handed to the minimizer: ON and DC cube
/// lists over the same input space. DC cubes carry output masks too, so
/// per-output don't-care sets need not coincide.
struct PlaSpec {
  std::size_t num_vars = 0;
  std::size_t num_outputs = 0;
  CubeList on;
  CubeList dc;

  /// Dense fallback: build a spec from per-output truth tables (all the
  /// same arity). Enumerates minterms once; intended for small tables and
  /// for differential testing against the dense path.
  static PlaSpec from_tables(const std::vector<TruthTable>& tables);
};

}  // namespace stc
