#pragma once
// Compiled bit-parallel netlist evaluator (PPSFP-style, wide lanes).
//
// `CompiledNetlist` copies a finalized Netlist's program into an
// immutable, levelized one: one opcode record per combinational gate in
// topological order, with all fanins in a single contiguous uint32_t pool,
// plus the event scheduler's tables built from it. A program may cover
// only an observation cone (a fanin-closed subset of the nets, see
// fanin_cone): it keeps the netlist's net ids and skips every op outside
// the cone. Evaluation operates on groups of W = 1/4/8 contiguous
// uint64_t words per net ("lane words"), one bit per simulation lane, so a
// single pass computes 64*W machine copies at once. Every per-net array --
// input/DFF source words, net values, fault masks, the dense term table --
// is W-strided: net n owns words [n*W, n*W + W). The W-word group loops
// carry no per-word branching, so with a constant W the compiler unrolls
// them into straight-line word ops that auto-vectorize (SSE2/AVX2/AVX-512
// as available). By convention lane 0 (bit 0 of word 0) is the fault-free
// reference and lanes 1..64W-1 carry one injected stuck-at fault each.
//
// A program holds no mutable state, so any number of threads may evaluate
// one shared program. The mutable parts live with each caller:
// `LaneFaultMasks` (the injected faults, net-indexed, so one set serves
// every program of a netlist) and `EventScratch` (the event evaluator's
// resident state, one per program a caller runs).
//
// Faults are injected with per-net AND/OR lane masks applied branchlessly
// after every net is driven: sa-0 in lane l clears bit l%64 of word l/64
// of the net's and-mask group, sa-1 sets the same bit of its or-mask
// group. The masks default to the identity (~0 / 0), so fault-free lanes
// are untouched.
//
// Two evaluation modes are compiled from the same program:
//   * evaluate()       -- flat: every op, every call (reference engine);
//   * evaluate_event() -- event-driven: the previous cycle's net words stay
//     resident in an EventScratch, source word groups are diffed against
//     them, and only the fanout cones of changed nets are re-evaluated via
//     a per-level bucket queue. PLA products (ANDs over literal-shaped
//     fanins) are compiled into a separate dense sweep -- factored through
//     a shared AND-node table, grouped by term count, evaluated as one
//     sequential pass and skipped whenever no product input changed; wide
//     ORs keep incremental active-fanin sets (see DESIGN.md, "Event-driven
//     fault simulation" and "Wide-lane fault simulation"). Bit-identical to
//     evaluate() by construction: any state the scheduler cannot trust
//     (fresh scratch, other masks, a set()/clear() of the masks since the
//     last call) falls back to one full evaluation.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace stc {

/// Lane-word counts the evaluators are compiled for (64/256/512 lanes).
/// Constant trip counts are what lets the W-word group loops unroll and
/// vectorize, so the supported set is a closed list, not a free parameter.
inline constexpr unsigned kSupportedLaneWords[] = {1, 4, 8};
inline constexpr unsigned kMaxLaneWords = 8;

inline constexpr bool lane_words_supported(unsigned w) {
  for (unsigned s : kSupportedLaneWords)
    if (s == w) return true;
  return false;
}

/// Branch-free helpers over W-word lane groups. With a constant W these
/// compile to fully unrolled straight-line word ops (verified to vectorize
/// with -fopt-info-vec; see DESIGN.md).
namespace lanes {

template <unsigned W>
inline void fill(std::uint64_t* d, std::uint64_t v) {
  for (unsigned w = 0; w < W; ++w) d[w] = v;
}
template <unsigned W>
inline void copy(std::uint64_t* d, const std::uint64_t* s) {
  for (unsigned w = 0; w < W; ++w) d[w] = s[w];
}
template <unsigned W>
inline bool equal(const std::uint64_t* a, const std::uint64_t* b) {
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < W; ++w) diff |= a[w] ^ b[w];
  return diff == 0;
}
template <unsigned W>
inline bool any(const std::uint64_t* a) {
  std::uint64_t acc = 0;
  for (unsigned w = 0; w < W; ++w) acc |= a[w];
  return acc != 0;
}
template <unsigned W>
inline void and_in(std::uint64_t* acc, const std::uint64_t* s) {
  for (unsigned w = 0; w < W; ++w) acc[w] &= s[w];
}
template <unsigned W>
inline void or_in(std::uint64_t* acc, const std::uint64_t* s) {
  for (unsigned w = 0; w < W; ++w) acc[w] |= s[w];
}
template <unsigned W>
inline void xor_in(std::uint64_t* acc, const std::uint64_t* s) {
  for (unsigned w = 0; w < W; ++w) acc[w] ^= s[w];
}
template <unsigned W>
inline void not_to(std::uint64_t* d, const std::uint64_t* s) {
  for (unsigned w = 0; w < W; ++w) d[w] = ~s[w];
}
/// d = (v & am) | om -- the per-net fault-mask application.
template <unsigned W>
inline void mask_to(std::uint64_t* d, const std::uint64_t* v,
                    const std::uint64_t* am, const std::uint64_t* om) {
  for (unsigned w = 0; w < W; ++w) d[w] = (v[w] & am[w]) | om[w];
}
/// out = a & b where all three point into the SAME array (the in-place
/// term-table pass): a direct `out[w] = a[w] & b[w]` loop cannot be
/// auto-vectorized -- the compiler must assume the store may feed the next
/// load -- and GCC emits it as scalar word ops. Routing each 4-word block
/// through a local temp makes the independence explicit, so the block
/// SLP-vectorizes into one 32-byte load/and/store chain (W=8 is two
/// independent blocks; one 64-byte temp would round-trip the stack).
template <unsigned W>
inline void and_to_inplace(std::uint64_t* out, const std::uint64_t* a,
                           const std::uint64_t* b) {
  constexpr unsigned B = W < 4 ? W : 4;
  for (unsigned h = 0; h < W; h += B) {
    std::uint64_t v[B];
    for (unsigned w = 0; w < B; ++w) v[w] = a[h + w] & b[h + w];
    for (unsigned w = 0; w < B; ++w) out[h + w] = v[w];
  }
}
/// out = (v & am) | om with out pointing into the evaluated value array:
/// the same aliasing story as and_to_inplace (the compiler cannot know the
/// mask arrays are disjoint from the out stores), so the masked result is
/// staged in a 4-word register block before the store group.
template <unsigned W>
inline void mask_store(std::uint64_t* out, const std::uint64_t* v,
                       const std::uint64_t* am, const std::uint64_t* om) {
  constexpr unsigned B = W < 4 ? W : 4;
  for (unsigned h = 0; h < W; h += B) {
    std::uint64_t m[B];
    for (unsigned w = 0; w < B; ++w) m[w] = (v[h + w] & am[h + w]) | om[h + w];
    for (unsigned w = 0; w < B; ++w) out[h + w] = m[w];
  }
}
/// Runtime-width variant for cold paths (reset evaluations, mask setup).
inline void mask_to_runtime(std::uint64_t* d, const std::uint64_t* v,
                            const std::uint64_t* am, const std::uint64_t* om,
                            unsigned w_count) {
  for (unsigned w = 0; w < w_count; ++w) d[w] = (v[w] & am[w]) | om[w];
}

}  // namespace lanes

/// A stuck-at fault pinned to one simulation lane (lane 0 is reserved for
/// the fault-free reference).
struct LaneFault {
  NetId net = kNoNet;
  bool stuck_value = false;
  unsigned lane = 1;  // 1 .. 64*lane_words - 1
};

/// The fanin closure of `roots`, stopping at DFF Q pins: a reached DFF's Q
/// net is a member, its D input is not followed. Returns one flag per net
/// (1 = member). A CompiledNetlist built over the result evaluates every
/// root exactly as the whole program does.
std::vector<char> fanin_cone(const Netlist& nl, const std::vector<NetId>& roots);

class CompiledNetlist;

/// The injected faults of a lane run: per-net AND/OR lane masks, W-strided
/// like every per-net array. Net-indexed, so one set serves every program
/// compiled from the same netlist at the same lane width (the full netlist
/// and each observation cone). Owned by the caller, one per worker.
class LaneFaultMasks {
 public:
  LaneFaultMasks(std::size_t num_nets, unsigned lane_words);
  /// Masks sized for `program`'s netlist and lane width.
  explicit LaneFaultMasks(const CompiledNetlist& program);

  std::size_t num_nets() const { return num_nets_; }
  unsigned lane_words() const { return lane_words_; }

  /// Install the lane masks for a fault batch (at most 64*lane_words - 1
  /// faults, lanes 1..64*lane_words-1), replacing any installed batch.
  /// Invalidates every EventScratch evaluated under these masks (its next
  /// evaluate_event() performs a full evaluation).
  void set(const std::vector<LaneFault>& faults);
  /// Back to the identity masks (no faults).
  void clear();

 private:
  friend class CompiledNetlist;
  /// Any non-identity mask word in net's lane group?
  bool lanes_dirty(NetId net) const;

  std::size_t num_nets_ = 0;
  unsigned lane_words_ = 1;
  std::vector<std::uint64_t> and_mask_;  // W-strided per net
  std::vector<std::uint64_t> or_mask_;   // W-strided per net
  std::vector<NetId> dirty_;             // nets with non-identity masks
  std::uint64_t version_ = 1;            // bumped on set/clear
};

/// Resident state of the event-driven evaluator for one program. Owned by
/// the caller (one per worker and program) so the campaign inner loop
/// performs no heap allocation: every vector is sized once on first use
/// and reused across cycles, sessions and fault batches. All counters
/// accumulate until the caller resets them. Word vectors are
/// lane_words-strided per net / term / product, matching the owning
/// CompiledNetlist.
struct EventScratch {
  std::vector<std::uint64_t> values;      // per-net W-word lane groups, resident
  std::vector<std::uint64_t> stamp;       // per-op epoch of last schedule
  std::vector<std::uint32_t> bucket;      // scheduled ops, level-segmented
  std::vector<std::uint32_t> level_fill;  // per-level bucket occupancy
  // Resident state of the dense product sweep, laid out sequentially so the
  // sweep never takes a scattered load on the no-change path: the previous
  // *unmasked* product word group (output masks are applied lazily, only
  // when the raw group changed) plus the AND-node term table (literal slab
  // followed by the shared subproduct word groups).
  std::vector<std::uint64_t> dense_val;
  std::vector<std::uint64_t> dense_terms;
  // Active-fanin sets of the sparse ORs: the edges whose word groups are
  // currently nonzero (any word), maintained by swap-remove at commit time
  // so a wide OR re-evaluates over its few firing products instead of all
  // fanins.
  std::vector<std::uint32_t> or_nz_pool;
  std::vector<std::uint32_t> or_nz_count;
  std::vector<std::uint32_t> or_edge_pos;
  std::uint64_t epoch = 0;
  const void* owner = nullptr;       // CompiledNetlist the state belongs to
  const void* masks = nullptr;       // LaneFaultMasks the values were made under
  std::uint64_t faults_version = 0;  // ... and their version then
  bool valid = false;                // values mirror the last evaluation

  // Activity accounting (incremental + full-eval cycles combined).
  // ops_evaluated is an *event rate*, not a wall-clock cost model: it
  // counts scheduled CSR/bucket op evaluations plus dense products whose
  // resident word group was recomputed to a fresh value (a dense product
  // whose cheap term-table check confirms the old group is not counted).
  std::uint64_t cycles = 0;         // evaluate_event() calls
  std::uint64_t full_evals = 0;     // calls that took the reset path
  std::uint64_t ops_evaluated = 0;  // op evaluations performed (see above)
};

class CompiledNetlist {
 public:
  /// Compiles the whole netlist; requires nl.finalize() to have been
  /// called. `lane_words` selects the lane width (64*lane_words simulation
  /// lanes); throws std::invalid_argument unless it is one of
  /// kSupportedLaneWords.
  explicit CompiledNetlist(const Netlist& nl, unsigned lane_words = 1);
  /// Compiles only the ops whose output net is in `cone` (one flag per
  /// net, as fanin_cone returns). Net ids are the netlist's own; nets
  /// outside the cone are never written. Throws std::invalid_argument when
  /// `cone` has the wrong size or is not fanin-closed (a kept op reads a
  /// net whose driving op is skipped).
  CompiledNetlist(const Netlist& nl, unsigned lane_words,
                  const std::vector<char>& cone);

  std::size_t num_nets() const { return num_nets_; }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_dffs() const { return dffs_.size(); }
  /// uint64_t words per lane group (the W in the W-strided layout).
  unsigned lane_words() const { return lane_words_; }
  /// Simulation lanes per evaluation (64 * lane_words).
  unsigned num_lanes() const { return lane_words_ * 64; }
  /// Combinational ops per full evaluation of this program (the event
  /// engine's activity denominator).
  std::size_t num_ops() const { return ops_.size(); }

  /// D-input net of flip-flop k (dffs() order), for clocking.
  NetId dff_d(std::size_t k) const { return dff_d_[k]; }

  /// Evaluate all 64*lane_words lanes of the program's ops.
  ///   input_lanes: W words per primary-input slot, inputs() order;
  ///   dff_lanes:   W words per flip-flop, dffs() order;
  ///   values:      out, W words per net (size num_nets() * lane_words());
  ///                a cone program leaves the nets outside its cone as they
  ///                were.
  /// `faults` are applied to every net, including inputs/DFFs/consts; when
  /// none are installed the mask pass is skipped entirely. The overload
  /// without masks evaluates the fault-free machine in every lane. Throws
  /// std::invalid_argument when the masks were sized for another netlist
  /// or lane width.
  void evaluate(const LaneFaultMasks& faults, const std::uint64_t* input_lanes,
                const std::uint64_t* dff_lanes, std::uint64_t* values) const;
  void evaluate(const std::uint64_t* input_lanes, const std::uint64_t* dff_lanes,
                std::uint64_t* values) const;

  /// Event-driven evaluation into the scratch's resident `values`. Source
  /// word groups (inputs/DFFs) are diffed against the previous cycle; only
  /// ops in the fanout cones of changed nets are re-evaluated, popped level
  /// by level, and a cone dies out as soon as a recomputed word group
  /// equals its old value (glitch suppression). PLA products run in the
  /// dense sweep instead, skipped entirely on cycles where no product
  /// input changed. Falls back to one full evaluation when the scratch is
  /// fresh, reset() was called, or it was last evaluated under other masks
  /// or before their last set()/clear() -- which makes the result
  /// bit-identical to evaluate() by construction.
  void evaluate_event(const LaneFaultMasks& faults,
                      const std::uint64_t* input_lanes,
                      const std::uint64_t* dff_lanes, EventScratch& s) const;

  /// Invalidate the scratch's resident values: the next evaluate_event()
  /// takes the full-evaluation path. Used at session boundaries (new seeds
  /// rewrite every source word anyway) and by tests.
  void reset(EventScratch& s) const { s.valid = false; }

 private:
  /// The netlist's program record; fanin_begin indexes fanins_.
  using Op = NetOp;
  /// A run of dense products sharing one fanin count: fixed inner trip
  /// counts keep the sweep's loop branches perfectly predicted.
  struct DenseGroup {
    std::uint32_t count;  // products in this group
    std::uint32_t width;  // fanins per product
  };

  static constexpr std::uint32_t kNoOp = UINT32_MAX;
  /// ORs with at least this many fanins use incremental active-fanin sets.
  static constexpr std::uint32_t kSparseOrMinFanins = 16;

  /// The shared compile: every op when `cone` is null.
  void compile(const Netlist& nl, unsigned lane_words,
               const std::vector<char>* cone);
  void check_masks(const LaneFaultMasks& faults) const;
  template <bool kMasked, unsigned W>
  void run_ops(const LaneFaultMasks* faults, std::uint64_t* values) const;
  void evaluate_impl(const LaneFaultMasks* faults, const std::uint64_t* input_lanes,
                     const std::uint64_t* dff_lanes, std::uint64_t* values) const;
  template <unsigned W>
  void evaluate_event_impl(const LaneFaultMasks& faults,
                           const std::uint64_t* input_lanes,
                           const std::uint64_t* dff_lanes, EventScratch& s) const;
  void ensure_scratch(EventScratch& s) const;
  void refresh_dense(EventScratch& s) const;
  void rebuild_or_sets(EventScratch& s) const;

  std::size_t num_nets_ = 0;
  unsigned lane_words_ = 1;
  std::vector<NetId> inputs_;
  std::vector<NetId> dffs_;
  std::vector<NetId> dff_d_;
  std::vector<NetId> const0_, const1_;  // constant nets
  std::vector<Op> ops_;               // levelized combinational program
  std::vector<std::uint32_t> fanins_; // flat fanin pool

  // Event-scheduler compile products.
  std::vector<std::uint32_t> op_of_net_;     // driving op per net (kNoOp: source)
  std::vector<std::uint32_t> op_level_;      // per op, from the topo order
  std::uint32_t num_levels_ = 0;
  std::vector<std::uint32_t> level_base_;    // bucket segment start per level
  // CSR fanout graph over the *non-dense* reader edges (dense products are
  // covered by the dense sweep instead of per-edge scheduling).
  std::vector<std::uint32_t> fanout_offset_; // per-net reader range ...
  std::vector<std::uint32_t> fanout_pool_;   // ... into this flat op-index pool
  // Dense PLA-product sweep (see DESIGN.md). Literal-only products are
  // factored through a shared AND-node table: term slot t < num_slab_ holds
  // literal net slab_net_[t], slot num_slab_+j holds node_a_[j] & node_b_[j]
  // (ids always smaller, so one sequential pass evaluates the table).
  // Products are grouped by final term count (fixed trip counts), followed
  // by product-reading ("chained") products in topo order whose stream
  // entries are raw net ids instead of term slots.
  std::vector<std::uint8_t> dense_;            // per op: member of the sweep
  std::vector<std::uint32_t> slab_net_;        // term slot -> literal net
  std::vector<std::uint16_t> node_a_, node_b_; // shared AND nodes
  std::vector<DenseGroup> dense_groups_;       // AND products
  std::vector<std::uint32_t> dense_out_;       // output net per dense op
  std::vector<std::uint32_t> dense_chain_width_;  // per chained op
  std::vector<std::uint16_t> dense_prog_;      // term slots, then chain net ids
  std::vector<std::uint8_t> is_dense_input_;   // per net: read by a dense op
  // Sparse ORs (see DESIGN.md): per-edge tables so a fanin's zero/nonzero
  // transition updates the reader's active set in O(1) at commit time.
  std::vector<std::uint32_t> sparse_or_of_op_; // per op -> sparse-OR idx / kNoOp
  std::vector<std::uint32_t> or_op_;           // per sparse OR -> op idx
  std::vector<std::uint32_t> or_base_;         // per sparse OR -> first edge
  std::vector<std::uint32_t> edge_net_;        // per edge: the fanin net
  std::vector<std::uint32_t> edge_or_;         // per edge: owning sparse OR
  std::vector<std::uint32_t> sor_offset_;      // per net: range of reading ...
  std::vector<std::uint32_t> sor_edge_;        // ... edges into edge_net_
};

}  // namespace stc
