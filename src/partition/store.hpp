#pragma once
// PartitionStore: an interner + memo-table engine for the partition
// algebra.
//
// Every distinct Partition is stored once and addressed by a dense
// PartitionId. On top of the interned pool the store memoizes the
// expensive lattice and machine operators keyed on id pairs:
//   * join(a, b), meet(a, b)      -- symmetric keys
//   * refines(a, b)               -- ordered key
//   * m_of(pi), M_of(tau)         -- per-id (requires a bound machine)
// Interned ids make equality checks O(1) and let the OSTR search, the
// lattice enumerations and the decomposition engines share one partition
// universe per machine (see DESIGN.md "Interner architecture").
//
// A store is NOT thread-safe and belongs to one caller: nothing may use
// it from two threads at once. Ids are store-relative and must never be
// mixed across stores.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fsm/mealy.hpp"
#include "partition/partition.hpp"

namespace stc {

/// Dense handle into a PartitionStore.
using PartitionId = std::uint32_t;
inline constexpr PartitionId kNoPartition = UINT32_MAX;

class PartitionStore {
 public:
  PartitionStore() = default;
  /// Bind to a machine to enable the m_of / M_of operator caches.
  explicit PartitionStore(const MealyMachine* fsm) : fsm_(fsm) {}

  const MealyMachine* machine() const { return fsm_; }

  /// Intern a partition, returning its dense id (existing id if already
  /// present).
  PartitionId intern(Partition p);

  const Partition& get(PartitionId id) const { return pool_[id]; }
  std::size_t size() const { return pool_.size(); }

  PartitionId identity_id(std::size_t n) { return intern(Partition::identity(n)); }

  /// Memoized lattice join (transitive closure of the union).
  PartitionId join(PartitionId a, PartitionId b);

  /// Memoized lattice meet (common refinement).
  PartitionId meet(PartitionId a, PartitionId b);

  /// Memoized subset ordering: get(a) <= get(b).
  bool refines(PartitionId a, PartitionId b);

  /// Memoized m operator of the bound machine (throws std::logic_error if
  /// no machine is bound).
  PartitionId m_of(PartitionId pi);

  /// Memoized M operator of the bound machine.
  PartitionId M_of(PartitionId tau);

  /// Memoized Definition-4 check: (pi, tau) is a partition pair, i.e.
  /// m(pi) refines tau (Galois connection).
  bool is_pair(PartitionId pi, PartitionId tau) { return refines(m_of(pi), tau); }

  struct OpStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    double hit_rate() const {
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
    OpStats& operator+=(const OpStats& o) {
      lookups += o.lookups;
      hits += o.hits;
      return *this;
    }
    OpStats delta(const OpStats& earlier) const {
      return {lookups - earlier.lookups, hits - earlier.hits};
    }
  };

  struct Stats {
    std::uint64_t interned = 0;  // distinct partitions in the pool
    OpStats join, meet, refines, m_op, M_op;
    /// Counter deltas since `earlier` (for per-run reporting on a
    /// long-lived store). `interned` stays absolute.
    Stats delta(const Stats& earlier) const {
      return {interned,
              join.delta(earlier.join),
              meet.delta(earlier.meet),
              refines.delta(earlier.refines),
              m_op.delta(earlier.m_op),
              M_op.delta(earlier.M_op)};
    }
  };

  Stats stats() const {
    Stats s = stats_;
    s.interned = pool_.size();
    return s;
  }

 private:
  static std::uint64_t symmetric_key(PartitionId a, PartitionId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  static std::uint64_t ordered_key(PartitionId a, PartitionId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  const MealyMachine* fsm_ = nullptr;
  std::vector<Partition> pool_;
  // Intern index: cached partition hash -> candidate ids (collisions are
  // resolved by full comparison against the pool).
  std::unordered_multimap<std::size_t, PartitionId> index_;
  std::unordered_map<std::uint64_t, PartitionId> join_memo_;
  std::unordered_map<std::uint64_t, PartitionId> meet_memo_;
  std::unordered_map<std::uint64_t, bool> refines_memo_;
  // m/M memo, indexed by id (dense; kNoPartition = not yet computed).
  std::vector<PartitionId> m_memo_;
  std::vector<PartitionId> M_memo_;
  Stats stats_;
};

}  // namespace stc
