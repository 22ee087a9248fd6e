#pragma once
// Content-keyed artifact cache: the one build path of the Section-2 flow,
// shared by sweeps, daemon and fleet jobs, and private to each run_flow.
// Five levels, each keyed on everything that determines its artifact and
// nothing else (see DESIGN.md "Cache keying and invalidation"):
//
//   machine    name -> { MealyMachine, fingerprint, EncodedFsm }
//   ostr       machine entry -> OSTR result, realization, verification
//   block      (machine entry, minimizer, tech) -> the combined block C
//              (espresso + factoring) of the fig1-fig3 structures
//   structure  (content fingerprint, arch, tech, minimizer) -> built
//              ControllerStructure
//   warm       (structure identity, MISR width) -> compiled lane program
//              + scratch free-list (bist/session warm state)
//
// Every level keeps one build-once rule (build_once). A caller is served
// what is already built for its key (a hit) or builds it under its own
// budget (a miss). An artifact truncated by a deadline or a cancel, or
// built under a work allowance, is budget-bound: it goes in the key's one
// tagged slot and is served only under a budget with the same limits
// (Budget::same_limits), until the next budget-bound build replaces it.
// Everything else -- complete artifacts, and OSTR's deterministic
// max_nodes cap -- is shared with every caller and immutable; eviction or
// a process restart is the only flush. Blocks and OSTR entries live in
// their machine entry and are never evicted.
//
// max_entries bounds the structure + warm maps (0 = unbounded) with LRU
// eviction of unpinned slots: none held by a caller or leased outside the
// cache, and warm entries go before the structure they point into. A
// tagged structure gets an uncached warm state, since it may be replaced.
// Thread-safe; counters are monotonic and stats() may be read while jobs
// run.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "encoding/encoded_fsm.hpp"
#include "ostr/verify.hpp"
#include "synth/flow.hpp"

namespace stc {

/// Which of the paper's controller structures a job builds.
enum class ArchKind : std::uint8_t { kFig1, kFig2, kFig3, kFig4 };

const char* arch_name(ArchKind arch);
/// Parse "fig1".."fig4"; throws Error(kInvalidInput) otherwise.
ArchKind parse_arch(const std::string& name);

struct JobCacheStats {
  std::size_t machine_hits = 0, machine_misses = 0;
  std::size_t ostr_hits = 0, ostr_misses = 0;
  std::size_t block_hits = 0, block_misses = 0;
  std::size_t structure_hits = 0, structure_misses = 0;
  std::size_t warm_hits = 0, warm_misses = 0;
  /// Warm-scratch reuse across all warm states (campaign-level hot starts).
  std::size_t scratch_reuses = 0;
  /// LRU evictions (bounded caches only; 0 under the unbounded default).
  std::size_t structure_evictions = 0, warm_evictions = 0;

  std::size_t hits() const {
    return machine_hits + ostr_hits + block_hits + structure_hits + warm_hits;
  }
  std::size_t misses() const {
    return machine_misses + ostr_misses + block_misses + structure_misses +
           warm_misses;
  }
  double hit_rate() const {
    const std::size_t total = hits() + misses();
    return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
  }
};

class JobCache {
 public:
  /// One key's artifacts: the value shared with every caller, and at most
  /// one budget-bound value with the budget it was built under (its tag).
  /// Written under `mu` and the cache's map mutex; see build_once().
  template <typename T>
  struct Slot {
    std::mutex mu;
    std::shared_ptr<T> shared;
    std::shared_ptr<T> tagged;
    Budget tag;
    std::uint64_t last_use = 0;  // LRU stamp of map entries, updated under mu_
  };

  struct OstrEntry {
    OstrResult ostr;
    Realization realization;  // from the best OSTR solution
    VerifyReport verification;
  };

  struct MachineEntry {
    MealyMachine fsm;
    std::uint64_t fingerprint = 0;
    EncodedFsm encoded;  // natural encoding, shared by fig1-fig3 builds
    Slot<OstrEntry> ostr;
    std::array<Slot<MinimizedBlock>, 3 * 2> blocks;  // [minimizer][tech]
  };

  struct StructureEntry {
    ControllerStructure cs;  // stable address: warm states point at it
    bool tagged = false;     // budget-bound: served only under its budget
  };

  /// `max_entries` bounds structures + warms together (0 = unbounded).
  explicit JobCache(std::size_t max_entries = 0) : max_entries_(max_entries) {}
  JobCache(const JobCache&) = delete;
  JobCache& operator=(const JobCache&) = delete;

  std::size_t max_entries() const { return max_entries_; }

  /// Load + encode a corpus machine (or any machine via `loader`); cached
  /// by name, fingerprinted on first load. The returned pointer is stable
  /// for the cache's lifetime. `hit` (when given) reports whether the
  /// entry was already built -- the per-job cache flags of the corpus
  /// report.
  std::shared_ptr<MachineEntry> machine(
      const std::string& name,
      const std::function<MealyMachine(const std::string&)>& loader =
          [](const std::string& n) { return load_benchmark(n); },
      bool* hit = nullptr);

  /// OSTR + realization + verification for a machine, searched under
  /// `options`. The entry is keyed on the machine only: every caller of
  /// one cache passes the same node cap.
  std::shared_ptr<const OstrEntry> ensure_ostr(MachineEntry& m, const OstrOptions& options);

  /// The combined block of `m.encoded` for (minimizer, tech), minimized
  /// (and factored) under `budget`.
  std::shared_ptr<const MinimizedBlock> block(MachineEntry& m, MinimizerKind minimizer,
                                              Technology tech, const Budget& budget);

  /// Build (or fetch) one controller structure under `budget`; fig1-fig3
  /// are built from block(), fig4 from ensure_ostr(), with the OSTR label
  /// first when the search was truncated. A fig4 lookup is tagged with
  /// `budget`, so `ostr_options.budget` should set the same limits.
  std::shared_ptr<StructureEntry> structure(const std::shared_ptr<MachineEntry>& m,
                                            ArchKind arch, Technology tech,
                                            MinimizerKind minimizer,
                                            const OstrOptions& ostr_options,
                                            const Budget& budget,
                                            bool* hit = nullptr);

  /// Compiled lane program + scratch free-list for a cached structure, at
  /// the kernel's default width (kMaxLaneWords). Keyed (and parameterized)
  /// on exactly (structure, MISR width): callers pass
  /// plan.output_misr_width, and because the warm state cannot consume
  /// anything else from a plan (its constructor does not see one), plans
  /// differing in sessions/cycles/seeds share entries safely. A tagged
  /// structure gets a fresh, uncached warm state.
  std::shared_ptr<CampaignWarmState> warm(const std::shared_ptr<StructureEntry>& s,
                                          std::size_t output_misr_width,
                                          bool* hit = nullptr);

  JobCacheStats stats() const;

 private:
  using StructKey = std::tuple<std::uint64_t, ArchKind, Technology, MinimizerKind>;
  using WarmKey = std::pair<std::uintptr_t, std::size_t>;  // structure address

  using Counter = std::size_t JobCacheStats::*;

  /// The build-once rule of every level: serve `slot`'s shared value, or
  /// its tagged value when `budget` sets the tag's limits (a hit), or else
  /// build() under the slot's mutex (a miss) and publish the result --
  /// tagged when budget-bound, shared otherwise.
  template <typename T, typename Build>
  std::shared_ptr<T> build_once(Slot<T>& slot, const Budget& budget, Counter hits,
                                Counter misses, bool* hit, Build build);

  /// The map slot of `key`, created on first use and stamped for the LRU.
  template <typename Map, typename Key>
  typename Map::mapped_type slot_of(Map& map, const Key& key);

  /// Evict LRU unpinned entries until the structure+warm maps fit
  /// max_entries_ (call with mu_ held). Warm entries go first; a structure
  /// is only evicted once no warm entry points into it.
  void evict_locked();

  mutable std::mutex mu_;  // guards the maps, the counters and slot publication
  std::size_t max_entries_ = 0;
  std::uint64_t lru_tick_ = 0;
  /// scratch_reuses accumulated by warm states evicted from all_warms_
  /// (the counter is monotonic even across evictions).
  std::size_t evicted_scratch_reuses_ = 0;
  std::unordered_map<std::string, std::shared_ptr<Slot<MachineEntry>>> machines_;
  std::map<StructKey, std::shared_ptr<Slot<StructureEntry>>> structures_;
  std::map<WarmKey, std::shared_ptr<Slot<CampaignWarmState>>> warms_;
  std::vector<std::shared_ptr<CampaignWarmState>> all_warms_;  // for stats
  JobCacheStats stats_;
};

}  // namespace stc
