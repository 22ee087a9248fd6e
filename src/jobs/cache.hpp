#pragma once
// Content-keyed artifact cache for campaign jobs.
//
// Four levels, each keyed on everything that determines its artifact and
// nothing else (see DESIGN.md "Cache keying and invalidation"):
//
//   machine    name -> { MealyMachine, fingerprint, EncodedFsm }
//              plus lazily the OSTR result / realization / verification
//              (only fig4 jobs pay for the search);
//   block      (machine entry, minimizer, tech) -> the combined block C
//              (espresso + factoring), built lazily and shared by the
//              fig1-fig3 structures of that machine;
//   structure  (fingerprint, arch, tech, minimizer) -> built
//              ControllerStructure;
//   warm       (structure identity, lane_words, MISR width) -> compiled
//              lane program + scratch free-list (bist/session warm state).
//
// The structure key uses the machine's CONTENT fingerprint, not its name:
// identical machines share entries however they were loaded, and a
// same-named but different machine can never collide. Entries are
// immutable once built (there is no invalidation to get wrong: a new
// machine content is a new key); eviction or a process restart is the
// only flush.
//
// Blocks live in their machine entry and are never evicted: a bounded
// cache that drops a fig1-fig3 structure rebuilds it from the kept block.
//
// Long-lived (daemon) use: max_entries bounds the structure + warm maps
// with LRU eviction of UNPINNED entries -- an entry currently leased by a
// running job (its shared_ptr is held outside the cache) is never evicted,
// and warm entries are always evicted before (and together with) the
// structure they point into, so no compiled program can dangle. 0 =
// unbounded (the one-shot drivers' default). Eviction counters are
// reported in stats().
//
// Thread-safe: concurrent jobs requesting the same entry serialize on a
// per-entry build mutex -- exactly one builds, the rest wait and count a
// hit. All counters are monotonic; stats() may be read while jobs run.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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
  struct MachineEntry {
    MealyMachine fsm;
    std::uint64_t fingerprint = 0;
    EncodedFsm encoded;  // natural encoding, shared by fig1-fig3 builds

    // OSTR artifacts, built lazily under ostr_mu (fig4 only).
    std::mutex ostr_mu;
    bool ostr_built = false;
    OstrResult ostr;
    Realization realization;
    VerifyReport verification;

    // Combined blocks of `encoded` (fig1-fig3), one slot per (minimizer,
    // tech), each built lazily under its own mutex (see block()).
    struct BlockSlot {
      std::mutex mu;
      bool built = false;
      MinimizedBlock block;
    };
    std::array<BlockSlot, 3 * 2> blocks;  // [minimizer][tech]
  };

  struct StructureEntry {
    ControllerStructure cs;  // stable address: warm states point at it
  };

  /// `max_entries` bounds structures + warms together (0 = unbounded).
  explicit JobCache(std::size_t max_entries = 0) : max_entries_(max_entries) {}
  JobCache(const JobCache&) = delete;
  JobCache& operator=(const JobCache&) = delete;

  std::size_t max_entries() const { return max_entries_; }

  /// Load + encode a corpus machine (or any machine via `loader`); cached
  /// by name, fingerprinted on first load. The returned pointer is stable
  /// for the cache's lifetime. `hit` (when given) reports whether the
  /// entry pre-existed -- the per-job cache flags of the corpus report.
  std::shared_ptr<MachineEntry> machine(
      const std::string& name,
      const std::function<MealyMachine(const std::string&)>& loader =
          [](const std::string& n) { return load_benchmark(n); },
      bool* hit = nullptr);

  /// OSTR + realization + verification for a machine, computed once under
  /// `options` by the first caller (later callers reuse it regardless of
  /// their own options -- budget included; see DESIGN.md).
  void ensure_ostr(MachineEntry& m, const OstrOptions& options);

  /// The combined block of `m.encoded` for (minimizer, tech), minimized
  /// (and factored) once by the first caller under its `budget`; later
  /// callers reuse it regardless of their own budget. The reference stays
  /// valid while `m` lives.
  const MinimizedBlock& block(MachineEntry& m, MinimizerKind minimizer,
                              Technology tech, const Budget& budget);

  /// Build (or fetch) one controller structure; fig1-fig3 are built from
  /// block(). `budget` governs only the first build; the cached artifact
  /// is returned bit-identically to every later caller.
  std::shared_ptr<StructureEntry> structure(const std::shared_ptr<MachineEntry>& m,
                                            ArchKind arch, Technology tech,
                                            MinimizerKind minimizer,
                                            const OstrOptions& ostr_options,
                                            const Budget& budget,
                                            bool* hit = nullptr);

  /// Compiled lane program + scratch free-list for a cached structure.
  /// Keyed (and parameterized) on exactly (structure, lane_words, MISR
  /// width): callers pass plan.output_misr_width, and because the warm
  /// state cannot consume anything else from a plan (its constructor does
  /// not see one), plans differing in sessions/cycles/seeds share entries
  /// safely.
  std::shared_ptr<CampaignWarmState> warm(const std::shared_ptr<StructureEntry>& s,
                                          std::size_t output_misr_width,
                                          unsigned lane_words,
                                          bool* hit = nullptr);

  JobCacheStats stats() const;

 private:
  struct StructKey {
    std::uint64_t fingerprint;
    ArchKind arch;
    Technology tech;
    MinimizerKind minimizer;
    bool operator==(const StructKey& o) const {
      return fingerprint == o.fingerprint && arch == o.arch && tech == o.tech &&
             minimizer == o.minimizer;
    }
  };
  struct StructKeyHash {
    std::size_t operator()(const StructKey& k) const;
  };
  struct WarmKey {
    const StructureEntry* structure;
    unsigned lane_words;
    std::size_t misr_width;
    bool operator==(const WarmKey& o) const {
      return structure == o.structure && lane_words == o.lane_words &&
             misr_width == o.misr_width;
    }
  };
  struct WarmKeyHash {
    std::size_t operator()(const WarmKey& k) const;
  };

  template <typename Entry>
  struct Slot {
    std::mutex build_mu;
    bool built = false;
    std::shared_ptr<Entry> value;
    std::uint64_t last_use = 0;  // LRU stamp, updated under mu_
  };

  /// Evict LRU unpinned entries until the structure+warm maps fit
  /// max_entries_ (call with mu_ held). Warm entries go first; a structure
  /// is only evicted once no warm entry points into it.
  void evict_locked();

  mutable std::mutex mu_;  // guards the maps and the counters
  std::size_t max_entries_ = 0;
  std::uint64_t lru_tick_ = 0;
  /// scratch_reuses accumulated by warm states evicted from all_warms_
  /// (the counter is monotonic even across evictions).
  std::size_t evicted_scratch_reuses_ = 0;
  std::unordered_map<std::string, std::shared_ptr<Slot<MachineEntry>>> machines_;
  std::unordered_map<StructKey, std::shared_ptr<Slot<StructureEntry>>,
                     StructKeyHash>
      structures_;
  std::unordered_map<WarmKey, std::shared_ptr<Slot<CampaignWarmState>>,
                     WarmKeyHash>
      warms_;
  std::vector<std::shared_ptr<CampaignWarmState>> all_warms_;  // for stats
  JobCacheStats stats_;
};

}  // namespace stc
