#include "jobs/cache.hpp"

#include <algorithm>

#include "encoding/encoding.hpp"
#include "ostr/ostr.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace stc {

const char* arch_name(ArchKind arch) {
  switch (arch) {
    case ArchKind::kFig1: return "fig1";
    case ArchKind::kFig2: return "fig2";
    case ArchKind::kFig3: return "fig3";
    case ArchKind::kFig4: return "fig4";
  }
  return "?";
}

ArchKind parse_arch(const std::string& name) {
  if (name == "fig1") return ArchKind::kFig1;
  if (name == "fig2") return ArchKind::kFig2;
  if (name == "fig3") return ArchKind::kFig3;
  if (name == "fig4") return ArchKind::kFig4;
  throw Error(ErrorCode::kInvalidInput, "unknown architecture",
              "arch=" + name + "; expected fig1..fig4");
}

namespace {

// A truncation that depends on when the builder stopped, not on what it
// asked for: the artifact is only valid for that builder's budget.
bool cut_short(const Degradation& d) {
  return d.degraded && (d.reason == "deadline" || d.reason == "cancelled");
}
bool cut_short(const std::vector<Degradation>& labels) {
  return std::any_of(labels.begin(), labels.end(),
                     [](const Degradation& d) { return cut_short(d); });
}
bool cut_short(const JobCache::MachineEntry&) { return false; }
bool cut_short(const JobCache::OstrEntry& o) { return cut_short(o.ostr.degradation); }
bool cut_short(const MinimizedBlock& b) { return cut_short(b.degradations); }
bool cut_short(const JobCache::StructureEntry& s) { return cut_short(s.cs.degradations); }
bool cut_short(const CampaignWarmState&) { return false; }

/// Budget-bound: cut short, or built under a work allowance (whose units
/// each stage counts its own way, so the result is that budget's alone).
template <typename T>
bool budget_bound(const T& artifact, const Budget& budget) {
  return budget.work_allowance() != UINT64_MAX || cut_short(artifact);
}

}  // namespace

template <typename T, typename Build>
std::shared_ptr<T> JobCache::build_once(Slot<T>& slot, const Budget& budget, Counter hits,
                                        Counter misses, bool* hit, Build build) {
  std::lock_guard<std::mutex> lock(slot.mu);
  std::shared_ptr<T> v = slot.shared;
  if (!v && slot.tagged && slot.tag.same_limits(budget)) v = slot.tagged;
  {
    std::lock_guard<std::mutex> stats_lock(mu_);
    ++(stats_.*(v ? hits : misses));
  }
  if (hit != nullptr) *hit = v != nullptr;
  if (v) return v;
  // A build that throws publishes nothing: the slot stays as it was, so a
  // retried job rebuilds cleanly (and counts a miss again).
  v = build();
  std::lock_guard<std::mutex> publish(mu_);
  if (budget_bound(*v, budget)) {
    slot.tagged = v;
    slot.tag = budget;
  } else {
    slot.shared = v;
    slot.tagged.reset();  // never served again
  }
  return v;
}

template <typename Map, typename Key>
typename Map::mapped_type JobCache::slot_of(Map& map, const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& s = map[key];
  if (!s) s = std::make_shared<typename Map::mapped_type::element_type>();
  s->last_use = ++lru_tick_;
  auto slot = s;
  evict_locked();
  return slot;
}

std::shared_ptr<JobCache::MachineEntry> JobCache::machine(
    const std::string& name,
    const std::function<MealyMachine(const std::string&)>& loader, bool* hit) {
  return build_once(*slot_of(machines_, name), Budget(), &JobCacheStats::machine_hits,
                    &JobCacheStats::machine_misses, hit, [&] {
                      // Injection site: an armed failure surfaces as
                      // Error(kIo) before anything is published.
                      fault_point("cache.machine.build");
                      auto e = std::make_shared<MachineEntry>();
                      e->fsm = loader(name);
                      e->fsm.validate();
                      e->fingerprint = machine_fingerprint(e->fsm);
                      e->encoded = encode_fsm(e->fsm, natural_encoding(e->fsm.num_states()));
                      return e;
                    });
}

std::shared_ptr<const JobCache::OstrEntry> JobCache::ensure_ostr(MachineEntry& m,
                                                                 const OstrOptions& options) {
  return build_once(m.ostr, options.budget, &JobCacheStats::ostr_hits,
                    &JobCacheStats::ostr_misses, nullptr, [&] {
                      auto e = std::make_shared<OstrEntry>();
                      e->ostr = solve_ostr(m.fsm, options);
                      e->realization =
                          build_realization(m.fsm, e->ostr.best.pi, e->ostr.best.tau);
                      e->verification = verify_realization(m.fsm, e->realization);
                      return e;
                    });
}

std::shared_ptr<const MinimizedBlock> JobCache::block(MachineEntry& m, MinimizerKind minimizer,
                                                      Technology tech, const Budget& budget) {
  return build_once(
      m.blocks.at(static_cast<std::size_t>(minimizer) * 2 + static_cast<std::size_t>(tech)),
      budget, &JobCacheStats::block_hits, &JobCacheStats::block_misses, nullptr, [&] {
        return std::make_shared<MinimizedBlock>(
            minimize_combined(m.encoded, minimizer, tech, budget));
      });
}

std::shared_ptr<JobCache::StructureEntry> JobCache::structure(
    const std::shared_ptr<MachineEntry>& m, ArchKind arch, Technology tech,
    MinimizerKind minimizer, const OstrOptions& ostr_options,
    const Budget& budget, bool* hit) {
  return build_once(*slot_of(structures_, StructKey{m->fingerprint, arch, tech, minimizer}), budget, &JobCacheStats::structure_hits,
                    &JobCacheStats::structure_misses, hit, [&] {
                      fault_point("cache.structure.build");
                      auto e = std::make_shared<StructureEntry>();
                      if (arch == ArchKind::kFig4) {
                        const auto o = ensure_ostr(*m, ostr_options);
                        e->cs = build_fig4(m->fsm, o->realization, minimizer, tech, budget);
                        if (o->ostr.degradation.degraded)
                          e->cs.degradations.insert(e->cs.degradations.begin(),
                                                    o->ostr.degradation);
                      } else {
                        const auto b = block(*m, minimizer, tech, budget);
                        e->cs = arch == ArchKind::kFig1   ? build_fig1(m->encoded, *b)
                                : arch == ArchKind::kFig2 ? build_fig2(m->encoded, *b)
                                                          : build_fig3(m->encoded, *b, budget);
                      }
                      e->tagged = budget_bound(*e, budget);
                      return e;
                    });
}

std::shared_ptr<CampaignWarmState> JobCache::warm(
    const std::shared_ptr<StructureEntry>& s, std::size_t output_misr_width,
    bool* hit) {
  if (s->tagged) {
    // The next budget-bound build of its key may free this structure, and
    // a warm entry keyed on its address would then outlive it.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.warm_misses;
    if (hit != nullptr) *hit = false;
    return make_campaign_warm_state(s->cs, output_misr_width, kMaxLaneWords);
  }
  const WarmKey key{reinterpret_cast<std::uintptr_t>(s.get()), output_misr_width};
  return build_once(*slot_of(warms_, key), Budget(), &JobCacheStats::warm_hits,
                    &JobCacheStats::warm_misses, hit, [&] {
                      auto w = make_campaign_warm_state(s->cs, output_misr_width, kMaxLaneWords);
                      std::lock_guard<std::mutex> lock(mu_);
                      all_warms_.push_back(w);
                      return w;
                    });
}

void JobCache::evict_locked() {
  if (max_entries_ == 0) return;
  while (structures_.size() + warms_.size() > max_entries_) {
    // Warm entries go first: cheapest to rebuild, and a structure may only
    // leave once nothing compiled points into it. Pinned = a caller holds
    // the slot (it is being looked up or built) or leases its value
    // (use_count beyond our own references: the slot plus, for warms, the
    // all_warms_ stats list).
    auto wv = warms_.end();
    for (auto it = warms_.begin(); it != warms_.end(); ++it) {
      const auto& slot = it->second;
      if (slot.use_count() > 1 || !slot->shared || slot->shared.use_count() > 2) continue;
      if (wv == warms_.end() || slot->last_use < wv->second->last_use) wv = it;
    }
    if (wv != warms_.end()) {
      // Keep the monotonic scratch counter before the state is destroyed.
      evicted_scratch_reuses_ += campaign_warm_reuses(*wv->second->shared);
      all_warms_.erase(std::remove(all_warms_.begin(), all_warms_.end(),
                                   wv->second->shared),
                       all_warms_.end());
      warms_.erase(wv);
      ++stats_.warm_evictions;
      continue;
    }
    auto sv = structures_.end();
    for (auto it = structures_.begin(); it != structures_.end(); ++it) {
      const auto& slot = it->second;
      if (slot.use_count() > 1 || (!slot->shared && !slot->tagged) ||
          slot->shared.use_count() > 1 || slot->tagged.use_count() > 1)
        continue;
      // A warm entry keyed on this structure still exists (it was pinned,
      // or younger): the compiled program references the structure's
      // netlist, so the structure must stay.
      const auto address = reinterpret_cast<std::uintptr_t>(slot->shared.get());
      const auto w = warms_.lower_bound(WarmKey{address, 0});
      if (w != warms_.end() && w->first.first == address) continue;
      if (sv == structures_.end() || slot->last_use < sv->second->last_use)
        sv = it;
    }
    if (sv == structures_.end()) break;  // everything left is pinned
    structures_.erase(sv);
    ++stats_.structure_evictions;
  }
}

JobCacheStats JobCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JobCacheStats s = stats_;
  s.scratch_reuses += evicted_scratch_reuses_;
  for (const auto& w : all_warms_) s.scratch_reuses += campaign_warm_reuses(*w);
  return s;
}

}  // namespace stc
