#include "fleet/defects.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace stc {

DefectModel parse_defect_model(const std::string& name) {
  if (name == "fault_free") return DefectModel::kFaultFree;
  if (name == "single_uniform") return DefectModel::kSingleUniform;
  if (name == "clustered") return DefectModel::kClustered;
  throw Error(ErrorCode::kInvalidInput, "unknown defect distribution",
              "distribution=" + name +
                  "; expected fault_free|single_uniform|clustered");
}

const char* defect_model_name(DefectModel model) {
  switch (model) {
    case DefectModel::kFaultFree: return "fault_free";
    case DefectModel::kSingleUniform: return "single_uniform";
    case DefectModel::kClustered: return "clustered";
  }
  return "?";
}

FleetDefectSampler make_defect_sampler(const ControllerStructure& cs,
                                       const DefectSpec& spec) {
  if (spec.model == DefectModel::kFaultFree)
    return [](std::uint64_t, std::vector<Fault>&) {};

  auto universe =
      std::make_shared<const std::vector<Fault>>(enumerate_stuck_faults(cs.nl));
  if (universe->empty())
    return [](std::uint64_t, std::vector<Fault>&) {};
  const double rate = std::clamp(spec.defect_rate, 0.0, 1.0);
  const DefectModel model = spec.model;
  const double mean = std::max(1.0, spec.cluster_mean);
  const std::uint64_t seed = spec.seed;

  return [universe, rate, model, mean, seed](std::uint64_t instance,
                                             std::vector<Fault>& out) {
    // One deterministic generator per instance: sampling is a pure
    // function of the id, independent of shard boundaries and call order.
    Rng rng(hash_combine(seed, instance));
    if (!rng.chance(rate)) return;
    const std::vector<Fault>& faults = *universe;
    const std::size_t n = faults.size();
    if (model == DefectModel::kSingleUniform) {
      out.push_back(faults[static_cast<std::size_t>(rng.below(n))]);
      return;
    }
    // Clustered: a geometric count of faults on DISTINCT nets adjacent in
    // enumeration order (faults are enumerated net-major, so adjacency is
    // structural locality). Distinct nets keep the injected stuck-at
    // masks conflict-free on the instance's lane.
    std::size_t count = 1;
    while (count < 8 && rng.chance(1.0 - 1.0 / mean)) ++count;
    const std::size_t center = static_cast<std::size_t>(rng.below(n));
    for (std::size_t step = 0; step < n && count > 0; ++step) {
      const Fault& f = faults[(center + step) % n];
      bool net_taken = false;
      for (const Fault& have : out)
        if (have.net == f.net) {
          net_taken = true;
          break;
        }
      if (net_taken) continue;
      out.push_back(f);
      --count;
    }
  };
}

}  // namespace stc
