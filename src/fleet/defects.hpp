#pragma once
// Pluggable per-instance defect distributions for the fleet simulator.
//
// A sampler is a PURE function of the chip-instance id: the fleet kernel
// calls it in whatever order shards retire, and the bit-identical-
// aggregates contract (same counts at every --jobs value and shard size)
// holds only because instance i always samples the same defect set.

#include <cstdint>
#include <string>

#include "bist/session.hpp"

namespace stc {

enum class DefectModel {
  /// Every chip is good: measures the false-alarm floor of the flow (all
  /// observability counters must stay zero).
  kFaultFree,
  /// A defective chip carries ONE stuck-at fault drawn uniformly from the
  /// structure's fault universe -- the classical single-fault assumption.
  kSingleUniform,
  /// A defective chip carries a structural cluster: 1..8 faults on
  /// distinct nets adjacent in enumeration order (netlist locality), with
  /// a geometric cluster size. Models spot defects hitting a region.
  kClustered,
};

/// Parse "fault_free" / "single_uniform" / "clustered" (the drivers'
/// --distribution flag); throws Error(kInvalidInput) on anything else.
DefectModel parse_defect_model(const std::string& name);
const char* defect_model_name(DefectModel model);

struct DefectSpec {
  DefectModel model = DefectModel::kSingleUniform;
  /// Probability that an instance is defective at all (clamped to [0,1]).
  double defect_rate = 1.0;
  /// Clustered model: mean faults per defective chip.
  double cluster_mean = 3.0;
  /// Sampler derivation seed -- independent of the BIST seed stream, so
  /// the same fleet can be re-tested against a fixed defect population.
  std::uint64_t seed = 0xDEF3C7;
};

/// Build a sampler over the structure's stuck-at fault universe. The
/// returned callable owns a shared copy of the fault list and derives one
/// deterministic Rng per instance, so it is safe to call concurrently
/// from many shards.
FleetDefectSampler make_defect_sampler(const ControllerStructure& cs,
                                       const DefectSpec& spec);

}  // namespace stc
