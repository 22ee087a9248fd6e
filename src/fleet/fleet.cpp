#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "jobs/scheduler.hpp"
#include "util/error.hpp"

namespace stc {

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  // At the boundaries center and half agree exactly in real arithmetic;
  // pin them so rounding residue never reports an impossible bound.
  const double lo = successes == 0 ? 0.0 : std::max(0.0, center - half);
  const double hi = successes == trials ? 1.0 : std::min(1.0, center + half);
  return {lo, hi};
}

double FleetWidthResult::theoretical_alias() const {
  return std::ldexp(1.0, -static_cast<int>(misr_width));
}

void FleetOptions::validate() const {
  std::vector<std::string> problems;
  if (instances == 0) problems.push_back("instances must be > 0");
  if (misr_widths.empty()) problems.push_back("misr_widths must be non-empty");
  // The one plan check, at every width the sweep runs the plan with (each
  // entry replaces output_misr_width); a problem two widths share is
  // listed once.
  SelfTestPlan swept = plan;
  for (std::size_t w : misr_widths) {
    swept.output_misr_width = w;
    const std::string bad = plan_problems(swept);
    if (!bad.empty() &&
        std::find(problems.begin(), problems.end(), bad) == problems.end())
      problems.push_back(bad);
  }
  if (shard_instances == 0) problems.push_back("shard_instances must be > 0");
  if (!lane_words_supported(lane_words))
    problems.push_back("lane_words must be 1, 4 or 8");
  if (pool && jobs > 1)
    problems.push_back(
        "pool-owned fleets must keep jobs == 1 (the scheduler owns the "
        "worker pool; a nested pool would oversubscribe it)");
  if (!problems.empty()) {
    std::string joined;
    for (const std::string& p : problems) {
      if (!joined.empty()) joined += "; ";
      joined += p;
    }
    throw Error(ErrorCode::kInvalidInput, "invalid fleet options", joined);
  }
}

namespace {

/// One sharded pass: simulate `instances` chips under `plan`. Chunk c runs
/// shards c, c + K, ... (K = num_chunks) into one local accumulator under
/// one budget copy, so a cut stops the chunk's remaining shards; the
/// chunks merge in chunk order. Memory is O(chunks), whatever the
/// instance count.
FleetShardStats run_fleet_pass(const ControllerStructure& cs,
                               const SelfTestPlan& plan,
                               CampaignWarmState& warm,
                               const FleetOptions& opt,
                               const FleetDefectSampler& sampler,
                               std::uint64_t instances) {
  const std::uint64_t per_shard = opt.shard_instances;
  const std::uint64_t n_shards = (instances + per_shard - 1) / per_shard;
  // A private pool gets one chunk per thread. On a shared pool up to 8
  // chunks per worker leave idle workers something to steal.
  const std::size_t workers = opt.jobs != 0 ? opt.jobs : hardware_threads();
  const std::size_t num_chunks = static_cast<std::size_t>(std::min<std::uint64_t>(
      n_shards, opt.pool ? 8 * opt.pool->size() : workers));
  std::vector<FleetShardStats> chunk_stats(num_chunks);
  const std::unique_ptr<TaskPool> own_pool =
      opt.pool ? nullptr : make_private_pool(num_chunks);
  run_chunks(opt.pool ? opt.pool : own_pool.get(), num_chunks,
             [&](std::size_t c) {
               Budget bud = opt.budget;  // deadline absolute, cancel shared
               for (std::uint64_t s = c; s < n_shards; s += num_chunks) {
                 const std::uint64_t first = s * per_shard;
                 const std::uint64_t count = std::min(per_shard, instances - first);
                 if (!run_fleet_shard(cs, plan, warm, opt.base_seed, first, count,
                                      sampler, CampaignEngine::kEvent, bud,
                                      chunk_stats[c]))
                   break;
               }
             });

  FleetShardStats total;
  for (const FleetShardStats& s : chunk_stats) total.merge(s);
  return total;
}

}  // namespace

FleetReport run_fleet(const ControllerStructure& cs, const FleetOptions& opt) {
  opt.validate();
  const auto t0 = std::chrono::steady_clock::now();

  FleetReport rep;
  rep.instances_requested = opt.instances;
  rep.base_seed = opt.base_seed;
  {
    std::ostringstream os;
    os << defect_model_name(opt.defects.model) << " (rate " << std::fixed
       << std::setprecision(2) << std::clamp(opt.defects.defect_rate, 0.0, 1.0)
       << ")";
    rep.distribution = os.str();
  }

  const FleetDefectSampler sampler = make_defect_sampler(cs, opt.defects);
  std::uint64_t requested_total = 0;

  for (std::size_t width : opt.misr_widths) {
    SelfTestPlan plan = opt.plan;
    plan.output_misr_width = width;
    std::shared_ptr<CampaignWarmState> warm =
        opt.warm ? opt.warm(width)
                 : make_campaign_warm_state(cs, width, opt.lane_words);
    FleetWidthResult wr;
    wr.misr_width = width;
    wr.stats = run_fleet_pass(cs, plan, *warm, opt, sampler, opt.instances);
    requested_total += opt.instances;
    rep.widths.push_back(std::move(wr));
  }

  if (!opt.curve_cycles.empty() && opt.curve_instances > 0) {
    rep.curve_misr_width = opt.misr_widths.front();
    const std::uint64_t n = std::min(opt.curve_instances, opt.instances);
    std::shared_ptr<CampaignWarmState> warm =
        opt.warm ? opt.warm(rep.curve_misr_width)
                 : make_campaign_warm_state(cs, rep.curve_misr_width,
                                            opt.lane_words);
    for (std::size_t cycles : opt.curve_cycles) {
      SelfTestPlan plan = opt.plan;
      plan.output_misr_width = rep.curve_misr_width;
      for (SessionSpec& s : plan.sessions) s.cycles = cycles;
      FleetCurvePoint pt;
      pt.cycles_per_session = cycles;
      pt.stats = run_fleet_pass(cs, plan, *warm, opt, sampler, n);
      requested_total += n;
      rep.curve.push_back(std::move(pt));
    }
  }

  std::uint64_t simulated_total = rep.instances_simulated();
  for (const FleetCurvePoint& pt : rep.curve)
    simulated_total += pt.stats.instances;

  Budget probe = opt.budget;  // deadline absolute, cancel token shared
  rep.degradation = truncation_label(
      "fleet", simulated_total, requested_total,
      simulated_total < requested_total,
      probe.exhausted() ? probe.reason() : "",
      std::to_string(simulated_total) + "/" + std::to_string(requested_total) +
          " instances simulated -- partial counts are exact");

  rep.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();
  return rep;
}

std::string render_fleet_report(const FleetReport& rep) {
  std::ostringstream os;
  os << "fleet: " << rep.instances_requested
     << " instances per MISR width, base seed 0x" << std::hex << rep.base_seed
     << std::dec << ", defects " << rep.distribution << "\n";

  os << "  width |  empirical alias  |      wilson 95% CI      |     2^-k    "
        "| escape rate | detect\n";
  for (const FleetWidthResult& w : rep.widths) {
    const WilsonInterval ci = w.alias_interval();
    os << "  " << std::setw(5) << w.misr_width << " | " << std::scientific
       << std::setprecision(3) << std::setw(12) << w.alias_probability()
       << "      | [" << w.stats.aliases << "/" << w.stats.po_stream_detected
       << ": " << std::setprecision(2) << ci.lo << ", " << ci.hi << "] | "
       << std::setprecision(3) << w.theoretical_alias() << " | "
       << w.escape_rate() << "   | " << std::fixed << std::setprecision(4)
       << w.detection_rate() << "\n";
    os.unsetf(std::ios::floatfield);
  }

  // Signature-histogram spread of the first width: a cheap uniformity
  // check on the compaction (a healthy MISR spreads defective signatures
  // evenly over the 64 buckets).
  if (!rep.widths.empty() && rep.widths.front().stats.defective > 0) {
    const auto& h = rep.widths.front().stats.signature_histogram;
    std::uint64_t lo = h[0], hi = h[0];
    for (std::uint64_t b : h) {
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    os << "  signature histogram (width " << rep.widths.front().misr_width
       << ", 64 buckets): min " << lo << ", max " << hi << "\n";
  }

  if (!rep.curve.empty()) {
    os << "  test-length curve (MISR width " << rep.curve_misr_width << "):\n";
    os << "    cycles/session   detect    alias\n";
    for (const FleetCurvePoint& pt : rep.curve) {
      os << "    " << std::setw(14) << pt.cycles_per_session << "   "
         << std::fixed << std::setprecision(4) << pt.detection_rate() << "   "
         << std::scientific << std::setprecision(2) << pt.alias_probability()
         << "\n";
      os.unsetf(std::ios::floatfield);
    }
  }

  if (rep.degradation.degraded)
    os << "  " << render_degradation(rep.degradation) << "\n";

  std::uint64_t sim = rep.instances_simulated();
  for (const FleetCurvePoint& pt : rep.curve) sim += pt.stats.instances;
  os << "  simulated " << sim << " instances in " << std::fixed
     << std::setprecision(2) << rep.seconds << " s";
  if (rep.seconds > 0.0)
    os << " (" << std::setprecision(0)
       << static_cast<double>(sim) / rep.seconds << " instances/s)";
  os << "\n";
  return os.str();
}

}  // namespace stc
