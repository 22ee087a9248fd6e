// Fleet simulator + LFSR tap-table tests:
//   * primitive_taps covers every width 1..64, each polynomial is
//     irreducible over GF(2) (necessary for primitivity), and a sampled
//     subset walks its full 2^w - 1 period empirically;
//   * fleet seed derivation is collision-free and never trips the
//     zero-seed coercion;
//   * the empirical alias probability of a k-bit MISR on random error
//     streams converges to 2^-k (the paper's compaction bound);
//   * fleet aggregates are bit-identical across worker counts and shard
//     sizes, budgets truncate with labels, and fleet jobs round-trip
//     through the orchestrator and the spool format.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>

#include "bist/bilbo.hpp"
#include "fleet/fleet.hpp"
#include "jobs/orchestrator.hpp"
#include "jobs/queue.hpp"
#include "util/rng.hpp"
#include "engine_names.hpp"

namespace stc {
namespace {

// --- GF(2) polynomial helpers (for the irreducibility check) ---------------

using u128 = unsigned __int128;

int poly_degree(u128 p) {
  int d = -1;
  while (p) {
    ++d;
    p >>= 1;
  }
  return d;
}

u128 poly_mod(u128 a, u128 m) {
  const int dm = poly_degree(m);
  for (int d = poly_degree(a); d >= dm; d = poly_degree(a))
    a ^= m << (d - dm);
  return a;
}

u128 poly_mulmod(u128 a, u128 b, u128 m) {
  u128 r = 0;
  while (b) {
    if (b & 1) r ^= a;
    b >>= 1;
    a <<= 1;
    if (poly_degree(a) >= poly_degree(m)) a = poly_mod(a, m);
  }
  return poly_mod(r, m);
}

u128 poly_gcd(u128 a, u128 b) {
  while (b) {
    const u128 t = poly_mod(a, b);
    a = b;
    b = t;
  }
  return a;
}

/// x^(2^n) mod m via n repeated squarings.
u128 poly_x_pow_pow2(unsigned n, u128 m) {
  u128 t = poly_mod(2, m);  // x
  for (unsigned i = 0; i < n; ++i) t = poly_mulmod(t, t, m);
  return t;
}

/// Ben-Or irreducibility over GF(2): x^(2^w) == x (mod p), and for every
/// prime q | w, gcd(x^(2^(w/q)) - x, p) == 1.
bool gf2_irreducible(u128 p, unsigned w) {
  if (poly_x_pow_pow2(w, p) != poly_mod(2, p)) return false;
  for (unsigned q = 2; q <= w; ++q) {
    if (w % q != 0) continue;
    bool prime = true;
    for (unsigned d = 2; d * d <= q; ++d)
      if (q % d == 0) prime = false;
    if (!prime) continue;
    const u128 sub = poly_x_pow_pow2(w / q, p) ^ poly_mod(2, p);
    if (poly_degree(poly_gcd(sub, p)) > 0) return false;
  }
  return true;
}

/// The characteristic polynomial of a width-w tap set: x^w + sum of x^t
/// over the non-leading taps + 1.
u128 taps_polynomial(unsigned w, const std::vector<unsigned>& taps) {
  u128 p = (u128{1} << w) | 1;
  for (unsigned t : taps)
    if (t != w) p |= u128{1} << t;
  return p;
}

// --- satellite (a): the tap table covers widths 1..64 ----------------------

TEST(FleetLfsr, TapsCoverEveryWidthUpTo64) {
  for (unsigned w = 1; w <= 64; ++w) {
    const std::vector<unsigned> taps = primitive_taps(w);
    ASSERT_FALSE(taps.empty()) << "width " << w;
    // The leading tap (the register length) must be present and every tap
    // must lie in [1, w].
    bool has_leading = false;
    for (unsigned t : taps) {
      EXPECT_GE(t, 1u) << "width " << w;
      EXPECT_LE(t, w) << "width " << w;
      has_leading |= (t == w);
    }
    EXPECT_TRUE(has_leading) << "width " << w;
    // Every width must instantiate the whole register family.
    EXPECT_NO_THROW({ Bilbo reg(w); (void)reg; }) << "width " << w;
    EXPECT_NO_THROW({ LaneBilbo lanes(w, 1); (void)lanes; }) << "width " << w;
  }
  EXPECT_THROW(primitive_taps(0), std::invalid_argument);
  EXPECT_THROW(primitive_taps(65), std::invalid_argument);
}

TEST(FleetLfsr, TapPolynomialsIrreducibleAllWidths) {
  // Irreducibility is necessary for primitivity and checkable without
  // factoring 2^w - 1; widths whose polynomial is reducible would show
  // short cycles in the fleet's derived seed streams.
  for (unsigned w = 2; w <= 64; ++w) {
    const u128 p = taps_polynomial(w, primitive_taps(w));
    EXPECT_TRUE(gf2_irreducible(p, w)) << "width " << w;
  }
}

TEST(FleetLfsr, FullPeriodOnSampledWidths) {
  // Empirical maximal-period walk: exactly 2^w - 1 steps return to the
  // seed state. Walking the 33..64 widths is out of test budget (2^33+
  // steps); the irreducibility check above covers those algebraically.
  // (A 1-bit generator toggles: Bilbo.GenerateWidth1Toggles.)
  for (unsigned w : {2u, 3u, 5u, 8u, 11u, 16u, 20u}) {
    Bilbo lfsr(w);
    lfsr.seed(1);
    const std::uint64_t period = (w == 64) ? ~0ULL : ((1ULL << w) - 1);
    std::uint64_t steps = 0;
    do {
      lfsr.clock(BilboMode::kGenerate);
      ++steps;
    } while (lfsr.state() != 1 && steps <= period);
    EXPECT_EQ(steps, period) << "width " << w;
  }
}

// --- satellite (b): seed derivation never collides, never coerces ----------

TEST(FleetSeeds, InstanceKeysCollisionFree) {
  std::set<std::uint64_t> seen;
  constexpr std::uint64_t kN = 200000;
  for (std::uint64_t i = 0; i < kN; ++i)
    seen.insert(fleet_instance_key(0xF1EE7, i));
  EXPECT_EQ(seen.size(), kN);
  // Distinct base seeds give distinct streams too (spot check).
  EXPECT_NE(fleet_instance_key(1, 0), fleet_instance_key(2, 0));
}

TEST(FleetSeeds, DerivedStatesNeverCoerced) {
  for (std::size_t w : {1u, 2u, 8u, 16u, 33u, 48u, 64u}) {
    Bilbo lfsr(w);
    for (std::uint64_t i = 0; i < 2000; ++i) {
      const std::uint64_t s =
          nonzero_lfsr_state(fleet_instance_key(0xF1EE7, i), w);
      ASSERT_GE(s, 1u);
      if (w < 64) ASSERT_LT(s, 1ULL << w);
      EXPECT_FALSE(lfsr.seed(s)) << "width " << w << " instance " << i;
    }
  }
  EXPECT_THROW(nonzero_lfsr_state(1, 0), std::invalid_argument);
  EXPECT_THROW(nonzero_lfsr_state(1, 65), std::invalid_argument);
}

// --- satellite (c): empirical MISR aliasing converges to 2^-k --------------

TEST(MisrAliasing, ConvergesToTwoToMinusK) {
  // Reference and faulty MISR absorb the same random stream, the faulty
  // one with a random nonempty error burst XORed in; an alias is a final
  // signature match. For random errors the alias probability of a k-bit
  // MISR is 2^-k; the observed proportion must bracket it within the 95%
  // Wilson interval (z = 1.96, plus a small slack factor for the fixed
  // seed).
  Rng rng(0xA11A5);
  for (std::size_t k : {4u, 8u, 12u}) {
    // More trials where the alias probability is small, so the expected
    // alias count stays large enough for a tight interval.
    const std::uint64_t trials = k == 4 ? 40000 : k == 8 ? 100000 : 400000;
    std::uint64_t aliases = 0;
    Bilbo ref(k), dut(k);
    for (std::uint64_t t = 0; t < trials; ++t) {
      ref.load(0);
      dut.load(0);
      bool any_error = false;
      for (int cycle = 0; cycle < 24; ++cycle) {
        const std::uint64_t in = rng.next();
        std::uint64_t err = rng.chance(0.3) ? rng.next() : 0;
        err &= (k == 64) ? ~0ULL : ((1ULL << k) - 1);
        any_error |= err != 0;
        ref.clock(BilboMode::kCompress, in);
        dut.clock(BilboMode::kCompress, in ^ err);
      }
      if (!any_error) continue;  // not an error stream; nothing to alias
      if (ref.state() == dut.state()) ++aliases;
    }
    const double p = std::ldexp(1.0, -static_cast<int>(k));
    const WilsonInterval ci = wilson_interval(aliases, trials);
    EXPECT_LE(ci.lo, p * 1.05) << "k=" << k << " aliases=" << aliases;
    EXPECT_GE(ci.hi, p * 0.95) << "k=" << k << " aliases=" << aliases;
  }
}

// --- fleet kernel ----------------------------------------------------------

FleetOptions small_fleet() {
  FleetOptions opt;
  opt.instances = 4096;
  opt.misr_widths = {8, 16};
  opt.plan = SelfTestPlan::two_session(48);
  opt.curve_cycles = {16, 48};
  opt.curve_instances = 1024;
  opt.shard_instances = 512;
  return opt;
}

ControllerStructure fleet_structure() {
  JobCache cache;
  auto s = cache.structure(cache.machine("dk27"), ArchKind::kFig4,
                           Technology::kTwoLevel, MinimizerKind::kAuto,
                           OstrOptions{}, Budget{});
  return s->cs;  // copy: the cache dies with this scope
}

void expect_same_stats(const FleetShardStats& a, const FleetShardStats& b,
                       const char* what) {
  EXPECT_EQ(a.instances, b.instances) << what;
  EXPECT_EQ(a.defective, b.defective) << what;
  EXPECT_EQ(a.po_stream_detected, b.po_stream_detected) << what;
  EXPECT_EQ(a.any_stream_detected, b.any_stream_detected) << what;
  EXPECT_EQ(a.misr_detected, b.misr_detected) << what;
  EXPECT_EQ(a.sig_detected, b.sig_detected) << what;
  EXPECT_EQ(a.aliases, b.aliases) << what;
  EXPECT_EQ(a.escapes, b.escapes) << what;
  EXPECT_EQ(a.signature_histogram, b.signature_histogram) << what;
}

TEST(Fleet, BitIdenticalAcrossJobsAndShardSizes) {
  const ControllerStructure cs = fleet_structure();
  FleetOptions base = small_fleet();
  base.jobs = 1;
  const FleetReport ref = run_fleet(cs, base);
  ASSERT_EQ(ref.widths.size(), 2u);
  EXPECT_EQ(ref.instances_simulated(), 2u * base.instances);

  for (std::size_t jobs : {4u, 8u}) {
    FleetOptions opt = small_fleet();
    opt.jobs = jobs;
    const FleetReport rep = run_fleet(cs, opt);
    for (std::size_t i = 0; i < ref.widths.size(); ++i)
      expect_same_stats(ref.widths[i].stats, rep.widths[i].stats, "jobs");
    for (std::size_t i = 0; i < ref.curve.size(); ++i)
      expect_same_stats(ref.curve[i].stats, rep.curve[i].stats, "jobs-curve");
  }
  for (std::size_t shard : {256u, 1024u, 4096u}) {
    FleetOptions opt = small_fleet();
    opt.jobs = 4;
    opt.shard_instances = shard;
    const FleetReport rep = run_fleet(cs, opt);
    for (std::size_t i = 0; i < ref.widths.size(); ++i)
      expect_same_stats(ref.widths[i].stats, rep.widths[i].stats, "shard");
  }
}

TEST(Fleet, EnginesAgree) {
  // run_fleet leaves the evaluator to the kernel; one run_fleet_shard over
  // the same [0, N) instances with each evaluator pinned must reproduce its
  // per-width aggregates (bit-identical for any shard partition).
  const ControllerStructure cs = fleet_structure();
  FleetOptions opt = small_fleet();
  opt.curve_cycles.clear();
  const FleetReport rep = run_fleet(cs, opt);
  ASSERT_EQ(rep.widths.size(), opt.misr_widths.size());
  const FleetDefectSampler sampler = make_defect_sampler(cs, opt.defects);
  for (const CampaignEngine engine : {CampaignEngine::kEvent, CampaignEngine::kFlat}) {
    for (const FleetWidthResult& w : rep.widths) {
      SelfTestPlan plan = opt.plan;
      plan.output_misr_width = w.misr_width;
      const auto warm = make_campaign_warm_state(cs, w.misr_width, opt.lane_words);
      Budget unlimited;
      FleetShardStats st;
      ASSERT_TRUE(run_fleet_shard(cs, plan, *warm, opt.base_seed, 0, opt.instances,
                                  sampler, engine, unlimited, st));
      expect_same_stats(w.stats, st, engine_name(engine));
    }
  }
}

TEST(Fleet, WidePackingMatchesSingleWord) {
  const ControllerStructure cs = fleet_structure();
  FleetOptions one = small_fleet();
  one.curve_cycles.clear();
  one.misr_widths = {16};
  one.lane_words = 1;
  const FleetReport a = run_fleet(cs, one);
  for (const unsigned words : {4u, kMaxLaneWords}) {
    FleetOptions wide = one;
    wide.lane_words = words;
    const FleetReport b = run_fleet(cs, wide);
    expect_same_stats(a.widths[0].stats, b.widths[0].stats, "lane_words");
  }
}

TEST(Fleet, FaultFreeFleetNeverFlags) {
  const ControllerStructure cs = fleet_structure();
  FleetOptions opt = small_fleet();
  opt.curve_cycles.clear();
  opt.defects.model = DefectModel::kFaultFree;
  const FleetReport rep = run_fleet(cs, opt);
  for (const FleetWidthResult& w : rep.widths) {
    EXPECT_EQ(w.stats.instances, opt.instances);
    EXPECT_EQ(w.stats.defective, 0u);
    EXPECT_EQ(w.stats.po_stream_detected, 0u);
    EXPECT_EQ(w.stats.any_stream_detected, 0u);
    EXPECT_EQ(w.stats.sig_detected, 0u);
    EXPECT_EQ(w.stats.aliases, 0u);
    EXPECT_EQ(w.stats.escapes, 0u);
  }
}

TEST(Fleet, AliasesAreMisrMissesAndEscapesShipDefects) {
  // Structural sanity of the counters on a real fleet: aliases are a
  // subset of PO-visible defects, escapes a subset of stream-visible
  // defects, and the MISR can never detect what the PO stream never
  // carried (misr_detected <= po_stream_detected).
  const ControllerStructure cs = fleet_structure();
  FleetOptions opt = small_fleet();
  opt.curve_cycles.clear();
  opt.misr_widths = {2, 8};  // narrow width: aliases actually occur
  const FleetReport rep = run_fleet(cs, opt);
  for (const FleetWidthResult& w : rep.widths) {
    EXPECT_LE(w.stats.misr_detected, w.stats.po_stream_detected);
    EXPECT_LE(w.stats.po_stream_detected, w.stats.any_stream_detected);
    EXPECT_LE(w.stats.sig_detected, w.stats.defective);
    // misr implies po-visible and sig implies stream-visible, so the
    // differences ARE the alias/escape counts.
    EXPECT_EQ(w.stats.aliases,
              w.stats.po_stream_detected - w.stats.misr_detected);
    EXPECT_EQ(w.stats.escapes,
              w.stats.any_stream_detected - w.stats.sig_detected);
  }
  // The 2-bit MISR must alias more often than the 8-bit one.
  EXPECT_GT(rep.widths[0].stats.aliases, rep.widths[1].stats.aliases);
}

TEST(Fleet, ZeroBudgetTruncatesWithLabel) {
  const ControllerStructure cs = fleet_structure();
  FleetOptions opt = small_fleet();
  opt.budget = Budget::work_limit(0);
  const FleetReport rep = run_fleet(cs, opt);
  EXPECT_EQ(rep.instances_simulated(), 0u);
  EXPECT_TRUE(rep.degradation.degraded);
  EXPECT_EQ(rep.degradation.reason, "work-allowance");
  EXPECT_EQ(rep.degradation.work_done, 0u);
}

TEST(Fleet, OneBudgetGovernsEveryShardOfAChunk) {
  // The allowance is one budget per chunk, not per shard: two 32-instance
  // runs simulate 64 instances per width however many shards there are.
  const ControllerStructure cs = fleet_structure();
  FleetOptions opt = small_fleet();
  opt.curve_cycles.clear();
  opt.jobs = 1;
  opt.lane_words = 1;
  opt.shard_instances = 64;
  opt.budget = Budget::work_limit(2);
  const FleetReport rep = run_fleet(cs, opt);
  ASSERT_EQ(rep.widths.size(), 2u);
  for (const FleetWidthResult& w : rep.widths) {
    EXPECT_EQ(w.stats.instances, 64u) << "width " << w.misr_width;
    EXPECT_EQ(w.stats.session_runs, 2u) << "width " << w.misr_width;
  }
  EXPECT_TRUE(rep.degradation.degraded);
  EXPECT_EQ(rep.degradation.reason, "work-allowance");
}

TEST(Fleet, TrillionInstanceFleetTruncatesPromptly) {
  // Memory is per chunk, not per shard, so the 10^12-instance cap costs
  // nothing up front; a one-run allowance cuts it at once.
  const ControllerStructure cs = fleet_structure();
  FleetOptions opt = small_fleet();
  opt.instances = 1000000000000ULL;
  opt.jobs = 1;
  opt.budget = Budget::work_limit(1);
  const auto t0 = std::chrono::steady_clock::now();
  const FleetReport rep = run_fleet(cs, opt);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(seconds, 1.0);
  EXPECT_GT(rep.instances_simulated(), 0u);
  EXPECT_LT(rep.instances_simulated(), opt.instances);
  EXPECT_TRUE(rep.degradation.degraded);
  EXPECT_EQ(rep.degradation.reason, "work-allowance");
}

TEST(Fleet, ValidateRejectsBadOptions) {
  const ControllerStructure cs = fleet_structure();
  FleetOptions opt = small_fleet();
  opt.instances = 0;
  opt.misr_widths = {0, 70};
  opt.lane_words = 3;
  try {
    run_fleet(cs, opt);
    FAIL() << "expected Error(kInvalidInput)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(e.context().find("instances"), std::string::npos);
    EXPECT_NE(e.context().find("lane_words"), std::string::npos);
    // The plan check names every out-of-range sweep width.
    EXPECT_NE(e.context().find("output_misr_width must be in [1, 64]; got 0"),
              std::string::npos);
    EXPECT_NE(e.context().find("output_misr_width must be in [1, 64]; got 70"),
              std::string::npos);
  }
}

// --- orchestrator + spool integration --------------------------------------

TEST(FleetJobs, RunsThroughOrchestrator) {
  CampaignJobSpec spec;
  spec.machine = "dk27";
  spec.arch = ArchKind::kFig4;
  spec.bist_cycles = 48;
  spec.fleet_instances = 2048;
  spec.fleet_widths = {8, 16};
  JobCache cache;
  const CampaignJobResult r = run_campaign_job(spec, cache);
  ASSERT_FALSE(r.failed()) << r.error;
  ASSERT_TRUE(r.fleet);
  EXPECT_EQ(r.fleet->instances_simulated(), 2u * spec.fleet_instances);
  EXPECT_EQ(r.fleet->widths.size(), 2u);
  // Re-running the same job must hit the warm cache.
  const CampaignJobResult r2 = run_campaign_job(spec, cache);
  ASSERT_FALSE(r2.failed());
  EXPECT_TRUE(r2.warm_cached);
  // And the aggregates are reproducible run to run.
  for (std::size_t i = 0; i < r.fleet->widths.size(); ++i)
    expect_same_stats(r.fleet->widths[i].stats, r2.fleet->widths[i].stats,
                      "rerun");
}

TEST(FleetJobs, Fig1IsRejectedTyped) {
  CampaignJobSpec spec;
  spec.machine = "dk27";
  spec.arch = ArchKind::kFig1;
  spec.fleet_instances = 64;
  JobCache cache;
  const CampaignJobResult r = run_campaign_job(spec, cache);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.error_code, ErrorCode::kInvalidInput);
}

TEST(FleetJobs, SpoolRoundTripPreservesFleetFields) {
  SpoolJob job;
  job.spec.machine = "dk27";
  job.spec.arch = ArchKind::kFig4;
  job.spec.fleet_instances = 1000000;
  job.spec.fleet_widths = {8, 16, 24, 40};
  job.spec.fleet_distribution = DefectModel::kClustered;
  job.spec.fleet_defect_rate = 0.25;
  job.spec.fleet_seed = 42;
  const std::string text = render_spool_job(job);
  const SpoolJob back = parse_spool_job(text, "test.job");
  EXPECT_EQ(back.spec.fleet_instances, job.spec.fleet_instances);
  EXPECT_EQ(back.spec.fleet_widths, job.spec.fleet_widths);
  EXPECT_EQ(back.spec.fleet_distribution, job.spec.fleet_distribution);
  EXPECT_DOUBLE_EQ(back.spec.fleet_defect_rate, job.spec.fleet_defect_rate);
  EXPECT_EQ(back.spec.fleet_seed, job.spec.fleet_seed);
}

TEST(FleetJobs, LegacySpoolFilesStayFleetFree) {
  // A spec written before fleet mode existed must parse as an ordinary
  // campaign job (fleet keys are only emitted when fleet_instances > 0).
  SpoolJob job;
  job.spec.machine = "dk27";
  const std::string text = render_spool_job(job);
  EXPECT_EQ(text.find("fleet_"), std::string::npos);
  EXPECT_EQ(parse_spool_job(text, "legacy.job").spec.fleet_instances, 0u);
}

TEST(FleetJobs, BadDistributionIsATypedParseError) {
  SpoolJob job;
  job.spec.machine = "dk27";
  job.spec.fleet_instances = 10;
  std::string text = render_spool_job(job);
  const std::string from = "fleet_distribution = single_uniform";
  const auto pos = text.find(from);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, from.size(), "fleet_distribution = bogus");
  try {
    parse_spool_job(text, "bad.job");
    FAIL() << "expected Error(kInvalidInput)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(e.context().find("bad.job"), std::string::npos);
  }
}

TEST(FleetJobs, WilsonIntervalBracketsTheProportion) {
  EXPECT_DOUBLE_EQ(wilson_interval(0, 0).lo, 0.0);
  EXPECT_DOUBLE_EQ(wilson_interval(0, 0).hi, 1.0);
  const WilsonInterval ci = wilson_interval(50, 1000);
  EXPECT_GT(ci.lo, 0.0);
  EXPECT_LT(ci.lo, 0.05);
  EXPECT_GT(ci.hi, 0.05);
  EXPECT_LT(ci.hi, 1.0);
  // Zero successes still yield a nonzero upper bound (the rule-of-three
  // regime the normal approximation gets wrong).
  EXPECT_EQ(wilson_interval(0, 1000).lo, 0.0);
  EXPECT_GT(wilson_interval(0, 1000).hi, 0.0);
}

}  // namespace
}  // namespace stc
