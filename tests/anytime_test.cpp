// Anytime-correctness suite for the budget/cancellation layer
// (util/budget.hpp): every governed stage must return a VALID result under
// ANY budget -- unlimited, tight deadlines, tiny work allowances, zero,
// or cancellation -- with truncations labeled via Degradation records.
// Work-allowance budgets are additionally deterministic, so result cost
// must be monotonically non-increasing in the allowance.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <limits>
#include <thread>

#include "benchdata/iwls93.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/factor.hpp"
#include "netlist/eval64.hpp"
#include "ostr/realization.hpp"
#include "ostr/verify.hpp"
#include "synth/flow.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

// --- Budget semantics --------------------------------------------------------

TEST(Budget, DefaultIsUnlimited) {
  Budget b;
  EXPECT_TRUE(b.is_unlimited());
  EXPECT_FALSE(b.exhausted());
  for (int i = 0; i < 10'000; ++i) EXPECT_FALSE(b.spend());
  EXPECT_STREQ(b.reason(), "");
}

TEST(Budget, WorkAllowanceIsExactAndDeterministic) {
  Budget b = Budget::work_limit(5);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(b.spend()) << i;
  EXPECT_TRUE(b.spend());
  EXPECT_STREQ(b.reason(), "work-allowance");
  EXPECT_FALSE(b.is_unlimited());
}

TEST(Budget, ZeroAllowanceNeedsThePointCheck) {
  // spend() only trips AFTER the allowance is crossed, so zero-budget
  // early-outs must combine exhausted() with work_allowance() == 0.
  Budget b = Budget::work_limit(0);
  EXPECT_EQ(b.work_allowance(), 0u);
  EXPECT_FALSE(b.exhausted());
  EXPECT_TRUE(b.spend());
}

TEST(Budget, ExpiredDeadlineReportsDeadline) {
  Budget b = Budget::deadline_ms(0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_STREQ(b.reason(), "deadline");
  // The very first spend() sees it: a stage charging coarse units stops
  // at its next unit.
  Budget late = Budget::deadline_ms(0);
  EXPECT_TRUE(late.spend());
  EXPECT_STREQ(late.reason(), "deadline");
}

TEST(Budget, HugeDeadlineNeverExpires) {
  // Deadlines past the steady clock's range saturate instead of wrapping
  // into the past (9.2e18 ms is the largest --time-budget-ms).
  for (const double ms : {9223372036854775807.0, 1e300,
                          std::numeric_limits<double>::infinity()}) {
    Budget b = Budget::deadline_ms(ms);
    EXPECT_FALSE(b.exhausted()) << ms;
    for (int i = 0; i < 10'000; ++i) ASSERT_FALSE(b.spend()) << ms;
  }
  // An ordinary deadline is unaffected by the saturation.
  EXPECT_FALSE(Budget::deadline_ms(100'000).exhausted());
}

TEST(Budget, TruncationLabelFallsBackToWorkAllowance) {
  const Degradation cut = truncation_label("fleet", 3, 8, true, "", "partial");
  EXPECT_TRUE(cut.degraded);
  EXPECT_EQ(cut.reason, "work-allowance");
  EXPECT_EQ(render_degradation(cut),
            "fleet degraded (work-allowance): 3/8 -- partial");
  EXPECT_EQ(truncation_label("ostr", 5, 0, true, "deadline", "x").reason,
            "deadline");
  // Not truncated: the work counters stay, the label does not.
  const Degradation whole = truncation_label("factor", 9, 0, false, "deadline", "x");
  EXPECT_FALSE(whole.degraded);
  EXPECT_EQ(whole.stage, "factor");
  EXPECT_EQ(whole.work_done, 9u);
  EXPECT_TRUE(whole.reason.empty());
  EXPECT_TRUE(whole.detail.empty());
  EXPECT_EQ(render_degradation(whole), "");
}

TEST(Budget, CancelTokenSharedAcrossCopies) {
  auto token = std::make_shared<CancelToken>();
  Budget a = Budget().with_cancel(token);
  Budget b = a;  // value copy, shared token
  EXPECT_FALSE(a.exhausted());
  EXPECT_FALSE(b.spend());
  token->request();
  EXPECT_TRUE(b.spend(0));  // the first spend() after the cancel
  EXPECT_TRUE(a.exhausted());
  EXPECT_TRUE(b.exhausted());
  EXPECT_STREQ(a.reason(), "cancelled");
  token->reset();
  EXPECT_FALSE(a.exhausted());
}

// --- helpers -----------------------------------------------------------------

std::vector<TruthTable> all_tables(const EncodedFsm& enc) {
  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
  return tables;
}

/// The budget grid every stage is run through: unlimited, a generous and
/// a punishing deadline, tiny work allowances, zero, and cancelled.
std::vector<Budget> budget_grid() {
  auto cancelled = std::make_shared<CancelToken>();
  cancelled->request();
  return {Budget::unlimited(),   Budget::deadline_ms(50),
          Budget::deadline_ms(1), Budget::deadline_ms(0),
          Budget::work_limit(3),  Budget::work_limit(1),
          Budget::work_limit(0),  Budget().with_cancel(cancelled)};
}

// --- espresso under every budget ---------------------------------------------

class CorpusAnytime : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusAnytime, EspressoImplementsSpecUnderEveryBudget) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const std::vector<TruthTable> tables = all_tables(enc);

  for (const Budget& b : budget_grid()) {
    EspressoOptions opt;
    opt.budget = b;
    Degradation deg;
    const CubeList r = minimize_espresso_mv(enc.spec, opt, &deg);
    EXPECT_TRUE(r.implements(tables)) << GetParam();
    if (b.is_unlimited()) EXPECT_FALSE(deg.degraded);
    if (deg.degraded) {
      EXPECT_EQ(deg.stage, "espresso");
      EXPECT_FALSE(deg.reason.empty());
    }
  }
}

TEST_P(CorpusAnytime, EspressoCostMonotoneInWorkAllowance) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  // Allowance w >= 1 runs the first min(w, fixpoint) rounds and keeps the
  // best cover seen, so cost can only go down as w grows. (w = 0 returns
  // the unminimized merged ON cover and is checked for validity above.)
  double prev = -1.0;
  for (std::uint64_t w = 1; w <= 6; ++w) {
    EspressoOptions opt;
    opt.budget = Budget::work_limit(w);
    const LogicCost c = pla_cost(minimize_espresso_mv(enc.spec, opt));
    if (prev >= 0.0)
      EXPECT_LE(c.gate_equivalents, prev) << GetParam() << " allowance " << w;
    prev = c.gate_equivalents;
  }
}

// --- factoring under every budget --------------------------------------------

TEST_P(CorpusAnytime, FactoringStaysExactUnderEveryBudget) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  if (enc.num_vars() > 12) GTEST_SKIP() << "minterm sweep impractical";
  const std::vector<TruthTable> tables = all_tables(enc);
  const CubeList pla = minimize_espresso_mv(enc.spec);
  // Zero-budget baseline: the flat SOPs re-emitted with no extraction.
  // (Literal counts live in the factored expression space, where shared
  // PLA products are duplicated per output -- not comparable with the
  // two-level PLA literal count.)
  FactorOptions zero;
  zero.budget = Budget::work_limit(0);
  const std::size_t flat_literals = extract_factored(pla, zero).num_literals();

  for (const Budget& b : budget_grid()) {
    FactorOptions opt;
    opt.budget = b;
    Degradation deg;
    const FactoredNetwork fn = extract_factored(pla, opt, &deg);
    fn.check();
    // Never worse than the flat PLA it started from.
    EXPECT_LE(fn.num_literals(), flat_literals) << GetParam();
    // Algebraic identity at every stopping point: exhaustive equivalence
    // against the two-level truth tables.
    std::vector<bool> node_vals, out_vals;
    const Minterm total = Minterm{1} << enc.num_vars();
    for (Minterm mm = 0; mm < total; ++mm) {
      fn.evaluate_all(mm, node_vals, out_vals);
      for (std::size_t bbit = 0; bbit < tables.size(); ++bbit)
        ASSERT_EQ(out_vals[bbit], pla.evaluate(mm, bbit))
            << GetParam() << " minterm " << mm << " output " << bbit;
    }
    if (deg.degraded) EXPECT_EQ(deg.stage, "factor");
  }
}

TEST(AnytimeFactor, ExpiredDeadlineStopsBeforeTheFirstStep) {
  const MealyMachine m = load_benchmark("bbara");
  const CubeList pla =
      minimize_espresso_mv(encode_fsm(m, natural_encoding(m.num_states())).spec);
  ASSERT_GE(extract_factored(pla).num_nodes(), 2u);  // unbudgeted: several steps
  FactorOptions opt;
  opt.budget = Budget::deadline_ms(0);
  Degradation deg;
  const FactoredNetwork fn = extract_factored(pla, opt, &deg);
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(deg.reason, "deadline");
  EXPECT_EQ(deg.work_done, 0u);
  EXPECT_EQ(fn.num_nodes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, CorpusAnytime,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- OSTR under every budget -------------------------------------------------

TEST(AnytimeOstr, ValidSymmetricPairUnderEveryBudget) {
  const MealyMachine m = load_benchmark("tav");
  for (const Budget& b : budget_grid()) {
    OstrOptions opt;
    opt.budget = b;
    const OstrResult res = solve_ostr(m, opt);
    // The doubling incumbent exists at budget zero, so best is never absent.
    const Realization real = build_realization(m, res.best.pi, res.best.tau);
    EXPECT_TRUE(verify_realization(m, real).ok());
    EXPECT_EQ(res.degradation.degraded, !res.stats.exhausted);
    if (res.degradation.degraded) {
      EXPECT_EQ(res.degradation.stage, "ostr");
      EXPECT_FALSE(res.degradation.reason.empty());
    }
  }
}

TEST(AnytimeOstr, FlipflopsMonotoneInNodeAllowance) {
  const MealyMachine m = load_benchmark("dk16");
  std::size_t prev = SIZE_MAX;
  for (const std::uint64_t nodes : {0ull, 8ull, 64ull, 512ull, 100'000ull}) {
    OstrOptions opt;
    opt.budget = Budget::work_limit(nodes);
    const OstrResult res = solve_ostr(m, opt);
    // Deterministic visit order: a larger allowance sees a superset of
    // candidate pairs, so the best cost can only improve.
    EXPECT_LE(res.best.flipflops, prev) << "allowance " << nodes;
    prev = res.best.flipflops;
  }
}

// --- fault campaigns: truncation and cancellation ----------------------------

ControllerStructure fig1_of(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

TEST(AnytimeCampaign, MidCampaignTruncationReportsPartialCoverage) {
  const ControllerStructure cs = fig1_of("bbara");
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  CampaignOptions opt;
  opt.num_threads = 1;  // deterministic truncated subset
  opt.lane_words = 1;   // 63-fault batches: bbara's classes take several
  // One unit is one (session, batch) run, and on fig1 only session 2's
  // bank compacts, so no fault finishes before session 2: allow all of
  // session 1 plus one batch of session 2, then stop.
  const std::size_t classes =
      collapse_faults(cs.nl, enumerate_stuck_faults(cs.nl)).num_classes();
  const std::size_t per_run = faults_per_run(opt.lane_words);
  opt.budget = Budget::work_limit((classes + per_run - 1) / per_run + 1);
  const CampaignResult r = run_fault_campaign(cs, plan, opt);

  EXPECT_LT(r.faults_simulated, r.raw.total);
  EXPECT_GT(r.faults_simulated, 0u);
  EXPECT_EQ(r.raw.simulated, r.faults_simulated);
  EXPECT_LT(r.collapsed_simulated, r.collapsed_total);
  EXPECT_TRUE(r.degradation.degraded);
  EXPECT_EQ(r.degradation.stage, "campaign");
  EXPECT_EQ(r.degradation.reason, "work-allowance");
  // Verdicts of completed batches are exact; the pessimistic coverage()
  // counts everything unsimulated as undetected.
  EXPECT_LE(r.coverage(), r.raw.coverage_of_simulated());
  // undetected lists only simulated-but-undetected faults.
  EXPECT_LE(r.raw.detected + r.raw.undetected.size(), r.faults_simulated);
}

TEST(AnytimeCampaign, TruncatedVerdictsAgreeWithFullCampaign) {
  // bbara's collapsed classes fill several 63-fault batches; as in
  // MidCampaignTruncationReportsPartialCoverage, the allowance covers
  // session 1 and one batch of session 2, so some faults finish and
  // others are cut.
  const ControllerStructure cs = fig1_of("bbara");
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  CampaignOptions full_opt;
  full_opt.num_threads = 1;
  full_opt.lane_words = 1;
  const CampaignResult full = run_fault_campaign(cs, plan, full_opt);

  CampaignOptions opt = full_opt;
  const std::size_t per_run = faults_per_run(opt.lane_words);
  opt.budget = Budget::work_limit((full.collapsed_total + per_run - 1) / per_run + 1);
  const CampaignResult part = run_fault_campaign(cs, plan, opt);
  ASSERT_LT(part.faults_simulated, part.raw.total);
  ASSERT_GT(part.faults_simulated, 0u);
  ASSERT_FALSE(part.raw.undetected.empty());
  // Every fault the truncated run DID simulate got the same verdict the
  // full campaign gives it (batches are exact, truncation only skips).
  EXPECT_LE(part.raw.detected, full.raw.detected);
  for (const Fault& f : part.raw.undetected) {
    bool in_full = false;
    for (const Fault& g : full.raw.undetected) in_full = in_full || (f == g);
    EXPECT_TRUE(in_full) << "net " << f.net;
  }
}

TEST(AnytimeCampaign, PreCancelledCampaignSimulatesNothingButStaysValid) {
  const ControllerStructure cs = fig1_of("dk27");
  auto token = std::make_shared<CancelToken>();
  token->request();
  CampaignOptions opt;
  opt.budget.with_cancel(token);
  const CampaignResult r =
      run_fault_campaign(cs, SelfTestPlan::two_session(16), opt);
  EXPECT_EQ(r.faults_simulated, 0u);
  EXPECT_EQ(r.raw.detected, 0u);
  EXPECT_TRUE(r.degradation.degraded);
  EXPECT_EQ(r.degradation.reason, "cancelled");
  EXPECT_EQ(r.coverage(), 0.0);
}

TEST(AnytimeCampaign, MidFlightCancellationAcrossWorkerThreads) {
  // Cancellation arriving WHILE a threaded campaign runs (the TSan
  // scenario: the token is shared across worker budget copies). Whatever
  // the timing, the result must be valid: exact verdicts for completed
  // batches, consistent truncation accounting, a label when anything was
  // cut.
  const ControllerStructure cs = fig1_of("bbara");
  auto token = std::make_shared<CancelToken>();
  CampaignOptions opt;
  opt.num_threads = 4;
  opt.lane_words = 1;  // 63-fault batches, so every worker gets one
  const std::size_t per_run = faults_per_run(opt.lane_words);
  ASSERT_GE((collapse_faults(cs.nl, enumerate_stuck_faults(cs.nl)).num_classes() +
             per_run - 1) / per_run,
            opt.num_threads);
  opt.budget.with_cancel(token);
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token->request();
  });
  const CampaignResult r =
      run_fault_campaign(cs, SelfTestPlan::two_session(256), opt);
  canceller.join();
  EXPECT_LE(r.faults_simulated, r.raw.total);
  EXPECT_EQ(r.raw.simulated, r.faults_simulated);
  EXPECT_LE(r.raw.detected + r.raw.undetected.size(), r.faults_simulated);
  if (r.faults_simulated < r.raw.total) {
    EXPECT_TRUE(r.degradation.degraded);
    EXPECT_EQ(r.degradation.reason, "cancelled");
  }
}

// A cancel must not wait for a long session to end: the lane runs poll
// the clock and the token every 256 cycles. Each case starts a 10^6-cycle
// run on s1, cancels 50 ms in, and must return within a second.

/// Run `work` with a token that is cancelled `delay` in (50 ms by
/// default); returns the seconds from the cancel to the return.
template <typename Fn>
double seconds_after_cancel(const Fn& work,
                            std::chrono::duration<double> delay = std::chrono::milliseconds(50)) {
  auto token = std::make_shared<CancelToken>();
  std::chrono::steady_clock::time_point cancelled_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(delay);
    cancelled_at = std::chrono::steady_clock::now();
    token->request();
  });
  work(Budget().with_cancel(token));
  const auto returned_at = std::chrono::steady_clock::now();
  canceller.join();
  return std::chrono::duration<double>(returned_at - cancelled_at).count();
}

struct S1Blocks {
  EncodedFsm enc;
  MinimizedBlock block;
};

const S1Blocks& s1_blocks() {
  static const S1Blocks b = [] {
    const MealyMachine m = load_benchmark("s1");
    S1Blocks r;
    r.enc = encode_fsm(m, natural_encoding(m.num_states()));
    r.block = minimize_combined(r.enc, MinimizerKind::kAuto, Technology::kTwoLevel);
    return r;
  }();
  return b;
}

TEST(AnytimeCampaign, CancelStopsAMillionCycleSessionWithinASecond) {
  const ControllerStructure cs = build_fig3(s1_blocks().enc, s1_blocks().block);
  CampaignResult r;
  const double waited = seconds_after_cancel([&](const Budget& budget) {
    CampaignOptions opt;
    opt.budget = budget;
    r = run_fault_campaign(cs, SelfTestPlan::two_session(1000000), opt);
  });
  EXPECT_LT(waited, 1.0);
  EXPECT_LT(r.faults_simulated, r.raw.total);
  EXPECT_TRUE(r.degradation.degraded);
  EXPECT_EQ(r.degradation.reason, "cancelled");
}

TEST(AnytimeCampaign, CancelStopsAMillionCycleFunctionalSweepWithinASecond) {
  const ControllerStructure cs = build_fig1(s1_blocks().enc, s1_blocks().block);
  CoverageResult r;
  Degradation deg;
  const double waited = seconds_after_cancel([&](const Budget& budget) {
    r = measure_functional_coverage(cs, 1000000, std::nullopt, 0x5EED, budget, &deg);
  });
  EXPECT_LT(waited, 1.0);
  EXPECT_LT(r.simulated, r.total);
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(deg.reason, "cancelled");
}

// --- cancel bound of the espresso stage --------------------------------------

/// s1's fig4 lambda block: 18 variables, 5046 ON cubes. OSTR's best pair
/// for s1 is the identity pair.
PlaSpec s1_lambda_spec() {
  const MealyMachine m = load_benchmark("s1");
  const Partition id = Partition::identity(m.num_states());
  const FactorTables& ft = build_realization(m, id, id).tables;
  return encode_lambda(ft.lambda, ft.n1, ft.n2, ft.num_inputs, m.effective_input_bits(),
                       m.effective_output_bits(), natural_encoding(ft.n1),
                       natural_encoding(ft.n2))
      .spec;
}

/// The OFF cover of output b of `spec`: the complement of ON u DC.
Cover off_cover(const PlaSpec& spec, std::size_t b) {
  Cover care = spec.on.output_cover(b);
  const Cover dc = spec.dc.output_cover(b);
  for (const Cube& q : dc.cubes()) care.add(q);
  return complement_cover(care);
}

/// Cube-calculus check that `f` implements `spec` (a dense sweep of 2^18
/// minterms would take a minute): per output, every ON cube lies inside
/// the output's cover and no cube of that cover meets the OFF cover.
bool implements_spec(const CubeList& f, const PlaSpec& spec) {
  for (std::size_t b = 0; b < spec.num_outputs; ++b) {
    const Cover cover = f.output_cover(b);
    const CubeIndex off(off_cover(spec, b).cubes());
    for (const Cube& q : cover.cubes())
      if (off.any_intersecting(q)) return false;
    const Cover on = spec.on.output_cover(b);
    for (const Cube& q : on.cubes())
      if (!cover_contains_cube(cover, q)) return false;
  }
  return true;
}

double seconds_of(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// EXPAND polls the budget once per cube. A cancel that lands in the first
// round's EXPAND must therefore return within the clean-up after the
// loop (merging, dropping dominated cubes, keeping the best cover), well
// inside half an uncancelled first round; without the poll the call
// would finish EXPAND, IRREDUNDANT and REDUCE first. The timings are the
// faster of two uncancelled runs on the same spec just before, so the
// bound scales with the build (Release or a sanitizer). The cancel is
// aimed a fifth into the round, past the OFF covers; an attempt whose
// canceller woke before the first round (work_done 0) is aimed later, one
// that waited past the bound earlier, up to five attempts.
TEST(AnytimeEspresso, CancelMidExpandOnS1LambdaReturnsWithinHalfARound) {
  const PlaSpec spec = s1_lambda_spec();
  ASSERT_EQ(spec.num_vars, 18u);
  ASSERT_EQ(spec.on.num_cubes(), 5046u);
  EspressoOptions one_round;
  one_round.budget = Budget::work_limit(1);
  double off_s = 1e9, round_s = 1e9;
  for (int run = 0; run < 2; ++run) {
    const double off = seconds_of([&] {
      for (std::size_t b = 0; b < spec.num_outputs; ++b) off_cover(spec, b);
    });
    const double round = seconds_of([&] { minimize_espresso_mv(spec, one_round); }) - off;
    off_s = std::min(off_s, off);
    round_s = std::min(round_s, round);
  }
  const double bound_s = round_s / 2;

  bool landed = false;
  double aim = 0.2;  // of round_s, after off_s
  std::string attempts;
  for (int attempt = 0; attempt < 5 && !landed; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    CubeList f;
    Degradation deg;
    const double waited = seconds_after_cancel(
        [&](const Budget& budget) {
          EspressoOptions opt;
          opt.budget = budget;
          f = minimize_espresso_mv(spec, opt, &deg);
        },
        std::chrono::duration<double>(off_s + aim * round_s));
    EXPECT_TRUE(deg.degraded);
    EXPECT_EQ(deg.stage, "espresso");
    EXPECT_EQ(deg.reason, "cancelled");
    EXPECT_TRUE(implements_spec(f, spec));
    landed = deg.work_done == 1 && waited < bound_s;
    attempts += " [aim " + std::to_string(aim) + ": rounds " +
                std::to_string(deg.work_done) + ", waited " + std::to_string(waited) + " s]";
    aim += deg.work_done == 0 ? 0.1 : -0.05;
  }
  EXPECT_TRUE(landed) << "no cancel in the first round returned within " << bound_s
                      << " s (OFF covers " << off_s << " s, round " << round_s
                      << " s):" << attempts;
}

TEST(AnytimeCampaign, FunctionalCoverageHonorsTheBudget) {
  const ControllerStructure cs = fig1_of("dk27");
  Degradation deg;
  const CoverageResult r = measure_functional_coverage(
      cs, 64, std::nullopt, 0x5EED, Budget::work_limit(3), &deg);
  EXPECT_EQ(r.simulated, 3u);
  EXPECT_LT(r.simulated, r.total);
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(deg.stage, "functional-coverage");
}

// --- the whole flow under a wall-clock budget --------------------------------

/// Word-for-word differential between a budget-built netlist and the
/// reference: identical outputs and next-state words on shared random
/// stimulus, every cycle.
void expect_equivalent(const Netlist& ref, const Netlist& got,
                       std::size_t cycles, std::uint64_t seed) {
  ASSERT_EQ(ref.num_inputs(), got.num_inputs());
  ASSERT_EQ(ref.num_outputs(), got.num_outputs());
  ASSERT_EQ(ref.num_dffs(), got.num_dffs());
  CompiledNetlist ca(ref), cb(got);
  std::vector<std::uint64_t> in(ref.num_inputs(), 0);
  std::vector<std::uint64_t> da(ref.num_dffs()), db(got.num_dffs());
  for (std::size_t k = 0; k < ref.num_dffs(); ++k) {
    da[k] = ref.gate(ref.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    db[k] = got.gate(got.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    ASSERT_EQ(da[k], db[k]);
  }
  std::vector<std::uint64_t> va(ref.num_nets()), vb(got.num_nets());
  Rng rng(seed);
  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    for (auto& w : in) w = rng.next();
    ca.evaluate(in.data(), da.data(), va.data());
    cb.evaluate(in.data(), db.data(), vb.data());
    for (std::size_t o = 0; o < ref.num_outputs(); ++o)
      ASSERT_EQ(va[ref.outputs()[o]], vb[got.outputs()[o]]) << "cycle " << cyc;
    for (std::size_t k = 0; k < ref.num_dffs(); ++k) {
      da[k] = va[ca.dff_d(k)];
      db[k] = vb[cb.dff_d(k)];
      ASSERT_EQ(da[k], db[k]) << "cycle " << cyc;
    }
  }
}

TEST(AnytimeFlow, S1MultiLevelUnder50msStaysBehaviorExact) {
  // The acceptance scenario: the biggest corpus machine, full multi-level
  // flow, 50 ms wall clock. The flow must return valid netlists that match
  // the unbudgeted reference word for word; whatever was cut is labeled.
  const MealyMachine m = load_benchmark("s1");
  FlowOptions opts;
  opts.technology = Technology::kMultiLevel;
  opts.budget = Budget::deadline_ms(50);
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok()) << res.verification.detail;

  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const ControllerStructure ref =
      build_fig1(enc, MinimizerKind::kAuto, Technology::kTwoLevel);
  const ControllerStructure got =
      build_fig1(enc, MinimizerKind::kAuto, Technology::kMultiLevel,
                 Budget::deadline_ms(50));
  expect_equivalent(ref.nl, got.nl, 48, 0xA11F);
}

TEST(AnytimeFlow, ZeroBudgetFlowStillProducesValidStructures) {
  const MealyMachine m = load_benchmark("paper_fig5");
  FlowOptions opts;
  opts.technology = Technology::kMultiLevel;
  opts.budget = Budget::work_limit(0);
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok()) << res.verification.detail;
  EXPECT_FALSE(res.ostr.stats.exhausted);
  EXPECT_TRUE(res.ostr.degradation.degraded);
  // Structures were still built; their netlists are non-trivial.
  for (const StructureReport* s : {&res.fig1, &res.fig2, &res.fig3, &res.fig4})
    EXPECT_GT(s->area_ge, 0.0) << s->kind;
}

TEST(AnytimeFlow, BudgetedMeasurementLabelsTruncatedCampaigns) {
  const MealyMachine m = load_benchmark("dk27");
  FlowOptions opts;
  opts.with_fault_sim = true;
  opts.bist_cycles = 32;
  opts.functional_cycles = 32;
  // Zero allowance: every campaign is skipped whole, which must still
  // produce a valid (pessimistic, fully labeled) report.
  opts.budget = Budget::work_limit(0);
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok());
  bool any_campaign_label = false;
  for (const StructureReport* s : {&res.fig2, &res.fig3, &res.fig4})
    for (const Degradation& d : s->degradations)
      any_campaign_label = any_campaign_label || d.stage == "campaign";
  EXPECT_TRUE(any_campaign_label);
  // Truncated sweeps must not fabricate feedback-coverage numbers.
  for (const StructureReport* s : {&res.fig3, &res.fig4})
    for (const Degradation& d : s->degradations)
      if (d.stage == "campaign" && d.degraded)
        EXPECT_FALSE(s->feedback_coverage.has_value()) << s->kind;
}

}  // namespace
}  // namespace stc
