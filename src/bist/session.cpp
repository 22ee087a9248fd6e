#include "bist/session.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "jobs/scheduler.hpp"
#include "netlist/eval64.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stc {

SelfTestPlan SelfTestPlan::two_session(std::size_t cycles_per_session) {
  SelfTestPlan plan;
  SessionSpec s1;
  s1.role_a = BilboMode::kGenerate;
  s1.role_b = BilboMode::kCompress;
  s1.cycles = cycles_per_session;
  SessionSpec s2;
  s2.role_a = BilboMode::kCompress;
  s2.role_b = BilboMode::kGenerate;
  s2.cycles = cycles_per_session;
  s2.input_seed = 0xCAFE;
  s2.gen_seed = 0x3;
  plan.sessions = {s1, s2};
  return plan;
}

SelfTestPlan SelfTestPlan::thorough(std::size_t cycles_per_session) {
  SelfTestPlan plan = two_session(cycles_per_session);
  SelfTestPlan second = two_session(cycles_per_session | 1);  // odd length
  second.sessions[0].input_seed = 0x1D5B;
  second.sessions[0].gen_seed = 0x5;
  second.sessions[1].input_seed = 0x77AA;
  second.sessions[1].gen_seed = 0xB;
  plan.sessions.insert(plan.sessions.end(), second.sessions.begin(),
                       second.sessions.end());
  return plan;
}

SelfTestPlan SelfTestPlan::autonomous(std::size_t cycles_per_session) {
  SelfTestPlan plan = two_session(cycles_per_session);
  plan.sessions[0].role_a = BilboMode::kSystem;
  plan.sessions[1].role_b = BilboMode::kSystem;
  return plan;
}

SelfTestPlan SelfTestPlan::conventional(std::size_t cycles) {
  SelfTestPlan plan;
  SessionSpec s;
  s.role_a = BilboMode::kCompress;  // R compresses the next-state lines
  s.role_b = BilboMode::kGenerate;  // T generates patterns into C
  s.cycles = cycles;
  plan.sessions = {s};
  return plan;
}

std::string plan_problems(const SelfTestPlan& plan) {
  std::string problems = plan.sessions.empty() ? "plan has no sessions" : "";
  if (plan.output_misr_width == 0 || plan.output_misr_width > 64) {
    if (!problems.empty()) problems += "; ";
    problems += "plan output_misr_width must be in [1, 64]; got " +
                std::to_string(plan.output_misr_width);
  }
  return problems;
}

namespace {

/// The state a session bank starts from: a generating bank starts from
/// `seed`, tested for zero BEFORE the width mask (a seed whose low bits
/// are all zero starts the register at 0, and the generator's zero escape
/// takes it from there); every other bank starts from 0. Unlike
/// Bilbo::seed, which masks first -- changing this rule would change which
/// faults are detected.
std::uint64_t bank_start(BilboMode mode, std::uint64_t seed) {
  return mode == BilboMode::kGenerate ? (seed == 0 ? 1 : seed) : 0;
}

/// One register bank clocked in one mode for a session.
class Bank {
 public:
  Bank(const Netlist& nl, const std::vector<std::size_t>& dff_idx, BilboMode mode,
       std::uint64_t seed)
      : idx_(dff_idx), mode_(mode), reg_(idx_.empty() ? 1 : idx_.size()) {
    for (const std::size_t k : idx_) d_net_.push_back(nl.gate(nl.dffs()[k]).fanins[0]);
    reg_.load(bank_start(mode, seed));
  }

  bool empty() const { return idx_.empty(); }
  std::uint64_t value() const { return reg_.state(); }

  /// Write the bank's current contents into the simulator DFF image.
  void deposit(std::vector<std::uint8_t>& state) const {
    for (std::size_t k = 0; k < idx_.size(); ++k)
      state[idx_[k]] = (reg_.state() >> k) & 1;
  }

  /// Clock the bank given the netlist's computed D values.
  void clock(const std::vector<std::uint8_t>& net_values) {
    std::uint64_t d = 0;
    for (std::size_t k = 0; k < d_net_.size(); ++k)
      if (net_values[d_net_[k]]) d |= std::uint64_t{1} << k;
    reg_.clock(mode_, d);
  }

 private:
  std::vector<std::size_t> idx_;
  std::vector<NetId> d_net_;  // D input of each bank bit
  BilboMode mode_;
  Bilbo reg_;
};

/// Where each functional input / the test-mode pin sits in the netlist's
/// primary-input slot order; computed once per run instead of the former
/// O(|pi| * |slots|) scan every cycle.
struct PinMap {
  std::vector<std::size_t> pi_slot;
  std::size_t test_slot = SIZE_MAX;
};

PinMap map_pins(const ControllerStructure& cs) {
  PinMap pm;
  const std::vector<NetId>& slots = cs.nl.inputs();
  pm.pi_slot.reserve(cs.pi.size());
  for (NetId net : cs.pi) {
    std::size_t found = SIZE_MAX;
    for (std::size_t k = 0; k < slots.size(); ++k)
      if (slots[k] == net) {
        found = k;
        break;
      }
    if (found == SIZE_MAX)
      throw std::logic_error("session: pi net is not a primary input");
    pm.pi_slot.push_back(found);
  }
  if (cs.test_mode != kNoNet)
    for (std::size_t k = 0; k < slots.size(); ++k)
      if (slots[k] == cs.test_mode) {
        pm.test_slot = k;
        break;
      }
  return pm;
}

/// Compact the observed primary outputs into the MISR in width-sized
/// chunks so *every* output bit influences the signature. (The former
/// single-absorb path silently discarded outputs beyond the MISR width
/// and beyond bit 63.) For machines with <= width observed outputs this
/// performs exactly one absorb per cycle with the same value as before.
void absorb_outputs(Bilbo& misr, const std::vector<std::uint8_t>& values,
                    const std::vector<NetId>& po) {
  const std::size_t w = misr.width();
  std::uint64_t chunk = 0;
  std::size_t j = 0, absorbed = 0;
  for (NetId net : po) {
    if (values[net]) chunk |= std::uint64_t{1} << j;
    if (++j == w) {
      misr.clock(BilboMode::kCompress, chunk);
      chunk = 0;
      j = 0;
      ++absorbed;
    }
  }
  if (j > 0 || absorbed == 0) misr.clock(BilboMode::kCompress, chunk);
}

}  // namespace

Signatures run_self_test(const ControllerStructure& cs, const SelfTestPlan& plan,
                         std::optional<Fault> fault) {
  const Netlist& nl = cs.nl;
  if (!nl.finalized()) throw std::logic_error("run_self_test: netlist not finalized");
  const std::string problems = plan_problems(plan);
  if (!problems.empty())
    throw Error(ErrorCode::kInvalidInput, "invalid self-test plan", problems);
  if (fault) check_fault_list(nl, {*fault});
  const NetId fnet = fault ? fault->net : kNoNet;
  const bool fval = fault ? fault->stuck_value : false;
  const PinMap pins = map_pins(cs);

  Signatures sigs;
  Bilbo out_misr(plan.output_misr_width);
  std::vector<std::uint8_t> in(nl.num_inputs(), 0);
  std::vector<std::uint8_t> values;  // scratch reused across cycles and sessions

  for (const SessionSpec& spec : plan.sessions) {
    Bank bank_a(nl, cs.reg_a, spec.role_a, spec.gen_seed);
    Bank bank_b(nl, cs.reg_b, spec.role_b, spec.gen_seed * 3 + 1);
    // The input generator is wider than the input count so that narrow
    // interfaces (1-2 bits) still see a long pseudo-random sequence.
    Bilbo input_gen(std::max<std::size_t>(8, cs.pi.size()));
    input_gen.seed(spec.input_seed);

    std::vector<std::uint8_t> state = nl.initial_state();
    for (std::size_t cycle = 0; cycle < spec.cycles; ++cycle) {
      // Drive primary inputs from the input generator; assert test_mode.
      std::fill(in.begin(), in.end(), 0);
      for (std::size_t k = 0; k < cs.pi.size(); ++k)
        in[pins.pi_slot[k]] = input_gen.bit(k);
      if (pins.test_slot != SIZE_MAX) in[pins.test_slot] = 1;

      bank_a.deposit(state);
      bank_b.deposit(state);
      nl.evaluate(in, state, values, fnet, fval);

      absorb_outputs(out_misr, values, cs.po);

      bank_a.clock(values);
      bank_b.clock(values);
      input_gen.clock(BilboMode::kGenerate);
    }

    // Record the compacting banks' final signatures.
    if (spec.role_a == BilboMode::kCompress) sigs.register_sigs.push_back(bank_a.value());
    if (spec.role_b == BilboMode::kCompress && !bank_b.empty())
      sigs.register_sigs.push_back(bank_b.value());
  }
  sigs.output_sig = out_misr.state();
  return sigs;
}

CoverageResult measure_coverage(const ControllerStructure& cs, const SelfTestPlan& plan,
                                std::optional<std::vector<Fault>> faults) {
  const std::vector<Fault> list =
      faults ? std::move(*faults) : enumerate_stuck_faults(cs.nl);
  check_fault_list(cs.nl, list);
  const Signatures golden = run_self_test(cs, plan);

  CoverageResult res;
  res.total = list.size();
  res.simulated = list.size();
  for (const Fault& f : list) {
    if (run_self_test(cs, plan, f) != golden) {
      ++res.detected;
    } else {
      res.undetected.push_back(f);
    }
  }
  return res;
}

// --- bit-parallel engine -----------------------------------------------------

namespace {

/// Netlist glue around the lane-sliced LaneBilbo (bist/bilbo.hpp): maps
/// the bank's bit rows onto the structure's DFF slots and gathers each
/// bit's D-input net from the evaluated values. Constructed once per
/// worker; reset() reconfigures mode and seed per session with no heap
/// traffic.
class LaneBank {
 public:
  LaneBank(const Netlist& nl, const std::vector<std::size_t>& idx, unsigned W)
      : idx_(&idx), lane_words_(W), reg_(idx.empty() ? 1 : idx.size(), W) {
    d_net_.assign(reg_.width(), kNoNet);
    for (std::size_t k = 0; k < idx.size(); ++k)
      d_net_[k] = nl.gate(nl.dffs()[idx[k]]).fanins[0];
  }

  void reset(BilboMode mode, std::uint64_t seed) {
    mode_ = mode;
    reg_.reset(bank_start(mode, seed));
  }

  bool empty() const { return idx_->empty(); }

  /// Write the bank's current rows into the W-strided DFF lane image.
  void deposit(std::uint64_t* dff_lanes) const {
    const unsigned W = lane_words_;
    for (std::size_t k = 0; k < idx_->size(); ++k) {
      const std::uint64_t* row = reg_.row(k);
      std::uint64_t* dst = dff_lanes + (*idx_)[k] * W;
      for (unsigned w = 0; w < W; ++w) dst[w] = row[w];
    }
  }

  /// Clock the bank given the W-strided evaluated net values.
  void clock(const std::uint64_t* values) {
    const unsigned W = lane_words_;
    for (std::size_t k = 0; k < reg_.width(); ++k) {
      std::uint64_t* d = reg_.d_row(k);
      if (d_net_[k] == kNoNet) {
        for (unsigned w = 0; w < W; ++w) d[w] = 0;
      } else {
        const std::uint64_t* src = values + std::size_t{d_net_[k]} * W;
        for (unsigned w = 0; w < W; ++w) d[w] = src[w];
      }
    }
    reg_.clock(mode_);
  }

  /// OR into `diff` (W words) the lanes whose contents differ from lane 0.
  void accumulate_diff(std::uint64_t* diff) const { reg_.accumulate_diff(diff); }

  // Fleet-packing hooks (see run_fleet_shard): per-instance seeds and
  // pair-local comparisons instead of the lane-0 reference.
  std::size_t width() const { return reg_.width(); }
  void load_lane(std::size_t lane, std::uint64_t value) {
    reg_.load_lane(lane, value);
  }
  void accumulate_pair_diff(std::uint64_t* diff) const {
    reg_.accumulate_pair_diff(diff);
  }
  void accumulate_pair_d_diff(std::uint64_t* diff) const {
    reg_.accumulate_pair_d_diff(diff);
  }

 private:
  const std::vector<std::size_t>* idx_;
  unsigned lane_words_;
  BilboMode mode_ = BilboMode::kHold;
  std::vector<NetId> d_net_;
  LaneBilbo reg_;
};

/// Gather the observed primary outputs into the lane MISR's D rows with
/// the same width-sized compaction as the scalar absorb_outputs: a last
/// chunk that fills only j rows absorbs 0 in rows j and up.
void absorb_output_lanes(LaneBilbo& misr, const std::uint64_t* values,
                         const std::vector<NetId>& po, unsigned W) {
  const std::size_t width = misr.width();
  std::size_t j = 0, absorbed = 0;
  for (NetId net : po) {
    std::copy_n(values + std::size_t{net} * W, W, misr.d_row(j));
    if (++j == width) {
      misr.clock(BilboMode::kCompress);
      j = 0;
      ++absorbed;
    }
  }
  if (j > 0 || absorbed == 0) {
    // Rows j and up must absorb 0. Only rows an earlier full chunk of this
    // cycle wrote hold a value: no row at or past the output count is ever
    // written, so it keeps the 0 it was constructed with.
    for (std::size_t k = j; k < std::min(width, po.size()); ++k)
      std::fill_n(misr.d_row(k), W, 0);
    misr.clock(BilboMode::kCompress);
  }
}

/// Event-evaluator residency slots per worker: slot 0 for the full
/// program, slot 1 + k for the observation cone of session key k (see
/// CampaignWarmState::program_for; at most four keys).
constexpr std::size_t kProgramSlots = 5;

/// Everything one campaign worker needs across fault batches: the fault
/// masks, the event evaluator's resident state per program it runs,
/// lane-sliced banks/MISR, the input generator, and every lane buffer. The
/// compiled programs are immutable and shared by all workers; `cn` points
/// at the one the lane run in flight uses. Constructed once per worker; the
/// lane runs below then perform zero heap allocations in the steady state
/// -- across cycles, sessions, programs AND batches, at every lane width
/// (verified by the allocation-counting hook in tests/allocfree_test.cpp).
struct CampaignScratch {
  const ControllerStructure& cs;
  const PinMap& pins;  // owned by the warm state (or the functional pass)
  LaneFaultMasks faults;      // net-indexed, so shared by every program
  std::array<EventScratch, kProgramSlots> events;
  const CompiledNetlist* cn;  // the program of the lane run in flight
  EventScratch* ev;           // its resident state: one of `events`
  LaneBank bank_a, bank_b;
  LaneBilbo out_misr;
  Bilbo input_gen;
  std::vector<std::uint64_t> in_lanes;        // W words per input slot
  std::vector<std::uint64_t> dff_lanes;       // W words per DFF
  std::vector<std::uint64_t> init_dff_lanes;
  std::vector<std::uint64_t> flat_values;     // flat-engine output buffer
  std::vector<std::uint64_t> diff_mask;       // W-word detected-lane mask
  std::vector<LaneFault> batch;
  std::uint64_t cycles = 0;   // machine cycles simulated by this worker
  std::uint64_t ops = 0;      // ops evaluated by this worker (see LaneCycle)
  std::uint64_t offered = 0;  // num_ops() of the program, summed per cycle

  // Fleet extras (run_fleet_shard only; idle in campaign use). Sized at
  // construction so fleet runs stay allocation-free in the steady state
  // just like campaign batches.
  LaneBilbo fleet_input_gen;                   // per-lane input sequences
  std::vector<std::uint64_t> fleet_po_stream;  // pair masks, W words each:
  std::vector<std::uint64_t> fleet_d_stream;   //   even bit 2j = pair j
  std::vector<std::uint64_t> fleet_misr_sig;
  std::vector<std::uint64_t> fleet_any_sig;
  std::vector<Fault> fleet_faults;             // defect-sampler sink
  std::vector<char> fleet_defective;           // per-pair defect flags

  /// `full` is the whole-netlist program (slot 0), shared by all workers
  /// and outliving the scratch. Takes only `output_misr_width`, not the
  /// whole SelfTestPlan: scratch is cached/pooled per (structure,
  /// lane_words, MISR width) tuple -- JobCache's warm key fixes lane_words
  /// at kMaxLaneWords -- and this signature is what proves plans differing
  /// in anything else can share it safely.
  CampaignScratch(const ControllerStructure& cs, const CompiledNetlist& full,
                  std::size_t output_misr_width, const PinMap& pins)
      : cs(cs),
        pins(pins),
        faults(full),
        cn(&full),
        ev(&events[0]),
        bank_a(cs.nl, cs.reg_a, full.lane_words()),
        bank_b(cs.nl, cs.reg_b, full.lane_words()),
        out_misr(output_misr_width, full.lane_words()),
        input_gen(std::max<std::size_t>(8, cs.pi.size())),
        in_lanes(cs.nl.num_inputs() * full.lane_words(), 0),
        dff_lanes(cs.nl.num_dffs() * full.lane_words(), 0),
        flat_values(cs.nl.num_nets() * full.lane_words(), 0),
        diff_mask(full.lane_words(), 0),
        fleet_input_gen(std::max<std::size_t>(8, cs.pi.size()),
                        full.lane_words()),
        fleet_po_stream(full.lane_words(), 0),
        fleet_d_stream(full.lane_words(), 0),
        fleet_misr_sig(full.lane_words(), 0),
        fleet_any_sig(full.lane_words(), 0),
        fleet_defective(fleet_instances_per_run(full.lane_words()), 0) {
    const unsigned W = full.lane_words();
    const std::vector<std::uint8_t> init = cs.nl.initial_state();
    init_dff_lanes.assign(init.size() * W, 0);
    for (std::size_t k = 0; k < init.size(); ++k)
      if (init[k])
        for (unsigned w = 0; w < W; ++w)
          init_dff_lanes[k * W + w] = ~std::uint64_t{0};
    // The test-mode pin and the unused input slots never change: set them
    // once, the per-cycle loop only rewrites toggled functional inputs.
    if (pins.test_slot != SIZE_MAX)
      for (unsigned w = 0; w < W; ++w)
        in_lanes[pins.test_slot * W + w] = ~std::uint64_t{0};
    batch.reserve(faults_per_run(W));
  }

  /// Run the next lane runs on `program`, keeping its resident event
  /// state in `slot`.
  void use(const CompiledNetlist& program, std::size_t slot) {
    cn = &program;
    ev = &events[slot];
  }
};

// The flat hand-off (see DESIGN.md, "Lane retirement and the flat
// hand-off"): an event-engine lane run that re-evaluated more than
// kHandoffPercent % of the ops per cycle over its first kHandoffWindow
// cycles finishes on the flat evaluator, which is cheaper at that activity
// and gives bit-identical values.
constexpr std::size_t kHandoffWindow = 64;
constexpr std::uint64_t kHandoffPercent = 30;

/// The one place a lane run -- a (session, batch) campaign run, a fleet
/// run or a functional batch -- evaluates a cycle. cycle() evaluates
/// sc.in_lanes / sc.dff_lanes on the scratch's current program, counts the
/// cycle, its ops (num_ops() per flat cycle) and the ops the program
/// offers (num_ops() per cycle) into the scratch, and polls the budget's
/// clock and cancel token (spend(0)). One LaneCycle spans one lane run, so
/// the sessions of a fleet run share one hand-off window. The hand-off
/// reads only op counts, so every counter repeats per input.
class LaneCycle {
 public:
  LaneCycle(CampaignScratch& sc, CampaignEngine engine, Budget& budget)
      : sc_(sc), engine_(engine), budget_(budget) {}

  /// The W-strided net values of this cycle, or nullptr when the budget
  /// is exhausted and the run must be abandoned.
  const std::uint64_t* cycle() {
    if (budget_.spend(0)) return nullptr;
    const CompiledNetlist& cn = *sc_.cn;
    ++sc_.cycles;
    sc_.offered += cn.num_ops();
    if (engine_ == CampaignEngine::kEvent) {
      EventScratch& ev = *sc_.ev;
      const std::uint64_t before = ev.ops_evaluated;
      cn.evaluate_event(sc_.faults, sc_.in_lanes.data(), sc_.dff_lanes.data(), ev);
      const std::uint64_t ops = ev.ops_evaluated - before;
      sc_.ops += ops;
      window_ops_ += ops;
      if (++watched_ == kHandoffWindow &&
          window_ops_ * 100 > kHandoffPercent * kHandoffWindow * cn.num_ops())
        engine_ = CampaignEngine::kFlat;
      return ev.values.data();
    }
    cn.evaluate(sc_.faults, sc_.in_lanes.data(), sc_.dff_lanes.data(),
                sc_.flat_values.data());
    sc_.ops += cn.num_ops();
    return sc_.flat_values.data();
  }

 private:
  CampaignScratch& sc_;
  CampaignEngine engine_;
  Budget& budget_;
  std::size_t watched_ = 0;
  std::uint64_t window_ops_ = 0;
};

// --- the lane-session loop and its three parameters ----------------------------
//
// Stimulus: drive() writes this cycle's input lanes, step() advances.
// Clocking: deposit() writes the register lanes before the evaluation,
// clock(values) latches the evaluated values. The observer is a callable
// on the evaluated values that returns false to end the session early.

/// Campaign and functional stimulus: the input generator broadcast onto
/// every lane, seeded at construction. Only PIs whose bit toggled since the
/// previous cycle rewrite their lane group; the first cycle rewrites all.
struct BroadcastInputs {
  CampaignScratch& sc;
  std::uint64_t prev;

  BroadcastInputs(CampaignScratch& scratch, std::uint64_t seed) : sc(scratch) {
    sc.input_gen.seed(seed);
    prev = ~sc.input_gen.state();
  }
  void drive() {
    const unsigned W = sc.cn->lane_words();
    const std::uint64_t word = sc.input_gen.state();
    const std::uint64_t delta = word ^ prev;
    prev = word;
    for (std::size_t k = 0; k < sc.pins.pi_slot.size(); ++k)
      if ((delta >> k) & 1) {
        const std::uint64_t bit = ((word >> k) & 1) ? ~std::uint64_t{0} : 0;
        std::uint64_t* dst = sc.in_lanes.data() + sc.pins.pi_slot[k] * W;
        for (unsigned w = 0; w < W; ++w) dst[w] = bit;
      }
  }
  void step() { sc.input_gen.clock(BilboMode::kGenerate); }
};

/// Fleet stimulus: per-lane input generator rows, seeded per instance by
/// the caller. Lanes genuinely differ, so every PI row is rewritten each cycle.
struct LaneInputs {
  CampaignScratch& sc;

  void drive() {
    const unsigned W = sc.cn->lane_words();
    for (std::size_t k = 0; k < sc.pins.pi_slot.size(); ++k) {
      const std::uint64_t* src = sc.fleet_input_gen.row(k);
      std::uint64_t* dst = sc.in_lanes.data() + sc.pins.pi_slot[k] * W;
      for (unsigned w = 0; w < W; ++w) dst[w] = src[w];
    }
  }
  void step() { sc.fleet_input_gen.clock(BilboMode::kGenerate); }
};

/// Self-test clocking: the two BILBO banks in the session's roles (reset
/// with its seeds at construction) and the output MISR absorbing the
/// primary outputs.
struct BilboClocking {
  CampaignScratch& sc;

  BilboClocking(CampaignScratch& scratch, const SessionSpec& spec) : sc(scratch) {
    sc.bank_a.reset(spec.role_a, spec.gen_seed);
    sc.bank_b.reset(spec.role_b, spec.gen_seed * 3 + 1);
  }
  void deposit() {
    sc.bank_a.deposit(sc.dff_lanes.data());
    sc.bank_b.deposit(sc.dff_lanes.data());
  }
  void clock(const std::uint64_t* values) {
    absorb_output_lanes(sc.out_misr, values, sc.cs.po, sc.cn->lane_words());
    sc.bank_a.clock(values);
    sc.bank_b.clock(values);
  }
};

/// System-mode clocking (the functional pass): every DFF lane is fed back
/// from its D net.
struct SystemClocking {
  CampaignScratch& sc;

  void deposit() {}
  void clock(const std::uint64_t* values) {
    const unsigned W = sc.cn->lane_words();
    for (std::size_t k = 0; k < sc.cn->num_dffs(); ++k)
      std::copy_n(values + std::size_t{sc.cn->dff_d(k)} * W, W,
                  sc.dff_lanes.begin() + k * W);
  }
};

/// The one lane-session loop: `cycles` cycles over the faults in sc.batch.
/// Set-up installs the faults, loads the initial DFF lanes and invalidates
/// the event scratch, so the first cycle takes the full-evaluation path
/// (the banks and the stimulus were set up by the constructors of
/// `clocking` and `stimulus`). Each cycle drives the stimulus, deposits the
/// registers, evaluates, clocks, lets `observe` see the values and steps
/// the stimulus. Returns false when the budget abandoned the session.
template <class Stimulus, class Clocking, class Observer>
bool run_lane_session(CampaignScratch& sc, LaneCycle& eval, std::size_t cycles,
                      Stimulus&& stimulus, Clocking&& clocking, Observer&& observe) {
  sc.faults.set(sc.batch);
  std::copy(sc.init_dff_lanes.begin(), sc.init_dff_lanes.end(),
            sc.dff_lanes.begin());
  sc.cn->reset(*sc.ev);
  bool completed = true;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    stimulus.drive();
    clocking.deposit();
    const std::uint64_t* values = eval.cycle();
    if (values == nullptr) {
      completed = false;
      break;
    }
    clocking.clock(values);
    if (!observe(values)) break;
    stimulus.step();
  }
  sc.faults.clear();
  return completed;
}

/// Campaign runs observe nothing per cycle: verdicts come from the final
/// signatures.
constexpr auto kSignaturesOnly = [](const std::uint64_t*) { return true; };

// Per-(session, role) salts for fleet sub-seed derivation: splitmix64 is a
// bijection, so for any fixed salt the sub-seeds inherit the instance
// keys' pairwise distinctness.
constexpr std::uint64_t kFleetInputSalt = 0x464c4545542d494eULL;  // "FLEET-IN"
constexpr std::uint64_t kFleetGenASalt = 0x464c4545542d4741ULL;   // "FLEET-GA"
constexpr std::uint64_t kFleetGenBSalt = 0x464c4545542d4742ULL;   // "FLEET-GB"

/// One full self-test execution of n_pairs chip instances packed as
/// (reference, faulty) lane pairs. The caller has loaded sc.batch with the
/// sampled defects (lane 2j+1 for instance j); this fills the four fleet
/// pair masks (even bit 2j = pair j): PO stream diff, compressing-bank D
/// stream diff, final output-MISR signature diff, and any-signature diff.
/// Returns false when the budget abandoned the run (the masks are then
/// meaningless).
bool run_fleet_lanes(const SelfTestPlan& plan, CampaignScratch& sc,
                     CampaignEngine engine, Budget& budget, std::size_t n_pairs,
                     std::uint64_t base_seed, std::uint64_t first_instance) {
  const unsigned W = sc.cn->lane_words();
  constexpr std::uint64_t kEven = 0x5555555555555555ULL;
  sc.out_misr.reset(0);
  std::fill(sc.fleet_po_stream.begin(), sc.fleet_po_stream.end(), 0);
  std::fill(sc.fleet_d_stream.begin(), sc.fleet_d_stream.end(), 0);
  std::fill(sc.fleet_misr_sig.begin(), sc.fleet_misr_sig.end(), 0);
  std::fill(sc.fleet_any_sig.begin(), sc.fleet_any_sig.end(), 0);
  LaneCycle eval(sc, engine, budget);

  for (std::size_t si = 0; si < plan.sessions.size(); ++si) {
    const SessionSpec& spec = plan.sessions[si];
    // Broadcast defaults first (also covers the unused tail lanes when the
    // final run is short: they carry no instance, and the input generator
    // takes them out of 0 on the first clock), then overwrite the instance
    // pairs with their derived seeds -- both lanes of a pair get the SAME
    // seed, so the only divergence inside a pair is the injected defect.
    BilboClocking clocking(sc, spec);
    sc.fleet_input_gen.reset(0);
    const std::size_t in_width = sc.fleet_input_gen.width();
    for (std::size_t j = 0; j < n_pairs; ++j) {
      const std::uint64_t key =
          fleet_instance_key(base_seed, first_instance + j);
      const std::uint64_t in_state =
          nonzero_lfsr_state(splitmix64(key ^ (kFleetInputSalt + si)), in_width);
      sc.fleet_input_gen.load_lane(2 * j, in_state);
      sc.fleet_input_gen.load_lane(2 * j + 1, in_state);
      if (spec.role_a == BilboMode::kGenerate && !sc.bank_a.empty()) {
        const std::uint64_t s = nonzero_lfsr_state(
            splitmix64(key ^ (kFleetGenASalt + si)), sc.bank_a.width());
        sc.bank_a.load_lane(2 * j, s);
        sc.bank_a.load_lane(2 * j + 1, s);
      }
      if (spec.role_b == BilboMode::kGenerate && !sc.bank_b.empty()) {
        const std::uint64_t s = nonzero_lfsr_state(
            splitmix64(key ^ (kFleetGenBSalt + si)), sc.bank_b.width());
        sc.bank_b.load_lane(2 * j, s);
        sc.bank_b.load_lane(2 * j + 1, s);
      }
    }

    const auto observe_streams = [&](const std::uint64_t* values) {
      // Did the defect show on a primary output THIS cycle (what an
      // external tester watching the pins would see)...
      for (NetId net : sc.cs.po) {
        const std::uint64_t* src = values + std::size_t{net} * W;
        for (unsigned w = 0; w < W; ++w)
          sc.fleet_po_stream[w] |= (src[w] ^ (src[w] >> 1)) & kEven;
      }
      // ...and did it reach a compacting register's D inputs? (The banks'
      // clock() leaves the gathered D rows in place for the pair compare.)
      if (spec.role_a == BilboMode::kCompress)
        sc.bank_a.accumulate_pair_d_diff(sc.fleet_d_stream.data());
      if (spec.role_b == BilboMode::kCompress && !sc.bank_b.empty())
        sc.bank_b.accumulate_pair_d_diff(sc.fleet_d_stream.data());
      return true;
    };
    if (!run_lane_session(sc, eval, spec.cycles, LaneInputs{sc}, clocking,
                          observe_streams))
      return false;

    if (spec.role_a == BilboMode::kCompress)
      sc.bank_a.accumulate_pair_diff(sc.fleet_any_sig.data());
    if (spec.role_b == BilboMode::kCompress && !sc.bank_b.empty())
      sc.bank_b.accumulate_pair_diff(sc.fleet_any_sig.data());
  }
  sc.out_misr.accumulate_pair_diff(sc.fleet_misr_sig.data());
  for (unsigned w = 0; w < W; ++w)
    sc.fleet_any_sig[w] |= sc.fleet_misr_sig[w];
  return true;
}

}  // namespace

// --- warm campaign state -----------------------------------------------------

/// The program a campaign session runs on: the compiled observation cone
/// of the session (the fanin closure, stopping at DFF Q pins, of the
/// primary outputs and of the D nets of every bank the session clocks in
/// kCompress or kSystem mode) and its member nets. A session whose cone
/// holds every op runs on the full program.
struct SessionProgram {
  std::shared_ptr<const CompiledNetlist> program;
  std::vector<char> observed;  // per net; empty: every net (the full program)
  std::size_t slot = 0;        // EventScratch slot in every worker's scratch

  bool observes(NetId net) const { return observed.empty() || observed[net] != 0; }
};

/// Compiled programs + pin map + scratch free-list for one (structure, MISR
/// width, lane_words) tuple. Defined here so it can hold the TU-local
/// CampaignScratch; callers only ever see the opaque handle.
class CampaignWarmState {
 public:
  // Deliberately takes output_misr_width rather than a SelfTestPlan: the
  // cache keys warm state on (structure, MISR width) at one lane width, and
  // this constructor consuming nothing else from a plan is what makes that
  // key sufficient by construction.
  CampaignWarmState(const ControllerStructure& cs, std::size_t output_misr_width,
                    unsigned lane_words)
      : cs_(&cs), misr_width_(output_misr_width), pins_(map_pins(cs)) {
    full_.program = std::make_shared<const CompiledNetlist>(cs.nl, lane_words);
  }

  unsigned lane_words() const { return full_.program->lane_words(); }

  /// The program of a session in `spec`'s roles. Only which banks the
  /// session observes matters, so there are at most four cones per
  /// structure; each is compiled on first use (thread-safe) and shared by
  /// every worker and campaign of this warm state from then on.
  const SessionProgram& program_for(const SessionSpec& spec) {
    const auto reads_d = [](BilboMode mode, const std::vector<std::size_t>& bank) {
      return !bank.empty() &&
             (mode == BilboMode::kCompress || mode == BilboMode::kSystem);
    };
    const bool obs_a = reads_d(spec.role_a, cs_->reg_a);
    const bool obs_b = reads_d(spec.role_b, cs_->reg_b);
    const std::size_t key = (obs_a ? 1 : 0) | (obs_b ? 2 : 0);
    std::call_once(cone_once_[key], [&] {
      const Netlist& nl = cs_->nl;
      std::vector<NetId> roots = cs_->po;
      const auto add_d = [&](const std::vector<std::size_t>& bank) {
        for (const std::size_t k : bank) roots.push_back(nl.gate(nl.dffs()[k]).fanins[0]);
      };
      if (obs_a) add_d(cs_->reg_a);
      if (obs_b) add_d(cs_->reg_b);
      std::vector<char> cone = fanin_cone(nl, roots);
      if (std::all_of(nl.program().begin(), nl.program().end(),
                      [&](const NetOp& op) { return cone[op.out] != 0; })) {
        cones_[key] = full_;
        return;
      }
      cones_[key].program =
          std::make_shared<const CompiledNetlist>(nl, lane_words(), cone);
      cones_[key].observed = std::move(cone);
      cones_[key].slot = 1 + key;
    });
    return cones_[key];
  }

  /// What differs between this warm state's binding and (cs, misr_width,
  /// words), or "" when it was built for exactly that tuple.
  std::string mismatch(const ControllerStructure& cs, std::size_t misr_width,
                       unsigned words) const {
    if (cs_ != &cs) return "warm state was built for a different structure object";
    if (lane_words() != words)
      return "warm lane_words=" + std::to_string(lane_words()) +
             " != lane_words=" + std::to_string(words);
    if (misr_width_ != misr_width)
      return "warm misr_width=" + std::to_string(misr_width_) +
             " != plan output_misr_width=" + std::to_string(misr_width);
    return "";
  }

  /// A leased scratch: a parked one (warm start) or a fresh one, returned
  /// to the free-list on destruction -- also when an engine or sampler
  /// throw unwinds the lane run, so no scratch leaks out of the warm state.
  /// A lease starts on the full program.
  class Lease {
   public:
    explicit Lease(CampaignWarmState& warm) : warm_(warm) {
      {
        std::lock_guard<std::mutex> lock(warm_.mu_);
        if (!warm_.free_.empty()) {
          sc_ = std::move(warm_.free_.back());
          warm_.free_.pop_back();
          warm_.reuses_.fetch_add(1, std::memory_order_relaxed);
          sc_->use(*warm_.full_.program, warm_.full_.slot);
          return;
        }
      }
      warm_.builds_.fetch_add(1, std::memory_order_relaxed);
      sc_ = std::make_unique<CampaignScratch>(*warm_.cs_, *warm_.full_.program,
                                              warm_.misr_width_, warm_.pins_);
    }
    ~Lease() {
      std::lock_guard<std::mutex> lock(warm_.mu_);
      warm_.free_.push_back(std::move(sc_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    CampaignScratch& operator*() const { return *sc_; }

   private:
    CampaignWarmState& warm_;
    std::unique_ptr<CampaignScratch> sc_;
  };

  std::size_t reuses() const { return reuses_.load(std::memory_order_relaxed); }
  std::size_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  const ControllerStructure* cs_;
  std::size_t misr_width_;
  PinMap pins_;
  SessionProgram full_;  // the whole netlist: fleet runs and every lease's start
  std::array<std::once_flag, 4> cone_once_;
  std::array<SessionProgram, 4> cones_;
  std::mutex mu_;
  std::vector<std::unique_ptr<CampaignScratch>> free_;
  std::atomic<std::size_t> reuses_{0};
  std::atomic<std::size_t> builds_{0};
};

std::shared_ptr<CampaignWarmState> make_campaign_warm_state(
    const ControllerStructure& cs, std::size_t output_misr_width,
    unsigned lane_words) {
  if (!lane_words_supported(lane_words))
    throw Error(ErrorCode::kInvalidInput,
                "make_campaign_warm_state: unsupported lane_words",
                "lane_words=" + std::to_string(lane_words));
  return std::make_shared<CampaignWarmState>(cs, output_misr_width, lane_words);
}

std::size_t campaign_warm_reuses(const CampaignWarmState& warm) {
  return warm.reuses();
}
std::size_t campaign_warm_builds(const CampaignWarmState& warm) {
  return warm.builds();
}

void CampaignOptions::validate(const SelfTestPlan& plan) const {
  // Collect EVERY problem before throwing, so a caller with three bad
  // fields fixes them in one round trip instead of three.
  std::string problems;
  const auto add = [&problems](const std::string& p) {
    if (!problems.empty()) problems += "; ";
    problems += p;
  };
  switch (engine) {
    case CampaignEngine::kEvent:
    case CampaignEngine::kFlat:
      break;
    default:
      add("engine must be event or flat; got enum value " +
          std::to_string(static_cast<int>(engine)));
      break;
  }
  if (!lane_words_supported(lane_words))
    add("lane_words must be 1, 4 or 8 (64, 256 or 512 lanes); got " +
        std::to_string(lane_words));
  if (num_threads == 0) add("num_threads must be >= 1; got 0");
  if (pool != nullptr && num_threads > 1)
    add("scheduler-owned campaign (pool set) must pass num_threads = 1: "
        "nesting a per-campaign thread pool under the shared work-stealing "
        "pool oversubscribes every core -- size the shared pool with the "
        "orchestrator's --jobs flag instead; got num_threads = " +
        std::to_string(num_threads));
  const std::string plan_bad = plan_problems(plan);
  if (!plan_bad.empty()) add(plan_bad);
  if (!problems.empty())
    throw Error(ErrorCode::kInvalidInput, "invalid fault campaign options",
                problems);
}

CampaignResult run_fault_campaign(const ControllerStructure& cs, const SelfTestPlan& plan,
                                  const CampaignOptions& options,
                                  std::optional<std::vector<Fault>> faults) {
  const Netlist& nl = cs.nl;
  if (!nl.finalized())
    throw std::logic_error("run_fault_campaign: netlist not finalized");
  // Reject every bad option before any simulation work, so a bad driver
  // flag fails loudly instead of misbehaving batches later.
  options.validate(plan);
  const std::vector<Fault> list =
      faults ? std::move(*faults) : enumerate_stuck_faults(nl);
  check_fault_list(nl, list);

  CampaignResult res;
  res.raw.total = list.size();
  // A budget that is exhausted (or empty) on arrival skips all simulation:
  // zero batches ran, every fault is unsimulated, coverage() reports 0.
  const bool skip_all =
      options.budget.exhausted() || options.budget.work_allowance() == 0;

  std::vector<Fault> reps;
  std::vector<std::size_t> class_of;
  if (options.collapse) {
    CollapsedFaults cf = collapse_faults(nl, list);
    reps = std::move(cf.representatives);
    class_of = std::move(cf.class_of);
  } else {
    reps = list;
    class_of.resize(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) class_of[i] = i;
  }
  res.collapsed_total = reps.size();

  std::vector<char> rep_detected(reps.size(), 0);
  std::vector<char> rep_simulated(reps.size(), 0);

  // A skipped campaign falls through to the (all-unsimulated) accounting.
  if (!skip_all && !reps.empty()) {
    // Warm state (when given) carries the compiled program, the pin map
    // and parked scratch for this exact structure; verify the binding
    // before trusting any of it. Without one, a local warm state compiles
    // the program once and the chunks lease scratch from it the same way.
    std::shared_ptr<CampaignWarmState> local_warm;
    CampaignWarmState* warm = options.warm;
    if (warm != nullptr) {
      const std::string mismatch =
          warm->mismatch(cs, plan.output_misr_width, options.lane_words);
      if (!mismatch.empty())
        throw Error(ErrorCode::kInvalidInput,
                    "run_fault_campaign: incompatible warm state", mismatch);
    } else {
      local_warm = make_campaign_warm_state(cs, plan.output_misr_width,
                                            options.lane_words);
      warm = local_warm.get();
    }
    // Each run simulates one fault per lane, minus the reserved fault-free
    // reference lane 0.
    const std::size_t batch_size = faults_per_run(options.lane_words);
    const std::size_t parallelism =
        options.pool ? options.pool->size() : options.num_threads;
    const std::unique_ptr<TaskPool> own_pool =
        options.pool ? nullptr
                     : make_private_pool(std::min(
                           parallelism,
                           (reps.size() + batch_size - 1) / batch_size));
    TaskPool* pool = options.pool ? options.pool : own_pool.get();

    // Session-major: every session runs its survivors -- reps not yet
    // retired, in rep order -- in fresh batches. A compacting bank's
    // signature is final when its session ends, so a lane it flagged is
    // retired as detected; the rest carry their output-MISR lane state
    // into the next session, and the MISR is compared after the last one.
    // The MISR is linear over GF(2), so a lane's difference from lane 0
    // evolves independently of lane 0's own state: each survivor carries
    // that difference (misr_delta) and lane 0 restarts from 0, which
    // leaves every final compare unchanged.
    //
    // Each session runs on its observation cone (SessionProgram): no net
    // outside it can reach a primary output or the D input of a bank that
    // uses D this session, since generating and holding banks ignore D.
    // A survivor whose fault net lies outside the cone and whose MISR
    // difference is 0 therefore leaves every signature of the session
    // equal to lane 0's and its difference at 0: it skips the session
    // unchanged (in the last session it is simulated and undetected). A
    // nonzero difference still evolves under the MISR feedback, so such a
    // survivor runs. Runners are batched in rep order: batch b covers
    // runners [Bb, Bb+B); chunk c takes batches c, c+K, ... (K =
    // num_chunks) and keeps one budget copy across the sessions. Chunks
    // write disjoint rep ranges, so the result is identical for every
    // chunk count, thread count and interleaving -- inline, on a private
    // pool or on the scheduler's shared pool (a wall-clock budget may cut
    // different runs from one call to the next; every retired verdict
    // stays exact). A fault that did not finish the plan counts as
    // unsimulated.
    struct ChunkTally {
      Budget budget;
      std::uint64_t cycles = 0, ops = 0, offered = 0;
      std::size_t runs = 0;
    };
    std::vector<ChunkTally> chunks(parallelism, ChunkTally{options.budget});
    std::vector<char> batch_ran((reps.size() + batch_size - 1) / batch_size, 0);
    std::vector<std::size_t> survivors(reps.size()), runners, next;
    for (std::size_t i = 0; i < reps.size(); ++i) survivors[i] = i;
    runners.reserve(reps.size());
    next.reserve(reps.size());
    std::vector<std::uint64_t> misr_delta(reps.size(), 0);

    for (std::size_t si = 0; si < plan.sessions.size() && !survivors.empty(); ++si) {
      const SessionSpec& spec = plan.sessions[si];
      const bool last = si + 1 == plan.sessions.size();
      const SessionProgram& sp = warm->program_for(spec);
      runners.clear();
      for (const std::size_t rep : survivors)
        if (sp.observes(reps[rep].net) || misr_delta[rep] != 0) runners.push_back(rep);
      res.fault_sessions_skipped += survivors.size() - runners.size();
      const std::size_t num_batches = (runners.size() + batch_size - 1) / batch_size;
      const std::size_t num_chunks = std::min(parallelism, num_batches);
      std::fill(batch_ran.begin(), batch_ran.end(), 0);
      auto chunk_fn = [&](std::size_t c) {
        ChunkTally& tally = chunks[c];
        const CampaignWarmState::Lease lease(*warm);
        CampaignScratch& sc = *lease;
        sc.use(*sp.program, sp.slot);
        const std::uint64_t cycles0 = sc.cycles;
        const std::uint64_t ops0 = sc.ops;
        const std::uint64_t offered0 = sc.offered;
        for (std::size_t b = c; b < num_batches; b += num_chunks) {
          if (tally.budget.spend(1)) break;
          const std::size_t begin = b * batch_size;
          const std::size_t end = std::min(runners.size(), begin + batch_size);
          sc.batch.clear();
          sc.out_misr.reset(0);
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t rep = runners[i];
            const unsigned lane = static_cast<unsigned>(i - begin + 1);
            sc.batch.push_back({reps[rep].net, reps[rep].stuck_value, lane});
            sc.out_misr.load_lane(lane, misr_delta[rep]);
          }
          LaneCycle eval(sc, options.engine, tally.budget);
          if (!run_lane_session(sc, eval, spec.cycles,
                                BroadcastInputs(sc, spec.input_seed),
                                BilboClocking(sc, spec), kSignaturesOnly))
            break;
          std::fill(sc.diff_mask.begin(), sc.diff_mask.end(), 0);
          if (spec.role_a == BilboMode::kCompress)
            sc.bank_a.accumulate_diff(sc.diff_mask.data());
          if (spec.role_b == BilboMode::kCompress && !sc.bank_b.empty())
            sc.bank_b.accumulate_diff(sc.diff_mask.data());
          if (last) sc.out_misr.accumulate_diff(sc.diff_mask.data());
          const std::uint64_t ref = sc.out_misr.lane_state(0);
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t rep = runners[i];
            const unsigned lane = static_cast<unsigned>(i - begin + 1);
            if ((sc.diff_mask[lane >> 6] >> (lane & 63)) & 1) {
              rep_detected[rep] = 1;
              rep_simulated[rep] = 1;
            } else if (last) {
              rep_simulated[rep] = 1;
            } else {
              misr_delta[rep] = sc.out_misr.lane_state(lane) ^ ref;
            }
          }
          batch_ran[b] = 1;
          ++tally.runs;
        }
        tally.cycles += sc.cycles - cycles0;
        tally.ops += sc.ops - ops0;
        tally.offered += sc.offered - offered0;
      };
      if (num_chunks > 0) run_chunks(pool, num_chunks, chunk_fn);

      // The next session's survivors, in rep order: the skipped ones, and
      // the unretired runners of the runs that completed. `runners` is a
      // subsequence of `survivors`, so one merge pass tells them apart.
      next.clear();
      std::size_t r = 0;
      for (const std::size_t rep : survivors) {
        if (r < runners.size() && runners[r] == rep) {
          if (batch_ran[r / batch_size] && !rep_detected[rep]) next.push_back(rep);
          ++r;
        } else if (last) {
          rep_simulated[rep] = 1;
        } else {
          next.push_back(rep);
        }
      }
      survivors.swap(next);
    }
    res.ops_per_cycle = nl.program().size();
    for (const ChunkTally& tally : chunks) {
      res.cycles_simulated += tally.cycles;
      res.ops_evaluated += tally.ops;
      res.ops_offered += tally.offered;
      res.session_runs += tally.runs;
    }
  }

  // One deterministic allocation regardless of the detected count (keeps
  // campaign heap traffic independent of plan length; see allocfree_test).
  // Faults whose class was never simulated land in neither bucket: not
  // detected, not listed as undetected -- only counted by total.
  res.raw.undetected.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::size_t cls = class_of[i];
    if (!rep_simulated[cls]) continue;
    ++res.faults_simulated;
    if (rep_detected[cls]) {
      ++res.raw.detected;
    } else {
      res.raw.undetected.push_back(list[i]);
    }
  }
  res.raw.simulated = res.faults_simulated;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    res.collapsed_detected += rep_detected[i] ? 1 : 0;
    res.collapsed_simulated += rep_simulated[i] ? 1 : 0;
  }

  Budget probe = options.budget;
  res.degradation = truncation_label(
      "campaign", res.collapsed_simulated, res.collapsed_total,
      res.collapsed_simulated < res.collapsed_total,
      probe.exhausted() ? probe.reason() : "",
      strprintf("simulated %zu/%zu faults; coverage() counts the rest as "
                "undetected",
                res.faults_simulated, res.raw.total));
  return res;
}

// --- fleet shard kernel ------------------------------------------------------

std::uint64_t fleet_instance_key(std::uint64_t base_seed,
                                 std::uint64_t instance) {
  // base + (instance+1)*odd is injective in `instance` (mod 2^64) and the
  // SplitMix64 finalizer is a bijection, so keys are pairwise distinct.
  return splitmix64(base_seed + (instance + 1) * 0x9e3779b97f4a7c15ULL);
}

void FleetShardStats::merge(const FleetShardStats& o) {
  instances += o.instances;
  defective += o.defective;
  po_stream_detected += o.po_stream_detected;
  any_stream_detected += o.any_stream_detected;
  misr_detected += o.misr_detected;
  sig_detected += o.sig_detected;
  aliases += o.aliases;
  escapes += o.escapes;
  session_runs += o.session_runs;
  cycles += o.cycles;
  for (std::size_t b = 0; b < signature_histogram.size(); ++b)
    signature_histogram[b] += o.signature_histogram[b];
}

bool run_fleet_shard(const ControllerStructure& cs, const SelfTestPlan& plan,
                     CampaignWarmState& warm, std::uint64_t base_seed,
                     std::uint64_t first, std::uint64_t count,
                     const FleetDefectSampler& sampler, CampaignEngine engine,
                     Budget& budget, FleetShardStats& st) {
  if (!cs.nl.finalized())
    throw std::logic_error("run_fleet_shard: netlist not finalized");
  std::string problems;
  const auto add = [&problems](const std::string& p) {
    if (!problems.empty()) problems += "; ";
    problems += p;
  };
  const std::string plan_bad = plan_problems(plan);
  if (!plan_bad.empty()) add(plan_bad);
  // A fleet runs at its warm state's own lane width.
  const std::string mismatch =
      warm.mismatch(cs, plan.output_misr_width, warm.lane_words());
  if (!mismatch.empty()) add(mismatch);
  if (!sampler) add("null defect sampler");
  if (!problems.empty())
    throw Error(ErrorCode::kInvalidInput, "invalid fleet shard", problems);

  const CampaignWarmState::Lease lease(warm);
  CampaignScratch& sc = *lease;

  const unsigned W = sc.cn->lane_words();
  const std::size_t per_run = fleet_instances_per_run(W);
  const std::uint64_t cycles0 = sc.cycles;
  bool completed = true;
  std::uint64_t done = 0;
  while (done < count) {
    // Truncation: the shard's remaining instances stay unsimulated; every
    // completed run's counts are exact.
    if (budget.spend(1)) {
      completed = false;
      break;
    }
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(per_run, count - done));
    sc.batch.clear();
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t instance = first + done + j;
      sc.fleet_faults.clear();
      sampler(instance, sc.fleet_faults);
      sc.fleet_defective[j] = sc.fleet_faults.empty() ? 0 : 1;
      for (const Fault& f : sc.fleet_faults)
        sc.batch.push_back(
            {f.net, f.stuck_value, static_cast<unsigned>(2 * j + 1)});
    }
    if (!run_fleet_lanes(plan, sc, engine, budget, n, base_seed, first + done)) {
      completed = false;
      break;
    }
    ++st.session_runs;

    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t pos = 2 * j;  // pair flag = even lane bit
      const std::size_t word = pos >> 6;
      const unsigned bit = static_cast<unsigned>(pos & 63);
      const bool po = (sc.fleet_po_stream[word] >> bit) & 1;
      const bool dstr = (sc.fleet_d_stream[word] >> bit) & 1;
      const bool misr = (sc.fleet_misr_sig[word] >> bit) & 1;
      const bool sig = (sc.fleet_any_sig[word] >> bit) & 1;
      const bool any_stream = po || dstr;
      ++st.instances;
      st.defective += sc.fleet_defective[j] ? 1 : 0;
      st.po_stream_detected += po ? 1 : 0;
      st.any_stream_detected += any_stream ? 1 : 0;
      st.misr_detected += misr ? 1 : 0;
      st.sig_detected += sig ? 1 : 0;
      st.aliases += (po && !misr) ? 1 : 0;
      st.escapes += (any_stream && !sig) ? 1 : 0;
      if (sc.fleet_defective[j])
        ++st.signature_histogram[sc.out_misr.lane_state(2 * j + 1) & 63];
    }
    done += n;
  }
  st.cycles += sc.cycles - cycles0;
  return completed;
}

CoverageResult measure_functional_coverage(const ControllerStructure& cs,
                                           std::size_t cycles,
                                           std::optional<std::vector<Fault>> faults,
                                           std::uint64_t seed, const Budget& budget,
                                           Degradation* degradation) {
  const Netlist& nl = cs.nl;
  const std::vector<Fault> list =
      faults ? std::move(*faults) : enumerate_stuck_faults(cs.nl);
  check_fault_list(nl, list);

  CoverageResult res;
  res.total = list.size();
  Budget bud = budget;
  const bool skip_all = bud.exhausted() || bud.work_allowance() == 0;
  if (!skip_all && !list.empty()) {
    // Faults run kMaxLaneWords * 64 - 1 at a time on the lane kernel in
    // system mode: the inputs are the input LFSR's broadcast bits, the
    // test-mode pin stays 0, and every DFF lane is fed back from its D
    // net. A lane is detected once any primary-output word differs from
    // lane 0's, and a batch stops at the first cycle where all of its
    // lanes are detected.
    constexpr unsigned W = kMaxLaneWords;
    const PinMap pins = map_pins(cs);
    const CompiledNetlist program(nl, W);
    CampaignScratch sc(cs, program, 1, pins);
    if (pins.test_slot != SIZE_MAX)
      std::fill_n(sc.in_lanes.begin() + pins.test_slot * W, W, 0);
    // One allocation whatever the detected count, so the sweep's heap
    // traffic does not depend on the cycle count (see allocfree_test).
    res.undetected.reserve(list.size());
    std::uint64_t target[W];
    for (std::size_t begin = 0; begin < list.size();) {
      // One work unit = one fault: size the batch to the allowance left.
      const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
          std::min(faults_per_run(W), list.size() - begin),
          bud.work_allowance() - bud.work_spent()));
      if (bud.spend(n == 0 ? 1 : n)) break;
      sc.batch.clear();
      std::fill_n(target, W, 0);
      for (std::size_t j = 0; j < n; ++j) {
        const unsigned lane = static_cast<unsigned>(j + 1);
        sc.batch.push_back({list[begin + j].net, list[begin + j].stuck_value, lane});
        target[lane >> 6] |= std::uint64_t{1} << (lane & 63);
      }
      std::fill(sc.diff_mask.begin(), sc.diff_mask.end(), 0);
      LaneCycle eval(sc, CampaignEngine::kEvent, bud);
      const auto observe_outputs = [&](const std::uint64_t* values) {
        for (NetId net : nl.outputs()) {
          const std::uint64_t* row = values + std::size_t{net} * W;
          const std::uint64_t ref = (row[0] & 1) ? ~std::uint64_t{0} : 0;
          for (unsigned w = 0; w < W; ++w) sc.diff_mask[w] |= row[w] ^ ref;
        }
        std::uint64_t pending = 0;
        for (unsigned w = 0; w < W; ++w) pending |= target[w] & ~sc.diff_mask[w];
        return pending != 0;
      };
      if (!run_lane_session(sc, eval, cycles, BroadcastInputs(sc, seed),
                            SystemClocking{sc}, observe_outputs))
        break;
      for (std::size_t j = 0; j < n; ++j) {
        const unsigned lane = static_cast<unsigned>(j + 1);
        ++res.simulated;
        if ((sc.diff_mask[lane >> 6] >> (lane & 63)) & 1) {
          ++res.detected;
        } else {
          res.undetected.push_back(list[begin + j]);
        }
      }
      begin += n;
    }
  }
  if (degradation) {
    *degradation = truncation_label(
        "functional-coverage", res.simulated, res.total,
        res.simulated < res.total, bud.reason(),
        strprintf("simulated %zu/%zu faults functionally; coverage() counts "
                  "the rest as undetected",
                  res.simulated, res.total));
  }
  return res;
}

}  // namespace stc
