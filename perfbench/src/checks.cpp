#include "checks.hpp"

#include <algorithm>

#include "netlist/eval64.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stcbench {

using namespace stc;

std::string cosim_against_table(const ControllerStructure& cs, const MealyMachine& m,
                                std::uint64_t seed, std::size_t cycles) {
  constexpr std::size_t kLanes = 64;
  const Netlist& nl = cs.nl;
  const CompiledNetlist cn(nl, 1);

  // Input slot of each functional input bit (inputs() order).
  std::vector<std::size_t> pi_slot(cs.pi.size());
  for (std::size_t b = 0; b < cs.pi.size(); ++b) {
    const auto it = std::find(nl.inputs().begin(), nl.inputs().end(), cs.pi[b]);
    if (it == nl.inputs().end()) return cs.kind + ": functional input not a netlist input";
    pi_slot[b] = static_cast<std::size_t>(it - nl.inputs().begin());
  }

  std::vector<std::uint64_t> in(nl.num_inputs(), 0);
  std::vector<std::uint64_t> dff(nl.num_dffs(), 0);
  std::vector<std::uint64_t> next(nl.num_dffs(), 0);
  std::vector<std::uint64_t> values(nl.num_nets(), 0);
  for (std::size_t k = 0; k < nl.num_dffs(); ++k)
    dff[k] = nl.gate(nl.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;

  std::vector<State> state(kLanes, m.reset_state());
  std::vector<Input> sym(kLanes, 0);
  const std::size_t obits = std::min(m.effective_output_bits(), cs.po.size());
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c) {
    std::fill(in.begin(), in.end(), 0);  // test_mode (fig2) stays 0
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      sym[lane] = static_cast<Input>(rng.below(m.num_inputs()));
      for (std::size_t b = 0; b < pi_slot.size(); ++b)
        if ((sym[lane] >> b) & 1) in[pi_slot[b]] |= std::uint64_t{1} << lane;
    }
    cn.evaluate(in.data(), dff.data(), values.data());
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const Output expect = m.output(state[lane], sym[lane]);
      for (std::size_t b = 0; b < obits; ++b) {
        const bool got = (values[cs.po[b]] >> lane) & 1;
        if (got != (((expect >> b) & 1) != 0))
          return strprintf("%s: cycle %zu lane %zu output bit %zu differs from the table",
                           cs.kind.c_str(), c, lane, b);
      }
      state[lane] = m.next(state[lane], sym[lane]);
    }
    for (std::size_t k = 0; k < nl.num_dffs(); ++k) next[k] = values[cn.dff_d(k)];
    dff.swap(next);
  }
  return "";
}

std::vector<Fault> sample_faults(const std::vector<Fault>& faults, std::size_t n,
                                 std::uint64_t seed) {
  std::vector<Fault> pool = faults;
  Rng rng(seed);
  rng.shuffle(pool);
  pool.resize(std::min(n, pool.size()));
  return pool;
}

std::string same_verdicts(const std::vector<Fault>& sample, const CoverageResult& a,
                          const CoverageResult& b) {
  const auto missed = [](const std::vector<Fault>& undetected, const Fault& f) {
    return std::find(undetected.begin(), undetected.end(), f) != undetected.end();
  };
  for (const Fault& f : sample) {
    if (missed(a.undetected, f) != missed(b.undetected, f))
      return strprintf("verdicts differ on the fault on net %u stuck-at-%d",
                       static_cast<unsigned>(f.net), f.stuck_value ? 1 : 0);
  }
  return "";
}

std::string oracle_agrees(const ControllerStructure& cs, const SelfTestPlan& plan,
                          const CampaignResult& campaign,
                          const std::vector<Fault>& sample) {
  const std::string why = same_verdicts(sample, campaign.raw, measure_coverage(cs, plan, sample));
  return why.empty() ? "" : cs.kind + ": campaign and serial oracle " + why;
}

}  // namespace stcbench
