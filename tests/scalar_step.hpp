#pragma once
// The tests' shorthand for one clock cycle of the scalar evaluator that
// returns the primary outputs.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace stc {

/// Netlist::step, then the primary-output values in outputs() order.
inline std::vector<std::uint8_t> step_outputs(const Netlist& nl,
                                              const std::vector<std::uint8_t>& in,
                                              std::vector<std::uint8_t>& state,
                                              NetId forced_net = kNoNet,
                                              bool forced_value = false) {
  std::vector<std::uint8_t> values;
  nl.step(in, state, values, forced_net, forced_value);
  std::vector<std::uint8_t> out;
  for (const NetId o : nl.outputs()) out.push_back(values[o]);
  return out;
}

}  // namespace stc
