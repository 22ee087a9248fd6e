#pragma once
// State assignment: mapping symbolic states to binary codes.
//
// The paper's flow applies "state coding and logic minimization" to the
// constructed realization; this module provides the coding step. Every
// flow codes states naturally (state k -> binary k, minimal width).

#include <cstdint>
#include <vector>

#include "fsm/mealy.hpp"

namespace stc {

struct Encoding {
  std::size_t width = 0;                 // bits per state
  std::vector<std::uint64_t> codes;      // code per state id

  std::uint64_t code_of(State s) const { return codes.at(s); }

  /// True iff codes are distinct and fit the width.
  bool valid() const;

  /// States count.
  std::size_t num_states() const { return codes.size(); }
};

/// Minimal-width binary coding: state k -> k.
Encoding natural_encoding(std::size_t num_states);

}  // namespace stc
