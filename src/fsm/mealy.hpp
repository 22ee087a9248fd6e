#pragma once
// Mealy-type finite state machine (Definition 1 of the paper).
//
// M = (S, I, O, delta, lambda). States, inputs and outputs are dense
// 0-based indices; machines loaded from KISS2 additionally remember the
// binary widths of the input/output alphabets and symbolic state names.
//
// All algorithms in this library assume a *completely specified* machine:
// delta and lambda are total functions. `is_complete()` checks this and the
// KISS2 loader can complete partially specified tables on request.

#include <cstdint>
#include <string>
#include <vector>

namespace stc {

using State = std::uint32_t;
using Input = std::uint32_t;
using Output = std::uint32_t;

/// Sentinel for "transition not yet specified".
inline constexpr State kNoState = UINT32_MAX;
inline constexpr Output kNoOutput = UINT32_MAX;

/// Widest output alphabet a machine accepts: every output symbol is an
/// `Output` bit pattern, so at most 32 output bits (2^32 symbols). The
/// encoded blocks downstream rely on it (encoding/encoded_fsm.hpp).
inline constexpr std::size_t kMaxOutputBits = 32;

class MealyMachine {
 public:
  MealyMachine() = default;

  /// Create a machine with unspecified transition/output tables. Throws
  /// std::invalid_argument for an empty alphabet or more than
  /// 2^kMaxOutputBits outputs.
  MealyMachine(std::string name, std::size_t num_states, std::size_t num_inputs,
               std::size_t num_outputs);

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t num_states() const { return num_states_; }
  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return num_outputs_; }

  State reset_state() const { return reset_state_; }
  void set_reset_state(State s);

  /// Bit widths of the binary input/output alphabets, when known (machines
  /// loaded from KISS2). 0 means "symbolic only"; `effective_*_bits()` falls
  /// back to ceil(log2(alphabet size)). set_alphabet_bits throws
  /// std::invalid_argument for widths too small for the alphabet or output
  /// widths above kMaxOutputBits.
  std::size_t input_bits() const { return input_bits_; }
  std::size_t output_bits() const { return output_bits_; }
  void set_alphabet_bits(std::size_t in_bits, std::size_t out_bits);
  std::size_t effective_input_bits() const;
  std::size_t effective_output_bits() const;

  /// Define delta(s, i) = ns and lambda(s, i) = out.
  void set_transition(State s, Input i, State ns, Output out);

  State next(State s, Input i) const { return next_[index(s, i)]; }
  Output output(State s, Input i) const { return out_[index(s, i)]; }

  bool has_transition(State s, Input i) const {
    return next_[index(s, i)] != kNoState;
  }

  /// True iff delta and lambda are total.
  bool is_complete() const;

  /// Fill every unspecified entry with delta = `fill_state`, lambda =
  /// `fill_output`. Returns the number of entries filled.
  std::size_t complete(State fill_state, Output fill_output);

  /// Number of specified (s, i) entries.
  std::size_t num_specified() const;

  /// Throws std::logic_error if any table entry is out of range or (when
  /// `require_complete`) unspecified.
  void validate(bool require_complete = true) const;

  /// State names (optional; defaults to "s<k>").
  const std::string& state_name(State s) const;
  void set_state_name(State s, std::string name);
  /// Index of a named state, or kNoState.
  State find_state(const std::string& name) const;

  /// Render the combined next-state/output table in the style of the
  /// paper's Figure 5: one row per state, one column per input, cells
  /// "delta/lambda".
  std::string transition_table() const;

  /// Graphviz dot rendering (edges labelled "i/o").
  std::string to_dot() const;

  bool operator==(const MealyMachine& o) const;

 private:
  std::size_t index(State s, Input i) const;

  std::string name_;
  std::size_t num_states_ = 0;
  std::size_t num_inputs_ = 0;
  std::size_t num_outputs_ = 0;
  std::size_t input_bits_ = 0;
  std::size_t output_bits_ = 0;
  State reset_state_ = 0;
  std::vector<State> next_;
  std::vector<Output> out_;
  std::vector<std::string> state_names_;
};

}  // namespace stc
