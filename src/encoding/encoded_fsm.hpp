#pragma once
// Encoded FSM: the boolean truth tables obtained from a symbolic machine
// plus a state encoding. These tables are the specification handed to the
// two-level minimizer and the netlist builder.
//
// Minterm layout convention used everywhere downstream:
//     minterm = (state_code << input_bits) | input_bits_value
// i.e. primary inputs occupy the LOW bits, present-state bits the HIGH
// bits. Input symbol values are their KISS2 bit patterns.

#include <vector>

#include "encoding/encoding.hpp"
#include "logic/cubelist.hpp"

namespace stc {

struct EncodedFsm {
  std::size_t state_bits = 0;
  std::size_t input_bits = 0;
  std::size_t output_bits = 0;
  std::uint64_t reset_code = 0;
  std::vector<TruthTable> next_state;  // one table per state bit
  std::vector<TruthTable> outputs;     // one table per output bit
  /// Cover-based form of the same specification, built alongside the dense
  /// tables: one ON cube per transition whose output part spans the
  /// next-state bits (low) and the output bits (high), plus compact DC
  /// cubes (one whole-row cube per unused state code, one minterm cube per
  /// padding input pattern). This is what the multi-output minimizer
  /// consumes -- it never touches the dense tables. It always fits one
  /// CubeList: encode_fsm caps num_vars() at 20 and there is at least one
  /// input bit, so at most 19 state bits join at most kMaxOutputBits
  /// output bits (51 outputs of the 64 a cube's output part holds).
  PlaSpec spec;

  std::size_t num_vars() const { return state_bits + input_bits; }
};

/// Build the truth tables for `fsm` under `enc`. Unused state codes become
/// don't-cares in every table. encode_fsm, encode_factor and encode_lambda
/// throw Error(kInvalidInput) with context "vars=N; limit=20" when a block
/// has more than 20 variables.
EncodedFsm encode_fsm(const MealyMachine& fsm, const Encoding& enc);

/// Encoded form of one half-machine of a pipeline realization:
/// a function table `f : domain_states x I -> range_states` (delta1 or
/// delta2 of FactorTables), with independent encodings on each side.
struct EncodedFactor {
  std::size_t in_state_bits = 0;   // bits of the domain register
  std::size_t out_state_bits = 0;  // bits of the range register
  std::size_t input_bits = 0;
  std::vector<TruthTable> next_state;  // one per range-register bit
  PlaSpec spec;                        // cover form (outputs = range bits)

  std::size_t num_vars() const { return in_state_bits + input_bits; }
};

/// Encode `table[s * num_inputs + i] -> target state` where domain states
/// use `dom` codes and targets use `rng` codes.
EncodedFactor encode_factor(const std::vector<State>& table, std::size_t num_inputs,
                            std::size_t input_bits, const Encoding& dom,
                            const Encoding& rng);

/// Encoded output function lambda*(s1, s2, i) of a realization: variable
/// order (low to high) = inputs, then R2 bits, then R1 bits.
struct EncodedLambda {
  std::size_t s1_bits = 0;
  std::size_t s2_bits = 0;
  std::size_t input_bits = 0;
  std::size_t output_bits = 0;
  std::vector<TruthTable> outputs;
  PlaSpec spec;  // cover form (outputs = output bits)

  std::size_t num_vars() const { return s1_bits + s2_bits + input_bits; }
};

EncodedLambda encode_lambda(const std::vector<Output>& lambda, std::size_t n1,
                            std::size_t n2, std::size_t num_inputs,
                            std::size_t input_bits, std::size_t output_bits,
                            const Encoding& enc1, const Encoding& enc2);

}  // namespace stc
