#include "encoding/encoded_fsm.hpp"

#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace stc {
namespace {

/// Dense truth tables hold 2^vars minterms per bit; beyond this many
/// variables a block is refused as input the flow cannot take.
constexpr std::size_t kMaxDenseVars = 20;

void check_dense_vars(const char* where, std::size_t vars) {
  if (vars > kMaxDenseVars)
    throw Error(ErrorCode::kInvalidInput,
                std::string(where) + ": too many variables for dense tables",
                "vars=" + std::to_string(vars) +
                    "; limit=" + std::to_string(kMaxDenseVars));
}

/// Map a code back to its state id, or kNoState for unused patterns.
std::vector<State> inverse_codes(const Encoding& enc) {
  const std::size_t span = std::size_t{1} << enc.width;
  std::vector<State> inv(span, kNoState);
  for (State s = 0; s < enc.codes.size(); ++s) inv[enc.codes[s]] = s;
  return inv;
}

std::uint64_t low_mask(std::size_t bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Whole-input-row cube for one state code: state bits fixed, inputs free.
Cube state_row_cube(std::uint64_t code, std::size_t state_bits, std::size_t input_bits) {
  return Cube{low_mask(state_bits) << input_bits, code << input_bits};
}

}  // namespace

EncodedFsm encode_fsm(const MealyMachine& fsm, const Encoding& enc) {
  fsm.validate();
  if (enc.num_states() != fsm.num_states())
    throw std::invalid_argument("encode_fsm: encoding size mismatch");
  if (!enc.valid()) throw std::invalid_argument("encode_fsm: invalid encoding");

  EncodedFsm e;
  e.state_bits = enc.width;
  e.input_bits = fsm.effective_input_bits();
  e.output_bits = fsm.effective_output_bits();
  e.reset_code = enc.code_of(fsm.reset_state());
  check_dense_vars("encode_fsm", e.num_vars());

  e.next_state.assign(e.state_bits, TruthTable(e.num_vars()));
  e.outputs.assign(e.output_bits, TruthTable(e.num_vars()));
  // The spec's output part is a 64-bit mask. It always fits: at least one
  // input bit leaves at most 19 state bits, plus at most kMaxOutputBits.
  const std::size_t spec_outputs = e.state_bits + e.output_bits;
  e.spec.num_vars = e.num_vars();
  e.spec.num_outputs = spec_outputs;
  e.spec.on = CubeList(e.num_vars(), spec_outputs);
  e.spec.dc = CubeList(e.num_vars(), spec_outputs);
  const std::uint64_t all_out = low_mask(spec_outputs);

  const auto inv = inverse_codes(enc);
  const std::size_t code_span = std::size_t{1} << e.state_bits;
  const std::size_t input_span = std::size_t{1} << e.input_bits;

  for (std::uint64_t code = 0; code < code_span; ++code) {
    const State s = inv[code];
    if (s == kNoState)
      e.spec.dc.add(state_row_cube(code, e.state_bits, e.input_bits), all_out);
    for (std::uint64_t in = 0; in < input_span; ++in) {
      const Minterm m = (code << e.input_bits) | in;
      if (s == kNoState || in >= fsm.num_inputs()) {
        // Unused state code or padding input pattern: full don't care.
        for (auto& t : e.next_state) t.set_dc(m);
        for (auto& t : e.outputs) t.set_dc(m);
        if (s != kNoState)  // unused codes got one whole-row cube above
          e.spec.dc.add(Cube::minterm(m, e.num_vars()), all_out);
        continue;
      }
      const std::uint64_t next_code = enc.code_of(fsm.next(s, static_cast<Input>(in)));
      const Output out = fsm.output(s, static_cast<Input>(in));
      for (std::size_t b = 0; b < e.state_bits; ++b)
        if ((next_code >> b) & 1) e.next_state[b].set_on(m);
      for (std::size_t b = 0; b < e.output_bits; ++b)
        if ((out >> b) & 1) e.outputs[b].set_on(m);
      const std::uint64_t on_mask =
          (next_code & low_mask(e.state_bits)) |
          ((static_cast<std::uint64_t>(out) & low_mask(e.output_bits)) << e.state_bits);
      if (on_mask) e.spec.on.add(Cube::minterm(m, e.num_vars()), on_mask);
    }
  }
  return e;
}

EncodedFactor encode_factor(const std::vector<State>& table, std::size_t num_inputs,
                            std::size_t input_bits, const Encoding& dom,
                            const Encoding& rng) {
  if ((std::size_t{1} << input_bits) < num_inputs)
    throw std::invalid_argument("encode_factor: input_bits too small");
  if (table.size() != dom.num_states() * num_inputs)
    throw std::invalid_argument("encode_factor: table size mismatch");

  EncodedFactor e;
  e.in_state_bits = dom.width;
  e.out_state_bits = rng.width;
  e.input_bits = input_bits;
  check_dense_vars("encode_factor", e.num_vars());
  e.next_state.assign(e.out_state_bits, TruthTable(e.num_vars()));
  e.spec.num_vars = e.num_vars();
  e.spec.num_outputs = e.out_state_bits;
  e.spec.on = CubeList(e.num_vars(), e.out_state_bits);
  e.spec.dc = CubeList(e.num_vars(), e.out_state_bits);
  const std::uint64_t all_out = low_mask(e.out_state_bits);

  const auto inv = inverse_codes(dom);
  const std::size_t code_span = std::size_t{1} << e.in_state_bits;
  const std::size_t input_span = std::size_t{1} << input_bits;
  for (std::uint64_t code = 0; code < code_span; ++code) {
    const State s = inv[code];
    if (s == kNoState)
      e.spec.dc.add(state_row_cube(code, e.in_state_bits, input_bits), all_out);
    for (std::uint64_t in = 0; in < input_span; ++in) {
      const Minterm m = (code << input_bits) | in;
      if (s == kNoState || in >= num_inputs) {
        for (auto& t : e.next_state) t.set_dc(m);
        if (s != kNoState) e.spec.dc.add(Cube::minterm(m, e.num_vars()), all_out);
        continue;
      }
      const std::uint64_t target = rng.code_of(table[s * num_inputs + in]);
      for (std::size_t b = 0; b < e.out_state_bits; ++b)
        if ((target >> b) & 1) e.next_state[b].set_on(m);
      if (target & all_out) e.spec.on.add(Cube::minterm(m, e.num_vars()), target & all_out);
    }
  }
  return e;
}

EncodedLambda encode_lambda(const std::vector<Output>& lambda, std::size_t n1,
                            std::size_t n2, std::size_t num_inputs,
                            std::size_t input_bits, std::size_t output_bits,
                            const Encoding& enc1, const Encoding& enc2) {
  if (lambda.size() != n1 * n2 * num_inputs)
    throw std::invalid_argument("encode_lambda: table size mismatch");
  EncodedLambda e;
  e.s1_bits = enc1.width;
  e.s2_bits = enc2.width;
  e.input_bits = input_bits;
  e.output_bits = output_bits;
  check_dense_vars("encode_lambda", e.num_vars());
  e.outputs.assign(output_bits, TruthTable(e.num_vars()));
  e.spec.num_vars = e.num_vars();
  e.spec.num_outputs = output_bits;
  e.spec.on = CubeList(e.num_vars(), output_bits);
  e.spec.dc = CubeList(e.num_vars(), output_bits);
  const std::uint64_t all_out = low_mask(output_bits);

  const auto inv1 = inverse_codes(enc1);
  const auto inv2 = inverse_codes(enc2);
  const std::size_t span1 = std::size_t{1} << e.s1_bits;
  const std::size_t span2 = std::size_t{1} << e.s2_bits;
  const std::size_t input_span = std::size_t{1} << input_bits;

  for (std::uint64_t c1 = 0; c1 < span1; ++c1) {
    if (inv1[c1] == kNoState)  // whole (c2, input) plane is don't-care
      e.spec.dc.add(Cube{low_mask(e.s1_bits) << (e.s2_bits + input_bits),
                         c1 << (e.s2_bits + input_bits)},
                    all_out);
    for (std::uint64_t c2 = 0; c2 < span2; ++c2) {
      if (inv1[c1] != kNoState && inv2[c2] == kNoState)
        e.spec.dc.add(state_row_cube((c1 << e.s2_bits) | c2, e.s1_bits + e.s2_bits,
                                     input_bits),
                      all_out);
      for (std::uint64_t in = 0; in < input_span; ++in) {
        const Minterm m = (((c1 << e.s2_bits) | c2) << input_bits) | in;
        const State s1 = inv1[c1];
        const State s2 = inv2[c2];
        if (s1 == kNoState || s2 == kNoState || in >= num_inputs) {
          for (auto& t : e.outputs) t.set_dc(m);
          if (s1 != kNoState && s2 != kNoState)
            e.spec.dc.add(Cube::minterm(m, e.num_vars()), all_out);
          continue;
        }
        const Output out = lambda[(static_cast<std::size_t>(s1) * n2 + s2) * num_inputs + in];
        for (std::size_t b = 0; b < output_bits; ++b)
          if ((out >> b) & 1) e.outputs[b].set_on(m);
        const std::uint64_t on_mask = static_cast<std::uint64_t>(out) & all_out;
        if (on_mask) e.spec.on.add(Cube::minterm(m, e.num_vars()), on_mask);
      }
    }
  }
  return e;
}

}  // namespace stc
