// Tests for state assignment and encoded truth tables (src/encoding).

#include <gtest/gtest.h>

#include <string>

#include "encoding/encoded_fsm.hpp"
#include "fsm/generate.hpp"
#include "fsm/kiss.hpp"
#include "util/error.hpp"

namespace stc {
namespace {

TEST(Encoding, NaturalIsValidMinimalWidth) {
  const Encoding e = natural_encoding(5);
  EXPECT_EQ(e.width, 3u);
  EXPECT_TRUE(e.valid());
  EXPECT_EQ(e.code_of(4), 4u);
}

TEST(Encoding, ValidRejectsDuplicatesAndOverflow) {
  Encoding e;
  e.width = 2;
  e.codes = {0, 1, 1};
  EXPECT_FALSE(e.valid());
  e.codes = {0, 1, 4};  // 4 needs 3 bits
  EXPECT_FALSE(e.valid());
}

// --- encoded machine tables ----------------------------------------------------

class EncodedFsmCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodedFsmCheck, TablesMatchMachine) {
  const MealyMachine m = random_mealy(GetParam(), 6, 4, 4);
  const Encoding enc = natural_encoding(m.num_states());
  const EncodedFsm e = encode_fsm(m, enc);
  ASSERT_EQ(e.next_state.size(), enc.width);
  ASSERT_EQ(e.outputs.size(), m.effective_output_bits());

  for (State s = 0; s < m.num_states(); ++s) {
    for (Input i = 0; i < m.num_inputs(); ++i) {
      const Minterm mt = (enc.code_of(s) << e.input_bits) | i;
      const std::uint64_t next_code = enc.code_of(m.next(s, i));
      for (std::size_t b = 0; b < enc.width; ++b) {
        EXPECT_FALSE(e.next_state[b].is_dc(mt));
        EXPECT_EQ(e.next_state[b].is_on(mt), ((next_code >> b) & 1) != 0);
      }
      for (std::size_t b = 0; b < e.output_bits; ++b)
        EXPECT_EQ(e.outputs[b].is_on(mt), ((m.output(s, i) >> b) & 1) != 0);
    }
  }
}

TEST_P(EncodedFsmCheck, UnusedCodesAreDontCare) {
  const MealyMachine m = random_mealy(GetParam() + 50, 5, 2, 2);  // 5 < 2^3
  const EncodedFsm e = encode_fsm(m, natural_encoding(5));
  // Codes 5, 6, 7 are unused: all their minterms must be DC.
  for (std::uint64_t code = 5; code < 8; ++code) {
    for (std::uint64_t in = 0; in < 2; ++in) {
      const Minterm mt = (code << e.input_bits) | in;
      for (const auto& t : e.next_state) EXPECT_TRUE(t.is_dc(mt));
      for (const auto& t : e.outputs) EXPECT_TRUE(t.is_dc(mt));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodedFsmCheck, ::testing::Range<std::uint64_t>(0, 6));

TEST(EncodedFsm, MismatchedEncodingRejected) {
  const MealyMachine m = random_mealy(1, 4, 2, 2);
  EXPECT_THROW(encode_fsm(m, natural_encoding(5)), std::invalid_argument);
  Encoding bad = natural_encoding(4);
  bad.codes[1] = bad.codes[0];
  EXPECT_THROW(encode_fsm(m, bad), std::invalid_argument);
}

/// Expect `fn` to throw Error(kInvalidInput) naming the variable count.
template <typename Fn>
void expect_too_many_vars(const Fn& fn, const std::string& context) {
  try {
    fn();
    ADD_FAILURE() << "a block over 20 variables must be refused";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << e.what();
    EXPECT_EQ(e.context(), context) << e.what();
  }
}

TEST(EncodedFsm, TooManyVariablesIsInvalidInput) {
  // A valid KISS2 machine: 19 input bits plus 2 state bits = 21 variables.
  const MealyMachine m = parse_kiss2(
      ".i 19\n.o 1\n.s 3\n.r a\n"
      "------------------- a b 1\n"
      "------------------- b c 0\n"
      "------------------- c a 1\n.e\n");
  expect_too_many_vars([&] { encode_fsm(m, natural_encoding(3)); },
                       "vars=21; limit=20");
}

TEST(EncodedFactor, TooManyVariablesIsInvalidInput) {
  // 1 domain bit + 20 input bits.
  const std::vector<State> table{0, 1, 1, 0};
  expect_too_many_vars(
      [&] { encode_factor(table, 2, 20, natural_encoding(2), natural_encoding(2)); },
      "vars=21; limit=20");
}

TEST(EncodedLambda, TooManyVariablesIsInvalidInput) {
  // 1 + 1 register bits + 19 input bits.
  const std::vector<Output> lambda(2 * 2 * 2, 0);
  const Encoding e1 = natural_encoding(2), e2 = natural_encoding(2);
  expect_too_many_vars([&] { encode_lambda(lambda, 2, 2, 2, 19, 1, e1, e2); },
                       "vars=21; limit=20");
}

TEST(EncodedFactor, FactorTableRoundTrip) {
  // delta1-style table: 3 domain states x 2 inputs -> 2 range states.
  const std::vector<State> table{0, 1, 1, 0, 1, 1};
  const Encoding dom = natural_encoding(3);
  const Encoding rng = natural_encoding(2);
  const EncodedFactor f = encode_factor(table, 2, 1, dom, rng);
  ASSERT_EQ(f.next_state.size(), 1u);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < 2; ++i) {
      const Minterm mt = (dom.code_of(static_cast<State>(s)) << 1) | i;
      EXPECT_EQ(f.next_state[0].is_on(mt), table[s * 2 + i] == 1);
    }
  }
  EXPECT_THROW(encode_factor(table, 3, 1, dom, rng), std::invalid_argument);
}

TEST(EncodedLambda, LambdaTableRoundTrip) {
  // 2 x 2 blocks, 2 inputs, 2 output bits.
  std::vector<Output> lambda(2 * 2 * 2);
  for (std::size_t k = 0; k < lambda.size(); ++k)
    lambda[k] = static_cast<Output>(k % 4);
  const Encoding e1 = natural_encoding(2), e2 = natural_encoding(2);
  const EncodedLambda el = encode_lambda(lambda, 2, 2, 2, 1, 2, e1, e2);
  ASSERT_EQ(el.outputs.size(), 2u);
  for (std::size_t b1 = 0; b1 < 2; ++b1) {
    for (std::size_t b2 = 0; b2 < 2; ++b2) {
      for (std::size_t in = 0; in < 2; ++in) {
        const Minterm mt = (((b1 << 1) | b2) << 1) | in;
        const Output expect = lambda[(b1 * 2 + b2) * 2 + in];
        for (std::size_t b = 0; b < 2; ++b)
          EXPECT_EQ(el.outputs[b].is_on(mt), ((expect >> b) & 1) != 0);
      }
    }
  }
}

}  // namespace
}  // namespace stc
