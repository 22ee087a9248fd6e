// Tests for the Mealy machine core, KISS2 parsing/writing, minimization
// and behavioral simulation (src/fsm).

#include <gtest/gtest.h>

#include "benchdata/kiss_corpus.hpp"
#include "fsm/generate.hpp"
#include "fsm/kiss.hpp"
#include "fsm/minimize.hpp"
#include "fsm/simulate.hpp"

namespace stc {
namespace {

// --- MealyMachine ------------------------------------------------------------

TEST(Mealy, ConstructionAndAccessors) {
  MealyMachine m("t", 3, 2, 4);
  EXPECT_EQ(m.num_states(), 3u);
  EXPECT_EQ(m.num_inputs(), 2u);
  EXPECT_EQ(m.num_outputs(), 4u);
  EXPECT_FALSE(m.is_complete());
  m.set_transition(0, 0, 1, 3);
  EXPECT_EQ(m.next(0, 0), 1u);
  EXPECT_EQ(m.output(0, 0), 3u);
  EXPECT_TRUE(m.has_transition(0, 0));
  EXPECT_FALSE(m.has_transition(0, 1));
}

TEST(Mealy, ZeroAlphabetRejected) {
  EXPECT_THROW(MealyMachine("x", 0, 1, 1), std::invalid_argument);
  EXPECT_THROW(MealyMachine("x", 1, 0, 1), std::invalid_argument);
  EXPECT_THROW(MealyMachine("x", 1, 1, 0), std::invalid_argument);
  // Every output symbol is a 32-bit Output: 2^32 symbols fit, no more.
  const std::size_t widest = std::size_t{1} << kMaxOutputBits;
  EXPECT_NO_THROW(MealyMachine("x", 1, 1, widest));
  EXPECT_THROW(MealyMachine("x", 1, 1, widest + 1), std::invalid_argument);
}

TEST(Mealy, RangeChecks) {
  MealyMachine m("t", 2, 2, 2);
  EXPECT_THROW(m.set_transition(0, 0, 5, 0), std::out_of_range);
  EXPECT_THROW(m.set_transition(0, 0, 0, 5), std::out_of_range);
  EXPECT_THROW(m.set_transition(2, 0, 0, 0), std::out_of_range);
  EXPECT_THROW(m.next(0, 7), std::out_of_range);
  EXPECT_THROW(m.set_reset_state(9), std::out_of_range);
}

TEST(Mealy, CompleteFillsMissing) {
  MealyMachine m("t", 2, 2, 2);
  m.set_transition(0, 0, 1, 1);
  EXPECT_EQ(m.complete(0, 0), 3u);
  EXPECT_TRUE(m.is_complete());
  EXPECT_EQ(m.next(1, 1), 0u);
  EXPECT_EQ(m.num_specified(), 4u);
}

TEST(Mealy, ValidateThrowsOnIncomplete) {
  MealyMachine m("t", 2, 1, 1);
  EXPECT_THROW(m.validate(), std::logic_error);
  EXPECT_NO_THROW(m.validate(false));
}

TEST(Mealy, StateNames) {
  MealyMachine m("t", 2, 1, 1);
  EXPECT_EQ(m.state_name(0), "s0");
  m.set_state_name(1, "idle");
  EXPECT_EQ(m.find_state("idle"), 1u);
  EXPECT_EQ(m.find_state("nope"), kNoState);
}

TEST(Mealy, AlphabetBits) {
  MealyMachine m("t", 2, 4, 2);
  m.set_alphabet_bits(2, 1);
  EXPECT_EQ(m.effective_input_bits(), 2u);
  EXPECT_EQ(m.effective_output_bits(), 1u);
  EXPECT_THROW(m.set_alphabet_bits(1, 1), std::invalid_argument);  // 2^1 < 4
  EXPECT_THROW(m.set_alphabet_bits(2, 33), std::invalid_argument);  // > 32-bit Output
  EXPECT_EQ(m.output_bits(), 1u);  // the rejected calls changed nothing
  MealyMachine n("u", 2, 3, 5);
  EXPECT_EQ(n.effective_input_bits(), 2u);   // ceil(log2 3)
  EXPECT_EQ(n.effective_output_bits(), 3u);  // ceil(log2 5)
}

TEST(Mealy, TransitionTableAndDot) {
  const MealyMachine m = paper_example_fsm();
  const std::string tbl = m.transition_table();
  EXPECT_NE(tbl.find("3/1"), std::string::npos);
  const std::string dot = m.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Mealy, EqualityOperator) {
  MealyMachine a = paper_example_fsm();
  MealyMachine b = paper_example_fsm();
  EXPECT_TRUE(a == b);
  b.set_transition(0, 0, 1, 0);
  EXPECT_FALSE(a == b);
}

// --- KISS2 -------------------------------------------------------------------

TEST(Kiss, ParsesShiftregCorpus) {
  const MealyMachine m = parse_kiss2(corpus::kShiftreg);
  EXPECT_EQ(m.num_states(), 8u);
  EXPECT_EQ(m.num_inputs(), 2u);
  EXPECT_EQ(m.num_outputs(), 2u);
  EXPECT_EQ(m.input_bits(), 1u);
  EXPECT_EQ(m.output_bits(), 1u);
  EXPECT_TRUE(m.is_complete());
  EXPECT_EQ(m.state_name(m.reset_state()), "st0");
}

TEST(Kiss, ShiftregCorpusMatchesGenerator) {
  // The embedded KISS2 text and the structural generator must describe
  // behaviorally identical machines.
  const MealyMachine parsed = parse_kiss2(corpus::kShiftreg);
  const MealyMachine built = shift_register_fsm(3);
  EXPECT_TRUE(equivalent(parsed, built));
}

TEST(Kiss, PaperFig5CorpusMatchesGenerator) {
  const MealyMachine parsed = parse_kiss2(corpus::kPaperFig5);
  EXPECT_TRUE(equivalent(parsed, paper_example_fsm()));
}

TEST(Kiss, DontCareInputExpansion) {
  const char* text = R"(
.i 2
.o 1
.s 2
.r a
-- a b 1
00 b a 0
01 b a 0
1- b b 1
.e
)";
  const MealyMachine m = parse_kiss2(text);
  EXPECT_EQ(m.num_states(), 2u);
  // '--' expands to all four inputs of state a.
  for (Input i = 0; i < 4; ++i) EXPECT_EQ(m.next(0, i), 1u);
  // '1-' covers inputs 10 and 11 (MSB-first).
  EXPECT_EQ(m.next(1, 2), 1u);
  EXPECT_EQ(m.next(1, 3), 1u);
}

TEST(Kiss, ConflictingRowsRejected) {
  const char* text = R"(
.i 1
.o 1
.s 1
0 a a 1
0 a a 0
.e
)";
  EXPECT_THROW(parse_kiss2(text), KissParseError);
}

TEST(Kiss, IncompleteRejectedUnlessRequested) {
  const char* text = R"(
.i 1
.o 1
.s 2
.r a
0 a b 1
1 a a 0
0 b a 1
.e
)";
  EXPECT_THROW(parse_kiss2(text), KissParseError);
  KissOptions opt;
  opt.complete_with_reset = true;
  const MealyMachine m = parse_kiss2(text, opt);
  EXPECT_TRUE(m.is_complete());
  EXPECT_EQ(m.next(1, 1), m.reset_state());
}

TEST(Kiss, HeaderMismatchesRejected) {
  EXPECT_THROW(parse_kiss2(".o 1\n0 a a 1\n"), KissParseError);   // missing .i
  EXPECT_THROW(parse_kiss2(".i 1\n0 a a 1\n"), KissParseError);   // missing .o
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.s 5\n0 a a 1\n1 a a 1\n"),
               KissParseError);  // .s wrong
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.p 9\n0 a a 1\n1 a a 1\n"),
               KissParseError);  // .p wrong
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.q 1\n0 a a 1\n1 a a 1\n"),
               KissParseError);  // unknown directive
}

TEST(Kiss, WidthMismatchesRejected) {
  EXPECT_THROW(parse_kiss2(".i 2\n.o 1\n00 a a 1\n01 a a 1\n1 a a 1\n11 a a 1\n"),
               KissParseError);
  EXPECT_THROW(parse_kiss2(".i 1\n.o 2\n0 a a 1\n1 a a 11\n"), KissParseError);
}

TEST(Kiss, ErrorsCarryTheOffendingLineNumber) {
  // Row 5 (1-based) holds the bad output character.
  const char* text = ".i 1\n.o 1\n.s 1\n0 a a 1\n1 a a x\n.e\n";
  try {
    parse_kiss2(text);
    FAIL() << "bad output character must be rejected";
  } catch (const KissParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

TEST(Kiss, DuplicateDirectivesRejected) {
  EXPECT_THROW(parse_kiss2(".i 1\n.i 1\n.o 1\n0 a a 1\n1 a a 1\n.e\n"),
               KissParseError);
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.o 1\n0 a a 1\n1 a a 1\n.e\n"),
               KissParseError);
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.s 1\n.s 1\n0 a a 1\n1 a a 1\n.e\n"),
               KissParseError);
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.p 2\n.p 2\n0 a a 1\n1 a a 1\n.e\n"),
               KissParseError);
}

TEST(Kiss, ContentAfterEndRejected) {
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n0 a a 1\n1 a a 1\n.e\n0 a a 1\n"),
               KissParseError);
  // Comments and blank lines after .e are fine.
  const MealyMachine m =
      parse_kiss2(".i 1\n.o 1\n0 a a 1\n1 a a 1\n.e\n\n# trailing comment\n");
  EXPECT_EQ(m.num_states(), 1u);
}

TEST(Kiss, HostileHeaderCountsBoundedBeforeAllocation) {
  // Values past the sanity bound, including ones that would wrap a naive
  // accumulator, are rejected up front -- no allocation is attempted.
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.s 99999999999999999999\n0 a a 1\n"),
               KissParseError);
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.p 99999999999999999999\n0 a a 1\n"),
               KissParseError);
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.s 2000000\n0 a a 1\n"),
               KissParseError);  // over kMaxStates
  EXPECT_THROW(parse_kiss2(".i 99\n.o 1\n0 a a 1\n"), KissParseError);
  // An Output holds 32 bits; a wider .o would silently drop the high bits.
  for (const std::size_t no : {33, 64}) {
    const std::string bits = "1" + std::string(no - 1, '0');
    EXPECT_THROW(parse_kiss2(".i 1\n.o " + std::to_string(no) + "\n0 a a " + bits +
                             "\n1 a a " + bits + "\n"),
                 KissParseError)
        << ".o " << no;
  }
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.s -3\n0 a a 1\n"), KissParseError);
  EXPECT_THROW(parse_kiss2(".i 1\n.o\n0 a a 1\n"), KissParseError);  // no arg
}

TEST(Kiss, MissingFileRaisesTypedIoError) {
  try {
    load_kiss2_file("/nonexistent/dir/machine.kiss2");
    FAIL() << "missing file must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_NE(e.context().find("path=/nonexistent/dir/machine.kiss2"),
              std::string::npos)
        << e.context();
    EXPECT_NE(e.context().find("errno="), std::string::npos) << e.context();
  }
}

TEST(Kiss, WriteParseRoundTrip) {
  // The widest output alphabet, with its most significant bit set.
  const std::string msb32 = ".i 1\n.o 32\n0 a b 1" + std::string(31, '0') +
                            "\n1 a a " + std::string(32, '0') + "\n0 b a " +
                            std::string(32, '1') + "\n1 b b " + std::string(32, '0') +
                            "\n.e\n";
  for (const std::string& text : {std::string(corpus::kShiftreg), msb32}) {
    const MealyMachine m = parse_kiss2(text);
    const MealyMachine re = parse_kiss2(write_kiss2(m));
    EXPECT_TRUE(equivalent(m, re));
    EXPECT_EQ(re.num_states(), m.num_states());
  }
  const MealyMachine wide = parse_kiss2(write_kiss2(parse_kiss2(msb32)));
  EXPECT_EQ(wide.output(0, 0), 0x80000000u);
  EXPECT_EQ(wide.output(1, 0), 0xFFFFFFFFu);
}

TEST(Kiss, RoundTripRandomMachines) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const MealyMachine m = random_mealy(seed, 5, 4, 4);
    const MealyMachine re = parse_kiss2(write_kiss2(m));
    EXPECT_TRUE(equivalent(m, re)) << "seed " << seed;
  }
}

// --- minimize ----------------------------------------------------------------

TEST(Minimize, ReachabilityBasics) {
  MealyMachine m("t", 3, 1, 1);
  m.set_transition(0, 0, 0, 0);
  m.set_transition(1, 0, 0, 0);  // unreachable from 0
  m.set_transition(2, 0, 1, 0);  // unreachable
  const auto r = reachable_states(m);
  EXPECT_TRUE(r[0]);
  EXPECT_FALSE(r[1]);
  EXPECT_FALSE(r[2]);
  EXPECT_EQ(num_reachable(m), 1u);
  EXPECT_EQ(drop_unreachable(m).num_states(), 1u);
}

TEST(Minimize, EquivalenceMergesIdenticalStates) {
  // Two states with identical rows must be equivalent.
  MealyMachine m("t", 3, 2, 2);
  for (Input i = 0; i < 2; ++i) {
    m.set_transition(0, i, 2, i);
    m.set_transition(1, i, 2, i);
    m.set_transition(2, i, 0, 1 - i);
  }
  const Partition eps = state_equivalence(m);
  EXPECT_TRUE(eps.same_block(0, 1));
  EXPECT_FALSE(eps.same_block(0, 2));
  EXPECT_FALSE(is_reduced(m));
  const MealyMachine min = minimize(m);
  EXPECT_EQ(min.num_states(), 2u);
  EXPECT_TRUE(equivalent(m, min));
}

TEST(Minimize, PaperExampleIsReduced) {
  EXPECT_TRUE(is_reduced(paper_example_fsm()));
}

TEST(Minimize, MinimizePreservesBehaviorRandom) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    // Machines with few outputs create many equivalences.
    const MealyMachine m = random_mealy(seed, 8, 2, 1);
    const MealyMachine min = minimize(m);
    EXPECT_TRUE(equivalent(m, min)) << "seed " << seed;
    EXPECT_TRUE(is_reduced(min)) << "seed " << seed;
    EXPECT_LE(min.num_states(), m.num_states());
  }
}

TEST(Minimize, QuotientRejectsUnclosedPartition) {
  const MealyMachine m = paper_example_fsm();
  // {0,1} is not closed under delta for this machine.
  EXPECT_THROW(quotient(m, Partition::from_blocks(4, {{0, 1}})),
               std::invalid_argument);
}

TEST(Minimize, QuotientByIdentityIsIsomorphic) {
  const MealyMachine m = paper_example_fsm();
  const MealyMachine q = quotient(m, Partition::identity(4));
  EXPECT_EQ(q.num_states(), 4u);
  EXPECT_TRUE(equivalent(m, q));
}

// --- simulate ----------------------------------------------------------------

TEST(Simulate, TraceShapes) {
  const MealyMachine m = paper_example_fsm();
  const Trace t = simulate(m, {1, 0, 1});
  ASSERT_EQ(t.outputs.size(), 3u);
  ASSERT_EQ(t.states.size(), 4u);
  EXPECT_EQ(t.states[0], m.reset_state());
  EXPECT_EQ(t.outputs[0], m.output(m.reset_state(), 1));
}

TEST(Simulate, OutputWordMatchesTrace) {
  const MealyMachine m = shift_register_fsm(3);
  const std::vector<Input> word{1, 1, 0, 1, 0, 0};
  EXPECT_EQ(output_word(m, word), simulate(m, word).outputs);
}

TEST(Simulate, ShiftRegisterDelaysInputByWidth) {
  // Serial-in appears at serial-out after exactly `bits` clocks.
  const MealyMachine m = shift_register_fsm(3);
  const std::vector<Input> word{1, 0, 1, 1, 0, 1, 0, 0};
  const auto out = output_word(m, word);
  for (std::size_t k = 3; k < word.size(); ++k)
    EXPECT_EQ(out[k], word[k - 3]) << "position " << k;
}

TEST(Simulate, CounterexampleFoundForDifferentMachines) {
  // Note the Figure-5 machine is not strongly connected (states 2 and 4
  // are unreachable from reset state 1), so the perturbation must hit the
  // reachable component {1, 3}.
  const MealyMachine a = paper_example_fsm();
  MealyMachine b = paper_example_fsm();
  b.set_transition(2, 0, 2, 1);  // state 3 (paper), input 0: output 0 -> 1
  const auto cex = find_counterexample(a, b);
  ASSERT_TRUE(cex.has_value());
  EXPECT_NE(output_word(a, *cex), output_word(b, *cex));
}

TEST(Simulate, NoCounterexampleForUnreachableDifference) {
  // A difference confined to the unreachable component is behaviorally
  // invisible from reset.
  const MealyMachine a = paper_example_fsm();
  MealyMachine b = paper_example_fsm();
  b.set_transition(3, 0, 1, 0);  // paper state 4: unreachable from reset
  EXPECT_FALSE(find_counterexample(a, b).has_value());
}

TEST(Simulate, EquivalentToItself) {
  const MealyMachine m = shift_register_fsm(3);
  EXPECT_TRUE(equivalent(m, m));
}

TEST(Simulate, CosimAgreesWithExhaustive) {
  Rng rng(5);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const MealyMachine a = random_mealy(seed, 5, 2, 2);
    MealyMachine b = a;
    EXPECT_TRUE(random_cosimulation(a, b, 16, 32, rng));
    b.set_transition(0, 0, b.next(0, 0), 1 - b.output(0, 0) % 2);
    // A flipped reset-state output must be caught immediately.
    EXPECT_FALSE(random_cosimulation(a, b, 16, 32, rng));
  }
}

TEST(Simulate, SynchronousProductShape) {
  const MealyMachine a = parity_fsm(2);
  const MealyMachine b = serial_adder_fsm();
  const MealyMachine p = synchronous_product(a, b);
  EXPECT_EQ(p.num_states(), a.num_states() * b.num_states());
  EXPECT_TRUE(p.is_complete());
  // Product outputs = first machine's outputs.
  const std::vector<Input> w{0, 1, 2, 3, 1};
  EXPECT_EQ(output_word(p, w), output_word(a, w));
}

// --- generate ----------------------------------------------------------------

TEST(Generate, RandomMealyCompleteAndReachable) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const MealyMachine m = random_mealy(seed, 9, 3, 2);
    EXPECT_TRUE(m.is_complete());
    EXPECT_EQ(num_reachable(m), 9u) << "seed " << seed;
  }
}

TEST(Generate, DecomposableHasPlantedPairShape) {
  const MealyMachine m = decomposable_mealy(3, 3, 2, 2, 2);
  EXPECT_EQ(m.num_states(), 6u);
  // The planted row/column partitions form a symmetric pair by
  // construction (checked via the pairs module in ostr_property_test).
  EXPECT_TRUE(m.is_complete());
}

TEST(Generate, CounterSemantics) {
  const MealyMachine m = counter_fsm(5);
  EXPECT_EQ(m.num_states(), 5u);
  // enable=0 holds, enable=1 steps; wrap pulses output.
  EXPECT_EQ(m.next(2, 0), 2u);
  EXPECT_EQ(m.next(2, 1), 3u);
  EXPECT_EQ(m.next(4, 1), 0u);
  EXPECT_EQ(m.output(4, 1), 1u);
  EXPECT_EQ(m.output(2, 1), 0u);
}

TEST(Generate, SerialAdderAddsBits) {
  const MealyMachine m = serial_adder_fsm();
  // 3 + 1 = 4: LSB-first streams a=110(3), b=100(1) -> sum 001(4)... using
  // input symbol (a<<1)|b per cycle: (1,1),(1,0),(0,0).
  const auto out = output_word(m, {3, 2, 0});
  EXPECT_EQ(out, (std::vector<Output>{0, 0, 1}));
}

TEST(Generate, ParityTracksOnes) {
  const MealyMachine m = parity_fsm(3);
  // inputs 0b101 (2 ones), 0b111 (3 ones) -> parity after: 0, then 1.
  const auto out = output_word(m, {5, 7});
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 1u);
}

TEST(Generate, SyntheticControllerComplete) {
  const MealyMachine m = synthetic_controller(1, 12, 4, 4, 3);
  EXPECT_TRUE(m.is_complete());
  EXPECT_EQ(num_reachable(m), 12u);
}

TEST(Generate, GeneratorsAreDeterministic) {
  EXPECT_TRUE(random_mealy(5, 6, 2, 2) == random_mealy(5, 6, 2, 2));
  EXPECT_TRUE(decomposable_mealy(5, 2, 3, 2, 2) == decomposable_mealy(5, 2, 3, 2, 2));
  EXPECT_TRUE(synthetic_controller(5, 6, 2, 2, 2) ==
              synthetic_controller(5, 6, 2, 2, 2));
}

TEST(Generate, InvalidParametersThrow) {
  EXPECT_THROW(shift_register_fsm(0), std::invalid_argument);
  EXPECT_THROW(counter_fsm(1), std::invalid_argument);
  EXPECT_THROW(parity_fsm(0), std::invalid_argument);
  EXPECT_THROW(synthetic_controller(0, 4, 2, 2, 0), std::invalid_argument);
}

}  // namespace
}  // namespace stc
