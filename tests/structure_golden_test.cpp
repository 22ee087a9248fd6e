// Structure goldens: the cost figures of every corpus flow, the exact
// cube lists espresso returns (on seeded wide specs, on every corpus
// block, on s1's fig4 blocks and on specs with constant and narrow
// outputs) and the exact networks algebraic extraction returns, pinned so
// that a speed change to the two-level minimizers (QM covering, espresso's
// EXPAND and containment) or to factoring can be shown to change no
// choice at all. The
// CorpusTechEquivalence and SharedBlock suites check functional
// equivalence; these check that the *same* netlists come out.

#include <gtest/gtest.h>

#include <algorithm>

#include "benchdata/iwls93.hpp"
#include "bist/architectures.hpp"
#include "encoding/encoding.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/factor.hpp"
#include "ostr/realization.hpp"
#include "structure_golden.hpp"
#include "synth/flow.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

// --- corpus flows -------------------------------------------------------------

struct FlowGolden {
  const char* machine;
  Technology tech;
  FigGolden fig[4];  // fig1..fig4
};

// Default FlowOptions apart from the technology. The s1 multi-level row
// is kS1MultiLevelGolden: SharedBlock checks it against the flow it
// already runs.
const FlowGolden kFlowGolden[] = {
    {"bbara", Technology::kTwoLevel,
     {{540.5, 3, 101, 512, 0, 0, 4},
      {570.5, 6, 101, 512, 0, 0, 8},
      {718, 3, 136, 667, 0, 0, 8},
      {535.5, 3, 100, 507, 0, 0, 4}}},
    {"bbtas", Technology::kTwoLevel,
     {{95, 3, 26, 77, 0, 0, 3},
      {117.5, 6, 26, 77, 0, 0, 6},
      {153, 3, 39, 119, 0, 0, 6},
      {214.5, 3, 42, 177, 0, 0, 6}}},
    {"dk14", Technology::kTwoLevel,
     {{413, 3, 88, 385, 0, 0, 3},
      {435.5, 6, 88, 385, 0, 0, 6},
      {555, 3, 116, 509, 0, 0, 6},
      {889.5, 3, 137, 836, 0, 0, 6}}},
    {"dk15", Technology::kTwoLevel,
     {{206.5, 3, 51, 188, 0, 0, 2},
      {221.5, 6, 51, 188, 0, 0, 4},
      {260.5, 3, 63, 231, 0, 0, 4},
      {428.5, 3, 75, 394, 0, 0, 4}}},
    {"dk16", Technology::kTwoLevel,
     {{1075.5, 3, 195, 1036, 0, 0, 5},
      {1113, 6, 195, 1036, 0, 0, 10},
      {1777.5, 3, 319, 1706, 0, 0, 10},
      {483.5, 3, 96, 446, 0, 0, 6}}},
    {"dk17", Technology::kTwoLevel,
     {{182, 3, 43, 161, 0, 0, 3},
      {204.5, 6, 43, 161, 0, 0, 6},
      {281.5, 3, 64, 244, 0, 0, 6},
      {456, 3, 76, 414, 0, 0, 6}}},
    {"dk27", Technology::kTwoLevel,
     {{59.5, 3, 15, 45, 0, 0, 3},
      {82, 6, 15, 45, 0, 0, 6},
      {87, 3, 21, 60, 0, 0, 6},
      {41, 3, 11, 29, 0, 0, 3}}},
    {"dk512", Technology::kTwoLevel,
     {{219, 3, 52, 193, 0, 0, 4},
      {249, 6, 52, 193, 0, 0, 8},
      {360.5, 3, 84, 313, 0, 0, 8},
      {132, 3, 34, 106, 0, 0, 5}}},
    {"mc", Technology::kTwoLevel,
     {{176.5, 3, 45, 158, 0, 0, 2},
      {191.5, 6, 45, 158, 0, 0, 4},
      {223.5, 3, 54, 194, 0, 0, 4},
      {408.5, 3, 70, 374, 0, 0, 4}}},
    {"s1", Technology::kTwoLevel,
     {{60905.5, 3, 4744, 65634, 0, 0, 5},
      {60943, 6, 4744, 65634, 0, 0, 10},
      {94908, 3, 7579, 102450, 0, 0, 10},
      {116331, 3, 8791, 125076, 0, 0, 10}}},
    {"shiftreg", Technology::kTwoLevel,
     {{53.5, 3, 15, 40, 0, 0, 3},
      {76, 6, 15, 40, 0, 0, 6},
      {99.5, 3, 27, 73, 0, 0, 6},
      {12, 0, 4, 4, 0, 0, 3}}},
    {"tav", Technology::kTwoLevel,
     {{339, 3, 73, 320, 0, 0, 2},
      {354, 6, 73, 320, 0, 0, 4},
      {398, 3, 86, 368, 0, 0, 4},
      {339, 3, 73, 320, 0, 0, 2}}},
    {"tbk", Technology::kTwoLevel,
     {{11330.5, 3, 1299, 12612, 0, 0, 5},
      {11368, 6, 1299, 12612, 0, 0, 10},
      {14329, 3, 1699, 15990, 0, 0, 10},
      {11445.5, 3, 1338, 12418, 0, 0, 5}}},
    {"paper_fig5", Technology::kTwoLevel,
     {{28, 3, 8, 20, 0, 0, 2},
      {43, 6, 8, 20, 0, 0, 4},
      {48.5, 3, 13, 33, 0, 0, 4},
      {23.5, 3, 7, 15, 0, 0, 2}}},
    {"serial_adder", Technology::kTwoLevel,
     {{21.5, 3, 7, 18, 0, 0, 1},
      {29, 6, 7, 18, 0, 0, 2},
      {30.5, 3, 10, 24, 0, 0, 2},
      {35, 3, 10, 28, 0, 0, 2}}},
    {"parity4", Technology::kTwoLevel,
     {{167, 3, 32, 160, 0, 0, 1},
      {174.5, 6, 32, 160, 0, 0, 2},
      {252.5, 3, 48, 240, 0, 0, 2},
      {269, 3, 48, 256, 0, 0, 2}}},
    {"count10", Technology::kTwoLevel,
     {{50, 3, 13, 33, 0, 0, 4},
      {80, 6, 13, 33, 0, 0, 8},
      {98, 3, 25, 63, 0, 0, 8},
      {100, 3, 25, 65, 0, 0, 8}}},
    {"count15", Technology::kTwoLevel,
     {{67, 3, 17, 47, 0, 0, 4},
      {97, 6, 17, 47, 0, 0, 8},
      {131, 3, 33, 90, 0, 0, 8},
      {134, 3, 33, 93, 0, 0, 8}}},
    {"shiftreg4", Technology::kTwoLevel,
     {{16, 0, 5, 5, 0, 0, 4},
      {46, 3, 5, 5, 0, 0, 8},
      {32, 0, 9, 9, 0, 0, 8},
      {16, 0, 5, 5, 0, 0, 4}}},
    {"bbara", Technology::kMultiLevel,
     {{270, 7, 101, 512, 303, 47, 4},
      {300, 10, 101, 512, 303, 47, 8},
      {378, 7, 136, 667, 412, 64, 8},
      {303, 7, 100, 507, 342, 59, 4}}},
    {"bbtas", Technology::kMultiLevel,
     {{66.5, 5, 26, 77, 63, 6, 3},
      {89, 8, 26, 77, 63, 6, 6},
      {104, 6, 39, 119, 94, 11, 6},
      {118, 7, 42, 177, 115, 22, 6}}},
    {"dk14", Technology::kMultiLevel,
     {{219, 6, 88, 385, 247, 35, 3},
      {241.5, 9, 88, 385, 247, 35, 6},
      {305, 6, 116, 509, 338, 52, 6},
      {363.5, 9, 137, 836, 416, 76, 6}}},
    {"dk15", Technology::kMultiLevel,
     {{119.5, 6, 51, 188, 132, 16, 2},
      {134.5, 9, 51, 188, 132, 16, 4},
      {160, 6, 63, 231, 168, 20, 4},
      {184.5, 6, 75, 394, 198, 29, 4}}},
    {"dk16", Technology::kMultiLevel,
     {{471.5, 7, 195, 1036, 534, 78, 5},
      {509, 10, 195, 1036, 534, 78, 10},
      {788, 7, 319, 1706, 893, 139, 10},
      {284, 7, 96, 446, 304, 44, 6}}},
    {"dk17", Technology::kMultiLevel,
     {{112.5, 5, 43, 161, 118, 14, 3},
      {135, 8, 43, 161, 118, 14, 6},
      {182, 5, 64, 244, 183, 21, 6},
      {216, 8, 76, 414, 231, 39, 6}}},
    {"dk27", Technology::kMultiLevel,
     {{45, 6, 15, 45, 40, 4, 3},
      {67.5, 9, 15, 45, 40, 4, 6},
      {71, 6, 21, 60, 55, 4, 6},
      {32, 5, 11, 29, 24, 2, 3}}},
    {"dk512", Technology::kMultiLevel,
     {{134.5, 5, 52, 193, 140, 17, 4},
      {164.5, 8, 52, 193, 140, 17, 8},
      {230, 7, 84, 313, 234, 30, 8},
      {101, 6, 34, 106, 91, 8, 5}}},
    {"mc", Technology::kMultiLevel,
     {{111.5, 6, 45, 158, 123, 15, 2},
      {126.5, 9, 45, 158, 123, 15, 4},
      {145, 6, 54, 194, 153, 20, 4},
      {175.5, 7, 70, 374, 190, 30, 4}}},
    {"shiftreg", Technology::kMultiLevel,
     {{46, 4, 15, 40, 38, 2, 3},
      {68.5, 7, 15, 40, 38, 2, 6},
      {86, 4, 27, 73, 69, 4, 6},
      {12, 0, 4, 4, 4, 0, 3}}},
    {"tav", Technology::kMultiLevel,
     {{181, 7, 73, 320, 207, 31, 2},
      {196, 9, 73, 320, 207, 31, 4},
      {228, 7, 86, 368, 249, 35, 4},
      {209, 7, 73, 320, 228, 29, 2}}},
    {"tbk", Technology::kMultiLevel,
     {{3466.5, 10, 1299, 12612, 4147, 698, 5},
      {3504, 13, 1299, 12612, 4147, 698, 10},
      {4541, 10, 1699, 15990, 5415, 912, 10},
      {3375, 8, 1338, 12418, 4016, 667, 5}}},
    {"paper_fig5", Technology::kMultiLevel,
     {{26.5, 3, 8, 20, 20, 0, 2},
      {41.5, 6, 8, 20, 20, 0, 4},
      {47, 3, 13, 33, 33, 0, 4},
      {23.5, 3, 7, 15, 15, 0, 2}}},
    {"serial_adder", Technology::kMultiLevel,
     {{21.5, 3, 7, 18, 18, 0, 1},
      {29, 6, 7, 18, 18, 0, 2},
      {30.5, 3, 10, 24, 24, 0, 2},
      {31, 5, 10, 28, 26, 2, 2}}},
    {"parity4", Technology::kMultiLevel,
     {{35.5, 6, 32, 160, 38, 7, 1},
      {43, 6, 32, 160, 38, 7, 2},
      {65, 7, 48, 240, 66, 11, 2},
      {87, 8, 48, 256, 88, 14, 2}}},
    {"count10", Technology::kMultiLevel,
     {{38.5, 4, 13, 33, 27, 2, 4},
      {68.5, 7, 13, 33, 27, 2, 8},
      {76, 4, 25, 63, 52, 4, 8},
      {79, 4, 25, 65, 55, 4, 8}}},
    {"count15", Technology::kMultiLevel,
     {{48.5, 5, 17, 47, 40, 5, 4},
      {78.5, 8, 17, 47, 40, 5, 8},
      {94, 5, 33, 90, 76, 10, 8},
      {97, 5, 33, 93, 79, 10, 8}}},
    {"shiftreg4", Technology::kMultiLevel,
     {{16, 0, 5, 5, 5, 0, 4},
      {46, 3, 5, 5, 5, 0, 8},
      {32, 0, 9, 9, 9, 0, 8},
      {16, 0, 5, 5, 5, 0, 4}}},
};

const FlowGolden* find_golden(const std::string& machine, Technology tech) {
  for (const FlowGolden& g : kFlowGolden)
    if (machine == g.machine && tech == g.tech) return &g;
  return nullptr;
}

void check_flow(const std::string& machine, Technology tech) {
  const FlowGolden* g = find_golden(machine, tech);
  ASSERT_NE(g, nullptr) << "no golden for " << machine;
  FlowOptions opts;
  opts.technology = tech;
  const FlowResult r = run_flow(load_benchmark(machine), opts);
  const StructureReport* figs[] = {&r.fig1, &r.fig2, &r.fig3, &r.fig4};
  for (std::size_t k = 0; k < 4; ++k) expect_matches(*figs[k], g->fig[k], tech);
}

class CorpusStructureGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusStructureGolden, TwoLevelFiguresAsPinned) {
  check_flow(GetParam(), Technology::kTwoLevel);
}

TEST_P(CorpusStructureGolden, MultiLevelFiguresAsPinned) {
  if (GetParam() == "s1") GTEST_SKIP() << "s1 multi_level is pinned by SharedBlock's own run";
  check_flow(GetParam(), Technology::kMultiLevel);
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, CorpusStructureGolden,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- espresso on wide random specs --------------------------------------------

/// Random multi-output spec whose every output has more than 64 ON cubes,
/// so the minimizer's cube-index rows span several 64-bit words. Cubes keep
/// most variables (each with probability 4/5) so the OFF covers stay large
/// too.
PlaSpec wide_random_spec(std::uint64_t seed) {
  Rng rng(seed);
  PlaSpec spec;
  spec.num_vars = 10 + rng.below(4);
  spec.num_outputs = 3 + rng.below(4);
  spec.on = CubeList(spec.num_vars, spec.num_outputs);
  spec.dc = CubeList(spec.num_vars, spec.num_outputs);
  const std::uint64_t all_out = (std::uint64_t{1} << spec.num_outputs) - 1;
  const auto random_cube = [&] {
    std::uint64_t care = 0;
    for (std::size_t v = 0; v < spec.num_vars; ++v)
      if (rng.below(5) != 0) care |= std::uint64_t{1} << v;
    return Cube{care, rng.next() & care};
  };
  for (std::size_t k = 0; k < 70 * spec.num_outputs; ++k) {
    std::uint64_t out = rng.next() & all_out;
    if (out == 0) out = std::uint64_t{1} << rng.below(spec.num_outputs);
    spec.on.add(random_cube(), out);
  }
  for (std::size_t k = 0; k < 24; ++k) spec.dc.add(random_cube(), rng.next() & all_out);
  return spec;
}

/// FNV-1a over 64-bit words, least significant byte first.
class Fnv1a {
 public:
  void mix(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (x >> (8 * byte)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a over the cube list in order: input part, then output part.
std::uint64_t digest(const CubeList& f) {
  Fnv1a h;
  for (const MCube& m : f.cubes()) {
    h.mix(m.in.care);
    h.mix(m.in.value);
    h.mix(m.out);
  }
  return h.value();
}

struct WideSpecGolden {
  std::uint64_t seed;
  std::size_t cubes, input_literals;
  std::uint64_t digest;
};

const WideSpecGolden kWideSpecGolden[] = {
    {1, 316, 2529, 0x7ae47930cce1ae9fULL},
    {2, 347, 3579, 0x392ab387dd5372daULL},
    {3, 267, 1835, 0xbdd8bbfe316a786fULL},
    {4, 203, 2066, 0x13f8525c05b6bc3bULL},
    {5, 196, 1644, 0xef72ac14ef96e714ULL},
    {6, 372, 3016, 0xd42df7aedea273f6ULL},
    {7, 332, 3062, 0xdde5dac1890fc628ULL},
    {8, 346, 3527, 0xd2ad1b94f35ff5e7ULL},
};

TEST(CorpusStructureGolden, EspressoOnWideSpecsAsPinned) {
  for (const WideSpecGolden& g : kWideSpecGolden) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    const PlaSpec spec = wide_random_spec(g.seed);
    for (std::size_t b = 0; b < spec.num_outputs; ++b)
      ASSERT_GT(spec.on.output_cover(b).num_cubes(), 64u) << "output " << b;
    const CubeList f = minimize_espresso_mv(spec);
    EXPECT_EQ(f.num_cubes(), g.cubes);
    EXPECT_EQ(f.num_input_literals(), g.input_literals);
    EXPECT_EQ(digest(f), g.digest);
  }
}

// --- espresso on the corpus blocks and on edge-case specs ---------------------

struct EspressoGoldenRow {
  const char* name;
  std::size_t cubes, input_literals;
  std::uint64_t digest;
};

void expect_cover(const CubeList& f, const EspressoGoldenRow& g) {
  EXPECT_EQ(f.num_cubes(), g.cubes);
  EXPECT_EQ(f.num_input_literals(), g.input_literals);
  EXPECT_EQ(digest(f), g.digest)
      << "actual row: {\"" << g.name << "\", " << f.num_cubes() << ", "
      << f.num_input_literals() << ", 0x" << std::hex << digest(f) << "ULL}";
}

const EspressoGoldenRow* find_row(const std::string& name, const EspressoGoldenRow* rows,
                                  std::size_t n) {
  for (std::size_t k = 0; k < n; ++k)
    if (name == rows[k].name) return &rows[k];
  return nullptr;
}

// Each corpus machine's combined fig1-fig3 block (natural encoding), s1
// and tbk included.
const EspressoGoldenRow kEspressoCorpusGolden[] = {
    {"bbara", 95, 500, 0xc4ef5cd223fb88ecULL},
    {"bbtas", 20, 63, 0x69d4d128601d9250ULL},
    {"dk14", 51, 250, 0x46d67a4c7f011beULL},
    {"dk15", 28, 113, 0x73426ee238011c08ULL},
    {"dk16", 106, 648, 0x5068f41a911c134eULL},
    {"dk17", 28, 121, 0xf17eea019d1aeb63ULL},
    {"dk27", 12, 38, 0x71c79ed67fa3fcadULL},
    {"dk512", 29, 125, 0x892d85408b614728ULL},
    {"mc", 28, 119, 0xad1a826c5be61d31ULL},
    {"s1", 4744, 51851, 0x259af71b610b0316ULL},
    {"shiftreg", 13, 36, 0x2f4e38f2a74228c3ULL},
    {"tav", 54, 256, 0x1add6f080d6b90d7ULL},
    {"tbk", 1299, 11032, 0x6193e8efeafa4213ULL},
    {"paper_fig5", 8, 20, 0x49d9ef4da724bf25ULL},
    {"serial_adder", 7, 18, 0x74932819b36cbd64ULL},
    {"parity4", 16, 80, 0xd4202776cc00e625ULL},
    {"count10", 13, 33, 0x3e33942f01e0587ULL},
    {"count15", 17, 47, 0x8539cb4683ef205ULL},
    {"shiftreg4", 5, 5, 0x2b9a5e2274b0c7daULL},
};

class EspressoGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(EspressoGolden, CorpusBlockAsPinned) {
  const std::string& name = GetParam();
  const MealyMachine m = load_benchmark(name);
  const CubeList f =
      minimize_espresso_mv(encode_fsm(m, natural_encoding(m.num_states())).spec);
  const EspressoGoldenRow* g =
      find_row(name, kEspressoCorpusGolden, std::size(kEspressoCorpusGolden));
  ASSERT_NE(g, nullptr) << "no golden; actual row: {\"" << name << "\", "
                        << f.num_cubes() << ", " << f.num_input_literals() << ", 0x"
                        << std::hex << digest(f) << "ULL}";
  expect_cover(f, *g);
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, EspressoGolden,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

/// s1's fig4 blocks. OSTR's best pair for s1 is the identity pair, so
/// they are built from it directly: C1 (13 variables) and
/// lambda (18 variables, 5046 ON cubes). C2 equals C1.
struct S1Fig4Specs {
  PlaSpec c1, lambda;
};

const S1Fig4Specs& s1_fig4_specs() {
  static const S1Fig4Specs specs = [] {
    const MealyMachine m = load_benchmark("s1");
    const Partition id = Partition::identity(m.num_states());
    const FactorTables& ft = build_realization(m, id, id).tables;
    const Encoding enc1 = natural_encoding(ft.n1);
    const Encoding enc2 = natural_encoding(ft.n2);
    const std::size_t input_bits = m.effective_input_bits();
    S1Fig4Specs s;
    s.c1 = encode_factor(ft.delta1, ft.num_inputs, input_bits, enc1, enc2).spec;
    s.lambda = encode_lambda(ft.lambda, ft.n1, ft.n2, ft.num_inputs, input_bits,
                             m.effective_output_bits(), enc1, enc2)
                   .spec;
    return s;
  }();
  return specs;
}

const EspressoGoldenRow kEspressoS1Fig4Golden[] = {
    {"s1 fig4 C1", 2248, 23417, 0x487f360bfe84c885ULL},
    {"s1 fig4 lambda", 4295, 63036, 0xed01b6a4ca313bc7ULL},
};

TEST(EspressoGolden, S1Fig4BlocksAsPinned) {
  const S1Fig4Specs& s = s1_fig4_specs();
  ASSERT_EQ(s.c1.num_vars, 13u);
  ASSERT_EQ(s.lambda.num_vars, 18u);
  ASSERT_EQ(s.lambda.on.num_cubes(), 5046u);
  expect_cover(minimize_espresso_mv(s.c1), kEspressoS1Fig4Golden[0]);
  expect_cover(minimize_espresso_mv(s.lambda), kEspressoS1Fig4Golden[1]);
}

/// Random multi-output spec over 8-11 variables and 5-7 outputs whose
/// first three outputs are edge cases of EXPAND's OFF-cover index:
///   output 0 is constant 0 (no ON or DC cube drives it), so its OFF cover
///     is the universe: one literal-free cube, an index with empty support;
///   output 1 is constant 1 (a literal-free DC cube drives it), so its OFF
///     cover is empty: an index of zero words;
///   output 2 depends only on the upper half of the variables, so its OFF
///     cover has no literal on the lower half (the cubes a literal of a
///     trial cube finds no index row for).
/// The other outputs are random, with cubes shared across outputs.
PlaSpec edge_random_spec(std::uint64_t seed) {
  Rng rng(seed);
  PlaSpec spec;
  spec.num_vars = 8 + rng.below(4);
  spec.num_outputs = 5 + rng.below(3);
  spec.on = CubeList(spec.num_vars, spec.num_outputs);
  spec.dc = CubeList(spec.num_vars, spec.num_outputs);
  const std::uint64_t random_out = ((std::uint64_t{1} << spec.num_outputs) - 1) & ~0x7ULL;
  const std::uint64_t upper_half = ((std::uint64_t{1} << spec.num_vars) - 1) &
                                   ~((std::uint64_t{1} << (spec.num_vars / 2)) - 1);
  const auto random_cube = [&](std::uint64_t vars) {
    std::uint64_t care = 0;
    for (std::uint64_t rest = vars; rest; rest &= rest - 1)
      if (rng.below(3) != 0) care |= rest & (~rest + 1);
    return Cube{care, rng.next() & care};
  };
  const std::uint64_t all_vars = (std::uint64_t{1} << spec.num_vars) - 1;
  for (std::size_t k = 0; k < 30 * spec.num_outputs; ++k) {
    std::uint64_t out = rng.next() & random_out;
    if (rng.below(4) == 0) out |= 0x2;  // shares products with the constant-1 output
    if (out == 0) out = std::uint64_t{1} << (3 + rng.below(spec.num_outputs - 3));
    spec.on.add(random_cube(all_vars), out);
  }
  // At most 6 x 2 of the upper half's >= 16 minterms: never a tautology.
  for (std::size_t k = 0; k < 6; ++k) {
    const std::uint64_t care =
        upper_half & ~(std::uint64_t{1} << (spec.num_vars / 2 + rng.below(spec.num_vars / 2)));
    spec.on.add(Cube{care, rng.next() & care}, 0x4);
  }
  for (std::size_t k = 0; k < 10; ++k) spec.dc.add(random_cube(all_vars), rng.next() & random_out);
  spec.dc.add(Cube::top(), 0x2);
  return spec;
}

const EspressoGoldenRow kEspressoRandomGolden[] = {
    {"seed 1", 60, 212, 0x3268798495cdea67ULL},
    {"seed 2", 158, 1091, 0x9fffedae250c2ad5ULL},
    {"seed 3", 22, 39, 0x1936f82976c2ac55ULL},
    {"seed 4", 119, 730, 0x2182b16a46c74ab0ULL},
    {"seed 5", 55, 207, 0xe222bfa324662993ULL},
    {"seed 6", 102, 402, 0xfe813049e01d78f0ULL},
};

TEST(EspressoGolden, RandomPlasWithConstantAndNarrowOutputsAsPinned) {
  std::uint64_t seed = 0;
  for (const EspressoGoldenRow& g : kEspressoRandomGolden) {
    SCOPED_TRACE(g.name);
    const PlaSpec spec = edge_random_spec(++seed);
    const auto off_cover = [&](std::size_t b) {
      Cover care = spec.on.output_cover(b);
      const Cover dc = spec.dc.output_cover(b);
      for (const Cube& q : dc.cubes()) care.add(q);
      return complement_cover(care);
    };
    const Cover off0 = off_cover(0), off1 = off_cover(1), off2 = off_cover(2);
    ASSERT_EQ(off0.num_cubes(), 1u);
    ASSERT_EQ(off0.cubes()[0], Cube::top());
    ASSERT_TRUE(off1.empty());
    std::uint64_t support2 = 0;
    for (const Cube& q : off2.cubes()) support2 |= q.care;
    ASSERT_FALSE(off2.empty());
    ASSERT_EQ(support2 & ((std::uint64_t{1} << (spec.num_vars / 2)) - 1), 0u);

    const CubeList f = minimize_espresso_mv(spec);
    for (const MCube& q : f.cubes()) EXPECT_EQ(q.out & 0x1, 0u);
    expect_cover(f, g);
  }
}

// --- fig4 with coinciding factors --------------------------------------------

// When delta1 = delta2 over n1 = n2 states, both factors use the same
// natural encoding, so encode_factor yields one block for C1 and C2 and
// build_fig4 minimizes it once. These suites check that premise on every
// corpus machine where it holds and that fig4 still matches its row.

/// The realization run_flow builds: OSTR at the flow's node cap.
Realization flow_realization(const MealyMachine& m) {
  const OstrResult r = solve_ostr(m, FlowOptions().ostr);
  return build_realization(m, r.best.pi, r.best.tau);
}

bool factors_coincide(const FactorTables& ft) {
  return ft.n1 == ft.n2 && ft.delta1 == ft.delta2;
}

const std::vector<std::string> kCoincidingFactors = {
    "bbtas", "count10", "count15", "dk14", "dk15", "dk17",
    "mc", "paper_fig5", "parity4", "s1", "serial_adder"};

TEST(Fig4SharedFactor, CoincidingFactorsAreExactlyThese) {
  std::vector<std::string> found;
  for (const std::string& name : benchmark_names())
    if (factors_coincide(flow_realization(load_benchmark(name)).tables)) found.push_back(name);
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, kCoincidingFactors);
}

void expect_same_table(const TruthTable& a, const TruthTable& b) {
  ASSERT_EQ(a.num_vars(), b.num_vars());
  EXPECT_EQ(a.on_minterms(), b.on_minterms());
  EXPECT_EQ(a.dc_minterms(), b.dc_minterms());
}

class Fig4SharedFactor : public ::testing::TestWithParam<std::string> {};

TEST_P(Fig4SharedFactor, C2BlockEqualsC1BlockAndFig4AsPinned) {
  const std::string& name = GetParam();
  const MealyMachine m = load_benchmark(name);
  const Realization real = flow_realization(m);
  const FactorTables& ft = real.tables;
  ASSERT_TRUE(factors_coincide(ft));
  const Encoding enc1 = natural_encoding(ft.n1);
  const Encoding enc2 = natural_encoding(ft.n2);
  const std::size_t input_bits = m.effective_input_bits();
  const EncodedFactor f1 = encode_factor(ft.delta1, ft.num_inputs, input_bits, enc1, enc2);
  const EncodedFactor f2 = encode_factor(ft.delta2, ft.num_inputs, input_bits, enc2, enc1);
  EXPECT_EQ(f1.in_state_bits, f2.in_state_bits);
  EXPECT_EQ(f1.out_state_bits, f2.out_state_bits);
  EXPECT_EQ(f1.spec.num_vars, f2.spec.num_vars);
  EXPECT_EQ(f1.spec.num_outputs, f2.spec.num_outputs);
  EXPECT_EQ(f1.spec.on.cubes(), f2.spec.on.cubes());
  EXPECT_EQ(f1.spec.dc.cubes(), f2.spec.dc.cubes());
  ASSERT_EQ(f1.next_state.size(), f2.next_state.size());
  for (std::size_t b = 0; b < f1.next_state.size(); ++b)
    expect_same_table(f1.next_state[b], f2.next_state[b]);

  for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel}) {
    SCOPED_TRACE(technology_name(tech));
    FlowOptions opts;
    opts.technology = tech;
    const StructureReport r =
        measure_structure(build_fig4(m, real, MinimizerKind::kAuto, tech), opts);
    if (name == "s1" && tech == Technology::kMultiLevel) {
      expect_matches(r, kS1MultiLevelGolden[3], tech);
    } else {
      const FlowGolden* g = find_golden(name, tech);
      ASSERT_NE(g, nullptr);
      expect_matches(r, g->fig[3], tech);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoincidingFactors, Fig4SharedFactor,
                         ::testing::ValuesIn(kCoincidingFactors),
                         [](const auto& info) { return info.param; });

// --- algebraic extraction -----------------------------------------------------

/// FNV-1a over a factored network: every node, then every output, each as
/// its cube count followed by every cube's length and literals in order.
std::uint64_t digest(const FactoredNetwork& fn) {
  Fnv1a h;
  const auto mix_sop = [&](const SopExpr& s) {
    h.mix(s.cubes.size());
    for (const FCube& c : s.cubes) {
      h.mix(c.size());
      for (LitId l : c) h.mix(l);
    }
  };
  h.mix(fn.nodes.size());
  for (const SopExpr& s : fn.nodes) mix_sop(s);
  h.mix(fn.outputs.size());
  for (const SopExpr& s : fn.outputs) mix_sop(s);
  return h.value();
}

struct FactorGoldenRow {
  const char* name;
  std::size_t nodes, literals;
  std::uint64_t digest;
};

void expect_network(const FactoredNetwork& fn, const FactorGoldenRow& g) {
  EXPECT_EQ(fn.num_nodes(), g.nodes);
  EXPECT_EQ(fn.num_literals(), g.literals);
  EXPECT_EQ(digest(fn), g.digest)
      << "actual row: {\"" << g.name << "\", " << fn.num_nodes() << ", "
      << fn.num_literals() << ", 0x" << std::hex << digest(fn) << "ULL}";
}

// Each corpus machine's combined fig1-fig3 block (natural encoding),
// forced through espresso so that every machine, QM-sized or not, feeds
// extraction a multi-output PLA. s1 is left out: its block alone takes
// seconds to factor.
const FactorGoldenRow kFactorCorpusGolden[] = {
    {"bbara", 58, 352, 0x8aa4c1dc50b420aaULL},
    {"bbtas", 9, 72, 0x3bb55d4489e65753ULL},
    {"dk14", 55, 286, 0x886d549d15400893ULL},
    {"dk15", 28, 142, 0x67c063b4f5eb3eaeULL},
    {"dk16", 120, 634, 0xb0f4d8491d8f7de4ULL},
    {"dk17", 25, 143, 0x32eff4d12d1615baULL},
    {"dk27", 6, 45, 0x47e53492587c27aaULL},
    {"dk512", 32, 163, 0xca2e29991bc971ccULL},
    {"mc", 27, 153, 0x90f06b1762583175ULL},
    {"shiftreg", 3, 38, 0xa197ff375a3d48c9ULL},
    {"tav", 41, 228, 0x6b86e6f35fb96677ULL},
    {"tbk", 698, 4147, 0x831df90a2ad84fb4ULL},
    {"paper_fig5", 0, 20, 0xe0abca97a15e8742ULL},
    {"serial_adder", 0, 18, 0x10dbfe8c74665122ULL},
    {"parity4", 7, 38, 0x85407befb13e7264ULL},
    {"count10", 2, 27, 0xc12f4cd0d999aaa4ULL},
    {"count15", 5, 40, 0xb952a3920d0d44c0ULL},
    {"shiftreg4", 0, 5, 0x1475dced4fa34b28ULL},
};

class FactorGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(FactorGolden, CorpusBlockAsPinned) {
  const std::string& name = GetParam();
  const FactorGoldenRow* g = nullptr;
  for (const FactorGoldenRow& row : kFactorCorpusGolden)
    if (name == row.name) g = &row;
  const MealyMachine m = load_benchmark(name);
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const MinimizedBlock block =
      minimize_combined(enc, MinimizerKind::kEspresso, Technology::kTwoLevel);
  const FactoredNetwork fn = extract_factored(block.pla.value());
  ASSERT_NE(g, nullptr) << "no golden; actual row: {\"" << name << "\", "
                        << fn.num_nodes() << ", " << fn.num_literals() << ", 0x"
                        << std::hex << digest(fn) << "ULL}";
  expect_network(fn, *g);
}

std::vector<std::string> factor_corpus() {
  std::vector<std::string> names;
  for (const std::string& n : benchmark_names())
    if (n != "s1") names.push_back(n);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllKissMachinesButS1, FactorGolden,
                         ::testing::ValuesIn(factor_corpus()),
                         [](const auto& info) { return info.param; });

/// Random multi-output PLA over 12-14 variables: 5-7 outputs, 160-220
/// cubes each keeping a variable with probability 1/2 and feeding one to
/// three outputs. Unminimized, so it carries many shared kernels.
CubeList random_factor_pla(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t num_vars = 12 + rng.below(3);
  const std::size_t num_outputs = 5 + rng.below(3);
  CubeList pla(num_vars, num_outputs);
  const std::size_t num_cubes = 160 + rng.below(61);
  for (std::size_t k = 0; k < num_cubes; ++k) {
    std::uint64_t care = 0;
    for (std::size_t v = 0; v < num_vars; ++v)
      if (rng.below(2) != 0) care |= std::uint64_t{1} << v;
    std::uint64_t out = 0;
    for (std::size_t n = 1 + rng.below(3); n > 0; --n)
      out |= std::uint64_t{1} << rng.below(num_outputs);
    pla.add(Cube{care, rng.next() & care}, out);
  }
  return pla;
}

const FactorGoldenRow kFactorRandomGolden[] = {
    {"seed 1", 258, 1276, 0xbafceaaefe92f508ULL},
    {"seed 2", 240, 1147, 0x232dce4bcd8b7492ULL},
    {"seed 3", 248, 1231, 0x842459dbbcfd549bULL},
    {"seed 4", 221, 1052, 0x766b3e93a0e635a7ULL},
    {"seed 5", 239, 1180, 0x7c946dd773527b42ULL},
    {"seed 6", 225, 1098, 0xafca4a20960225a9ULL},
};

TEST(FactorGolden, RandomPlasAsPinned) {
  std::uint64_t seed = 0;
  for (const FactorGoldenRow& g : kFactorRandomGolden) {
    SCOPED_TRACE(g.name);
    const FactoredNetwork fn = extract_factored(random_factor_pla(++seed));
    expect_network(fn, g);
  }
}

}  // namespace
}  // namespace stc
