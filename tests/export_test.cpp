// Tests for the Verilog / BLIF netlist writers (src/netlist/export.*).

#include <gtest/gtest.h>

#include "benchdata/iwls93.hpp"
#include "bist/architectures.hpp"
#include "netlist/export.hpp"
#include "ostr/ostr.hpp"
#include "encoding/encoding.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace stc {
namespace {

Netlist tiny_netlist() {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId q = nl.add_dff("state", true);
  const NetId g = nl.add_and({a, q});
  const NetId h = nl.add_xor({g, b});
  nl.connect_dff(q, h);
  nl.add_output(h, "y");
  nl.finalize();
  return nl;
}

TEST(Verilog, ContainsModuleStructure) {
  const std::string v = write_verilog(tiny_netlist(), "tiny");
  EXPECT_NE(v.find("module tiny("), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk or posedge rst)"), std::string::npos);
  EXPECT_NE(v.find("assign po0"), std::string::npos);
  // Reset loads the power-up value 1.
  EXPECT_NE(v.find("<= 1'b1;"), std::string::npos);
  // Gate operators appear.
  EXPECT_NE(v.find(" & "), std::string::npos);
  EXPECT_NE(v.find(" ^ "), std::string::npos);
}

TEST(Verilog, EveryNetDeclaredOnce) {
  const Netlist nl = tiny_netlist();
  const std::string v = write_verilog(nl, "tiny");
  // Each non-input net appears in exactly one wire/reg declaration.
  std::size_t decls = 0;
  for (std::size_t pos = 0; (pos = v.find("  wire ", pos)) != std::string::npos;
       pos += 7)
    ++decls;
  for (std::size_t pos = 0; (pos = v.find("  reg  ", pos)) != std::string::npos;
       pos += 7)
    ++decls;
  std::size_t expected = 0;
  for (NetId id = 0; id < nl.num_nets(); ++id)
    if (nl.gate(id).type != GateType::kInput) ++expected;
  EXPECT_EQ(decls, expected);
}

TEST(Blif, ContainsModelLatchesAndNames) {
  const std::string b = write_blif(tiny_netlist(), "tiny");
  EXPECT_NE(b.find(".model tiny"), std::string::npos);
  EXPECT_NE(b.find(".inputs"), std::string::npos);
  EXPECT_NE(b.find(".outputs po0"), std::string::npos);
  EXPECT_NE(b.find(".latch"), std::string::npos);
  EXPECT_NE(b.find(" re clk 1"), std::string::npos);  // init value 1
  EXPECT_NE(b.find(".names"), std::string::npos);
  EXPECT_NE(b.find(".end"), std::string::npos);
}

TEST(Blif, XorExpandsToOddParityRows) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_xor({a, b});
  nl.add_output(x, "y");
  nl.finalize();
  const std::string blif = write_blif(nl, "x");
  EXPECT_NE(blif.find("10 1"), std::string::npos);
  EXPECT_NE(blif.find("01 1"), std::string::npos);
  EXPECT_EQ(blif.find("11 1"), std::string::npos);
}

TEST(Export, FullPipelineControllerExports) {
  const MealyMachine m = load_benchmark("shiftreg");
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure cs = build_fig4(m, real);
  const std::string v = write_verilog(cs.nl, "shiftreg_pipeline");
  const std::string b = write_blif(cs.nl, "shiftreg_pipeline");
  EXPECT_NE(v.find("module shiftreg_pipeline("), std::string::npos);
  EXPECT_EQ(std::count(b.begin(), b.end(), '\n') > 5, true);
  // 3 flip-flops -> 3 latches in BLIF.
  std::size_t latches = 0;
  for (std::size_t pos = 0; (pos = b.find(".latch", pos)) != std::string::npos;
       pos += 6)
    ++latches;
  EXPECT_EQ(latches, cs.nl.num_dffs());
}

// --- export goldens -------------------------------------------------------------

/// FNV-1a digests of write_verilog and write_blif for one corpus machine's
/// two-level figs. 1-4: any change to net naming, gate order, fanin order
/// or DFF init values shows up as a changed digest.
struct ExportGoldenRow {
  const char* machine;
  std::uint64_t verilog[4];
  std::uint64_t blif[4];
};

const ExportGoldenRow kExportGolden[] = {
    {"bbara",
     {0x8fdc7e61d0accb68ull, 0x63f47ba6709629c8ull, 0x0342a4eb395efb68ull, 0x25b6781f314e7c65ull},
     {0xc799411e4eb25c25ull, 0xb0137154372acd98ull, 0x57eca14d569c72cdull, 0xa352dcbf91b0d413ull}},
    {"bbtas",
     {0xc8e570f386ff7d60ull, 0xa6af391864b25fc6ull, 0x8d620744f67774f1ull, 0xeee1ee5cbd007d4dull},
     {0xa33e6fb620fdda5full, 0x306fe5b678cf57c5ull, 0x03d2a2eaefaae10cull, 0x4b60fbefcb9aad35ull}},
    {"dk14",
     {0x74a4503bb8eb5f05ull, 0x7dccde97229d310aull, 0xb0b443dc9d2b1c95ull, 0x8a88abb4036ccc7aull},
     {0x08bda3dce42377b4ull, 0x7b1222b6225b26d7ull, 0xe3c7ee9fd78e84ecull, 0xfc1e2247389b17c4ull}},
    {"dk15",
     {0x52931113218d02c5ull, 0x236507cba10a79cdull, 0xc6ddb5da0b82eafaull, 0x949ce7e56b7ca317ull},
     {0x6aed3eb3e51bb2f7ull, 0xbc7135b132a9de72ull, 0x2fbbbf8701b0b7baull, 0x52c8da59c4bb1313ull}},
    {"dk16",
     {0x5190a8f0f2bb1dd1ull, 0xe934d554afdd6a74ull, 0x9dbeca4fab7eef7bull, 0x5437e8273d9b9b70ull},
     {0x4449080be339a218ull, 0x74e43bdc71ed8a56ull, 0xf032eab147eb1c90ull, 0xbc05fc3a4ec7c40eull}},
    {"dk17",
     {0x5c03d56c93f43af5ull, 0xd13a0503556175d2ull, 0x747fa002b930c9d1ull, 0xa94672fc60980fbfull},
     {0x87c5cbb0ae79b8e8ull, 0x454bc60047c320daull, 0x08b5cfabfabd839cull, 0x1d0fa02e98e41ff1ull}},
    {"dk27",
     {0xffa3143c319d00a6ull, 0x5a45fffef91cd6d5ull, 0x3e954cb1edcfd0b3ull, 0x4f6d19dbc6b9750bull},
     {0x9e3ec495378d58cbull, 0xc34afe1709a6fab1ull, 0x29bf660a49ee4c1full, 0xc52feab08c815eabull}},
    {"dk512",
     {0xfc62e02d2eeb5d87ull, 0xede41e54f54225a3ull, 0xa9b7436f11c49b0bull, 0x6acd137211d18ae4ull},
     {0xdf63c6fd99d0502aull, 0xa993c2dda1bbe1d7ull, 0x49bdfd6baaca161full, 0xd40ac716fd14a484ull}},
    {"mc",
     {0x7a62983462d6046dull, 0x4029de752e73a562ull, 0xe422cb60e3295cd1ull, 0xbae8aaa8ae87437dull},
     {0x1a6d7ad5ccc45a59ull, 0xc8aec69b59a9d171ull, 0x73c051f356ee441aull, 0xd1eb2952f17ed689ull}},
    {"s1",
     {0x388547d9de8e10e8ull, 0xf64ad432011f57b5ull, 0xee7a8af6d9da4212ull, 0x69ad47c031010abdull},
     {0x8a2a26382ae95fa7ull, 0xd7d3063fb0ebc188ull, 0x4f52f3b45526ad60ull, 0x909a7eb7016b4449ull}},
    {"shiftreg",
     {0xaea823d659f9724aull, 0x3bc415b4d775b74dull, 0xd2846aacbc2acaa7ull, 0xcbabd33d44fb6ba9ull},
     {0x795ab360a1f8f7a2ull, 0x6478b841bfb546ceull, 0x1bee327a96604f49ull, 0xe0875678e7907a70ull}},
    {"tav",
     {0xd78382bf3bc21242ull, 0x540bc2cc2d40621aull, 0x2a6625cbc31a2d6dull, 0xff71eddb6d89802dull},
     {0x0f230595344ff105ull, 0x8926be53fcb654fbull, 0xc029e7abbbb68886ull, 0x649b9f5553718845ull}},
    {"tbk",
     {0xe2154092dd3f5988ull, 0xc3e5c27101d314e3ull, 0x4113537fc2aa9157ull, 0x0c217655ba705b5aull},
     {0x143182a51f8479d9ull, 0x1a5953ac0263586full, 0x9a3fef27c97cda7aull, 0x40d3567e0549600full}},
    {"paper_fig5",
     {0x058f929aadda2d0aull, 0xa2aa98609711e196ull, 0x939b3a6b1b2cd027ull, 0xcd535e68051f2ebbull},
     {0xa9a68046171b1b16ull, 0x81596d2f32909710ull, 0xf27b3d4034928d7eull, 0x0ac82601252866faull}},
    {"serial_adder",
     {0x7c973da4e8989b17ull, 0xace6f0d34d1c7fffull, 0x37087def38e20758ull, 0x2805a589c25d517dull},
     {0xe48b9a5462632da5ull, 0x882f4f58d4288566ull, 0x32aa1375da4fa0dfull, 0xda82f19b36e0ae53ull}},
    {"parity4",
     {0xcc9e5a5962928018ull, 0xbd4e4872aa93d544ull, 0x6a13e3ac00bce264ull, 0xfc37204f82e83c5dull},
     {0xdc7e0ae0238ef10full, 0x00a233f445f12916ull, 0x58434d888425bd10ull, 0xb92aa313b6a2aebfull}},
    {"count10",
     {0x5c1b350a6bca4e49ull, 0x8cabf0ad1fe79d1dull, 0x64f7d4f260cb17acull, 0x1010931515d8cff2ull},
     {0xfa994a4f7ca9c0dbull, 0xa160cd8dcec82605ull, 0xb50eead98f98a6e3ull, 0xfbd8406d7c2e0049ull}},
    {"count15",
     {0xcdb32d5e09268ed4ull, 0xd46a98d59ca8511dull, 0xa7627fd3912e9189ull, 0xb2215c28c79bba86ull},
     {0x8331e5af4d5a15ccull, 0x1017f385192ccac2ull, 0x24e6ebc968478278ull, 0x0e529cfd7b4a5666ull}},
    {"shiftreg4",
     {0x0a26bae30638e845ull, 0x277cb1c18d7aba5bull, 0x7b8ef700b365fbceull, 0x0644ff8c3d6530bfull},
     {0x52c54c49d2ac94feull, 0x1d2c7921be326442ull, 0x60b67fa3eb54fcfaull, 0xe3d98bd4be20f260ull}},
};

class ExportGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ExportGolden, TwoLevelFiguresExportAsPinned) {
  const std::string& machine = GetParam();
  const MealyMachine m = load_benchmark(machine);
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const MinimizedBlock block = minimize_combined(enc, MinimizerKind::kAuto,
                                                 Technology::kTwoLevel);
  // Fig. 4 takes the best pair of a 20000-node OSTR search, as the
  // SessionCone suite does.
  OstrOptions opts;
  opts.max_nodes = 20000;
  const OstrResult ostr = solve_ostr(m, opts);
  const ControllerStructure figs[4] = {
      build_fig1(enc, block), build_fig2(enc, block), build_fig3(enc, block),
      build_fig4(m, build_realization(m, ostr.best.pi, ostr.best.tau))};
  std::uint64_t verilog[4], blif[4];
  for (int k = 0; k < 4; ++k) {
    verilog[k] = fnv1a_str(kFnvOffset, write_verilog(figs[k].nl, machine));
    blif[k] = fnv1a_str(kFnvOffset, write_blif(figs[k].nl, machine));
  }
  const std::string actual = strprintf(
      "{\"%s\", {0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull},\n"
      " {0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull}},",
      machine.c_str(), static_cast<unsigned long long>(verilog[0]),
      static_cast<unsigned long long>(verilog[1]),
      static_cast<unsigned long long>(verilog[2]),
      static_cast<unsigned long long>(verilog[3]),
      static_cast<unsigned long long>(blif[0]), static_cast<unsigned long long>(blif[1]),
      static_cast<unsigned long long>(blif[2]), static_cast<unsigned long long>(blif[3]));
  const ExportGoldenRow* row = nullptr;
  for (const ExportGoldenRow& r : kExportGolden)
    if (machine == r.machine) row = &r;
  ASSERT_NE(row, nullptr) << "no golden row; actual:\n" << actual;
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(verilog[k], row->verilog[k])
        << "fig" << k + 1 << " verilog; actual:\n" << actual;
    EXPECT_EQ(blif[k], row->blif[k]) << "fig" << k + 1 << " blif; actual:\n" << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, ExportGolden,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace stc
