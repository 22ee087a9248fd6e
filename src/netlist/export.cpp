#include "netlist/export.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace stc {
namespace {

std::string net_name(const Netlist& nl, NetId id) {
  const std::string& name = nl.name(id);
  // Sanitize user names; fall back to positional names.
  if (!name.empty()) {
    std::string s = "n_";
    for (char c : name)
      s += (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    return s + "_" + std::to_string(id);
  }
  return "w" + std::to_string(id);
}

}  // namespace

std::string write_verilog(const Netlist& nl, const std::string& module_name) {
  std::string out = "// generated by stc (Synthesis of Self-Testable Controllers)\n";
  out += "module " + module_name + "(\n  input wire clk,\n  input wire rst";
  for (NetId in : nl.inputs()) out += ",\n  input wire " + net_name(nl, in);
  for (std::size_t k = 0; k < nl.outputs().size(); ++k)
    out += strprintf(",\n  output wire po%zu", k);
  out += "\n);\n\n";

  // Declarations.
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const GateView g = nl.gate(id);
    if (g.type == GateType::kInput) continue;
    out += (g.type == GateType::kDff ? "  reg  " : "  wire ") + net_name(nl, id) +
           ";\n";
  }
  out += "\n";

  // Combinational gates.
  auto operand_list = [&](const GateView& g, const char* op) {
    std::string e;
    for (std::size_t k = 0; k < g.fanins.size(); ++k) {
      if (k) e += std::string(" ") + op + " ";
      e += net_name(nl, g.fanins[k]);
    }
    return e;
  };
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const GateView g = nl.gate(id);
    const std::string lhs = "  assign " + net_name(nl, id) + " = ";
    switch (g.type) {
      case GateType::kConst0: out += lhs + "1'b0;\n"; break;
      case GateType::kConst1: out += lhs + "1'b1;\n"; break;
      case GateType::kBuf: out += lhs + net_name(nl, g.fanins[0]) + ";\n"; break;
      case GateType::kNot: out += lhs + "~" + net_name(nl, g.fanins[0]) + ";\n"; break;
      case GateType::kAnd: out += lhs + operand_list(g, "&") + ";\n"; break;
      case GateType::kOr: out += lhs + operand_list(g, "|") + ";\n"; break;
      case GateType::kXor: out += lhs + operand_list(g, "^") + ";\n"; break;
      default: break;
    }
  }
  out += "\n";

  // Flip-flops.
  for (NetId q : nl.dffs()) {
    const GateView g = nl.gate(q);
    out += "  always @(posedge clk or posedge rst)\n";
    out += strprintf("    if (rst) %s <= 1'b%d;\n", net_name(nl, q).c_str(),
                     g.dff_init ? 1 : 0);
    out += "    else " + net_name(nl, q) + " <= " + net_name(nl, g.fanins[0]) +
           ";\n";
  }
  out += "\n";

  for (std::size_t k = 0; k < nl.outputs().size(); ++k)
    out += strprintf("  assign po%zu = %s;\n", k,
                     net_name(nl, nl.outputs()[k]).c_str());
  out += "endmodule\n";
  return out;
}

std::string write_blif(const Netlist& nl, const std::string& model_name) {
  std::string out = ".model " + model_name + "\n.inputs";
  for (NetId in : nl.inputs()) out += " " + net_name(nl, in);
  out += "\n.outputs";
  for (std::size_t k = 0; k < nl.outputs().size(); ++k)
    out += strprintf(" po%zu", k);
  out += "\n";

  for (NetId q : nl.dffs()) {
    const GateView g = nl.gate(q);
    out += strprintf(".latch %s %s re clk %d\n", net_name(nl, g.fanins[0]).c_str(),
                     net_name(nl, q).c_str(), g.dff_init ? 1 : 0);
  }

  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const GateView g = nl.gate(id);
    const std::string target = net_name(nl, id);
    auto names_header = [&](const GateView& gate) {
      std::string h = ".names";
      for (NetId f : gate.fanins) h += " " + net_name(nl, f);
      return h + " " + target + "\n";
    };
    switch (g.type) {
      case GateType::kConst0:
        out += ".names " + target + "\n";  // empty cover = constant 0
        break;
      case GateType::kConst1:
        out += ".names " + target + "\n1\n";
        break;
      case GateType::kBuf:
        out += names_header(g) + "1 1\n";
        break;
      case GateType::kNot:
        out += names_header(g) + "0 1\n";
        break;
      case GateType::kAnd:
        out += names_header(g) + std::string(g.fanins.size(), '1') + " 1\n";
        break;
      case GateType::kOr: {
        out += names_header(g);
        for (std::size_t k = 0; k < g.fanins.size(); ++k) {
          std::string row(g.fanins.size(), '-');
          row[k] = '1';
          out += row + " 1\n";
        }
        break;
      }
      case GateType::kXor: {
        out += names_header(g);
        // Enumerate odd-parity rows (fanin counts are small).
        const std::size_t n = g.fanins.size();
        for (std::size_t v = 0; v < (std::size_t{1} << n); ++v) {
          std::size_t ones = 0;
          for (std::size_t b = 0; b < n; ++b) ones += (v >> b) & 1;
          if (ones % 2 == 1) {
            std::string row(n, '0');
            for (std::size_t b = 0; b < n; ++b)
              if ((v >> b) & 1) row[b] = '1';
            out += row + " 1\n";
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Output aliases.
  for (std::size_t k = 0; k < nl.outputs().size(); ++k)
    out += strprintf(".names %s po%zu\n1 1\n",
                     net_name(nl, nl.outputs()[k]).c_str(), k);
  out += ".end\n";
  return out;
}

}  // namespace stc
