#pragma once
// Gate-level netlists with D flip-flops.
//
// A netlist is a DAG of combinational gates plus a set of DFFs breaking
// the cycles; every gate output is a net and gate id == net id. One flat
// form: a GateType per net, fanins as ranges of one NetId pool (a DFF's
// one slot holds its D net), and names only for the named nets.
// finalize() emits the combinational gates once as a topologically
// ordered program, which the scalar evaluator below and the compiled lane
// evaluator (netlist/eval64) run.
//
// The four controller structures of the paper (Figs. 1-4) are built on
// this representation by src/bist/architectures.*.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace stc {

using NetId = std::uint32_t;
inline constexpr NetId kNoNet = UINT32_MAX;

enum class GateType : std::uint8_t {
  kInput,   // primary input
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,     // n-input
  kOr,      // n-input
  kXor,     // n-input (odd parity)
  kDff,     // q output; fanin[0] = d (set after creation to allow loops)
};

/// A net's fanins in builder order: a range of the netlist's fanin pool.
struct FaninRange {
  const NetId* first;
  const NetId* last;
  const NetId* begin() const { return first; }
  const NetId* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
  NetId operator[](std::size_t k) const { return first[k]; }
};

/// Read-only view of the gate driving one net.
struct GateView {
  GateType type;
  FaninRange fanins;
  bool dff_init;  // power-up value for kDff
};

/// One combinational gate of the program; fanins from pool[fanin_begin].
struct NetOp {
  GateType type;
  NetId out;
  std::uint32_t fanin_begin;
  std::uint32_t fanin_count;
};

class Netlist {
 public:
  NetId add_input(std::string name);
  NetId add_const(bool value);
  NetId add_gate(GateType type, std::vector<NetId> fanins, std::string name = "");
  NetId add_not(NetId a) { return add_gate(GateType::kNot, {a}); }
  NetId add_and(std::vector<NetId> in) { return add_gate(GateType::kAnd, std::move(in)); }
  NetId add_or(std::vector<NetId> in) { return add_gate(GateType::kOr, std::move(in)); }
  NetId add_xor(std::vector<NetId> in) { return add_gate(GateType::kXor, std::move(in)); }

  /// Create a flip-flop; connect its D input later with connect_dff.
  NetId add_dff(std::string name, bool init = false);
  void connect_dff(NetId q, NetId d);

  void add_output(NetId net, std::string name);

  std::size_t num_nets() const { return types_.size(); }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  std::size_t num_dffs() const { return dffs_.size(); }

  /// The gate driving net `id` (std::out_of_range past num_nets()).
  GateView gate(NetId id) const;
  /// The net's diagnostic name, or "" when it has none.
  const std::string& name(NetId id) const;
  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }
  const std::vector<NetId>& dffs() const { return dffs_; }

  /// Checks all DFFs are connected and the combinational part is acyclic;
  /// emits the program. Must be called before simulation (and again after
  /// any edit, connect_dff included).
  void finalize();
  bool finalized() const { return finalized_; }

  /// The combinational gates in Kahn topological order (valid after
  /// finalize()), with fanins in fanin_pool().
  const std::vector<NetOp>& program() const { return program_; }
  const std::vector<NetId>& fanin_pool() const { return pool_; }

  /// Gate-equivalent area (INV 0.5, 2-input AND/OR 1.0 with n-input gates
  /// decomposed into n-1, XOR2 2.0, DFF 4.0, BUF/const free).
  double area_ge() const;

  /// Critical path length in gate levels through the combinational part
  /// (DFF q pins and primary inputs are level 0).
  std::size_t depth() const;

  /// --- scalar simulation, one byte (0/1) per value ---

  /// Flip-flop power-up values, in dffs() order.
  std::vector<std::uint8_t> initial_state() const { return dff_init_; }

  /// Combinational evaluation: fills `values` (one byte per net) from the
  /// primary-input values (inputs() order) and the flip-flop values
  /// (dffs() order). `forced_net`, when not kNoNet, is held at
  /// `forced_value` (stuck-at fault injection): a source net (input, DFF,
  /// constant) right after it loads, a combinational net right after it is
  /// driven -- the same per-net semantics as the lane evaluator's masks.
  void evaluate(const std::vector<std::uint8_t>& input_values,
                const std::vector<std::uint8_t>& state, std::vector<std::uint8_t>& values,
                NetId forced_net = kNoNet, bool forced_value = false) const;

  /// One clock cycle: evaluate, then clock every DFF from its D net.
  void step(const std::vector<std::uint8_t>& input_values, std::vector<std::uint8_t>& state,
            std::vector<std::uint8_t>& values, NetId forced_net = kNoNet,
            bool forced_value = false) const;

  /// Human-readable structural statistics.
  std::string stats() const;

 private:
  NetId add_net(GateType type, const std::vector<NetId>& fanins, std::string name);

  std::vector<GateType> types_;          // per net
  std::vector<std::uint32_t> offsets_ = {0};  // per net + 1: range in pool_
  std::vector<NetId> pool_;              // every net's fanins, net-id order
  std::unordered_map<NetId, std::string> names_;  // named nets only
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<NetId> dffs_;              // ascending net ids
  std::vector<std::uint8_t> dff_init_;   // per DFF, dffs() order
  std::vector<NetId> consts_;            // constant nets
  std::vector<NetOp> program_;           // valid after finalize()
  bool finalized_ = false;
};

}  // namespace stc
