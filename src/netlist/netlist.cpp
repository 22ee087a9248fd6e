#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace stc {
namespace {

bool is_source(GateType t) {
  return t == GateType::kInput || t == GateType::kDff || t == GateType::kConst0 ||
         t == GateType::kConst1;
}

}  // namespace

NetId Netlist::add_net(GateType type, const std::vector<NetId>& fanins,
                       std::string name) {
  const NetId id = static_cast<NetId>(types_.size());
  types_.push_back(type);
  pool_.insert(pool_.end(), fanins.begin(), fanins.end());
  offsets_.push_back(static_cast<std::uint32_t>(pool_.size()));
  if (!name.empty()) names_.emplace(id, std::move(name));
  if (type == GateType::kConst0 || type == GateType::kConst1) consts_.push_back(id);
  program_.clear();
  finalized_ = false;
  return id;
}

NetId Netlist::add_input(std::string name) {
  const NetId id = add_net(GateType::kInput, {}, std::move(name));
  inputs_.push_back(id);
  return id;
}

NetId Netlist::add_const(bool value) {
  return add_net(value ? GateType::kConst1 : GateType::kConst0, {}, "");
}

NetId Netlist::add_gate(GateType type, std::vector<NetId> fanins, std::string name) {
  if (type == GateType::kInput || type == GateType::kDff)
    throw std::invalid_argument("add_gate: use add_input/add_dff");
  if (fanins.empty() && type != GateType::kConst0 && type != GateType::kConst1)
    throw std::invalid_argument("add_gate: combinational gate without fanins");
  for (NetId f : fanins)
    if (f >= num_nets()) throw std::out_of_range("add_gate: bad fanin");
  return add_net(type, fanins, std::move(name));
}

NetId Netlist::add_dff(std::string name, bool init) {
  const NetId id = add_net(GateType::kDff, {kNoNet}, std::move(name));
  dffs_.push_back(id);
  dff_init_.push_back(init ? 1 : 0);
  return id;
}

void Netlist::connect_dff(NetId q, NetId d) {
  if (q >= num_nets() || types_[q] != GateType::kDff)
    throw std::invalid_argument("connect_dff: not a DFF");
  if (d >= num_nets()) throw std::out_of_range("connect_dff: bad d net");
  pool_[offsets_[q]] = d;
  program_.clear();
  finalized_ = false;
}

void Netlist::add_output(NetId net, std::string name) {
  if (net >= num_nets()) throw std::out_of_range("add_output");
  outputs_.push_back(net);
  // Keep the name on the driving gate if it has none.
  if (!name.empty()) names_.emplace(net, std::move(name));
}

GateView Netlist::gate(NetId id) const {
  if (id >= num_nets()) throw std::out_of_range("gate: bad net " + std::to_string(id));
  GateView g{types_[id], {pool_.data() + offsets_[id], pool_.data() + offsets_[id + 1]},
             false};
  if (g.type == GateType::kDff)
    g.dff_init = dff_init_[std::lower_bound(dffs_.begin(), dffs_.end(), id) - dffs_.begin()];
  return g;
}

const std::string& Netlist::name(NetId id) const {
  static const std::string kUnnamed;
  const auto it = names_.find(id);
  return it == names_.end() ? kUnnamed : it->second;
}

void Netlist::finalize() {
  for (NetId q : dffs_)
    if (pool_[offsets_[q]] == kNoNet)
      throw std::logic_error("finalize: unconnected DFF '" + name(q) + "'");

  // Topological sort of combinational gates; inputs/consts/DFF-q are
  // sources. Kahn's algorithm over combinational fanin edges with a LIFO
  // ready list. Net-id order is topological too, but the serial oracle
  // runs 40-100% slower on it (DESIGN.md, "One flat netlist form").
  const std::size_t n = num_nets();
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::vector<NetId>> fanouts(n);
  std::vector<NetId> ready;
  std::size_t expected = 0;
  for (NetId id = 0; id < n; ++id) {
    if (is_source(types_[id])) {
      ready.push_back(id);
      continue;
    }
    ++expected;
    pending[id] = offsets_[id + 1] - offsets_[id];
    for (std::uint32_t k = offsets_[id]; k < offsets_[id + 1]; ++k)
      fanouts[pool_[k]].push_back(id);
  }
  program_.clear();
  while (!ready.empty()) {
    const NetId id = ready.back();
    ready.pop_back();
    if (!is_source(types_[id]))
      program_.push_back({types_[id], id, offsets_[id], offsets_[id + 1] - offsets_[id]});
    for (NetId out : fanouts[id])
      if (--pending[out] == 0) ready.push_back(out);
  }
  if (program_.size() != expected)
    throw std::logic_error("finalize: combinational cycle detected");
  finalized_ = true;
}

double Netlist::area_ge() const {
  double area = 0.0;
  for (NetId id = 0; id < num_nets(); ++id) {
    const double fanins = offsets_[id + 1] - offsets_[id];
    const GateType t = types_[id];
    if (t == GateType::kNot) area += 0.5;
    if ((t == GateType::kAnd || t == GateType::kOr) && fanins >= 2) area += fanins - 1;
    if (t == GateType::kXor && fanins >= 2) area += 2.0 * (fanins - 1);
    if (t == GateType::kDff) area += 4.0;
  }
  return area;
}

std::size_t Netlist::depth() const {
  std::vector<std::size_t> level(num_nets(), 0);
  std::size_t max_level = 0;
  for (const NetOp& op : program_) {
    std::size_t lv = 0;
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      lv = std::max(lv, level[pool_[op.fanin_begin + k]]);
    level[op.out] = lv + (op.type == GateType::kBuf ? 0 : 1);
    max_level = std::max(max_level, level[op.out]);
  }
  return max_level;
}

void Netlist::evaluate(const std::vector<std::uint8_t>& input_values,
                       const std::vector<std::uint8_t>& state,
                       std::vector<std::uint8_t>& values, NetId forced_net,
                       bool forced_value) const {
  if (input_values.size() != inputs_.size())
    throw std::invalid_argument("evaluate: input arity mismatch");
  if (state.size() != dffs_.size())
    throw std::invalid_argument("evaluate: state arity mismatch");
  if (!finalized_) throw std::logic_error("evaluate: finalize() not called");
  if (forced_net != kNoNet && forced_net >= num_nets())
    throw std::out_of_range("evaluate: bad fault net " + std::to_string(forced_net));

  // Every net is a source or a program op, so every byte is written below.
  values.resize(num_nets());
  std::uint8_t* v = values.data();
  for (std::size_t k = 0; k < inputs_.size(); ++k) v[inputs_[k]] = input_values[k];
  for (std::size_t k = 0; k < dffs_.size(); ++k) v[dffs_[k]] = state[k];
  for (const NetId c : consts_) v[c] = types_[c] == GateType::kConst1 ? 1 : 0;
  // A source net takes the fault here; a combinational net is overwritten
  // by its op below and takes it again right after being driven.
  const std::uint8_t fv = forced_value ? 1 : 0;
  if (forced_net != kNoNet) v[forced_net] = fv;

  const NetId* pool = pool_.data();
  for (const NetOp& op : program_) {
    const NetId* f = pool + op.fanin_begin;
    const NetId* const end = f + op.fanin_count;
    std::uint8_t out = 0;
    switch (op.type) {
      case GateType::kBuf: out = v[*f]; break;
      case GateType::kNot: out = v[*f] ^ 1; break;
      case GateType::kAnd:
        while (f != end && v[*f]) ++f;
        out = f == end;
        break;
      case GateType::kOr:
        while (f != end && !v[*f]) ++f;
        out = f != end;
        break;
      case GateType::kXor:
        for (; f != end; ++f) out ^= v[*f];
        break;
      default: break;
    }
    v[op.out] = op.out == forced_net ? fv : out;
  }
}

void Netlist::step(const std::vector<std::uint8_t>& input_values,
                   std::vector<std::uint8_t>& state, std::vector<std::uint8_t>& values,
                   NetId forced_net, bool forced_value) const {
  evaluate(input_values, state, values, forced_net, forced_value);
  for (std::size_t k = 0; k < dffs_.size(); ++k)
    state[k] = values[pool_[offsets_[dffs_[k]]]];
}

std::string Netlist::stats() const {
  const auto count = [this](GateType t) {
    return static_cast<std::size_t>(std::count(types_.begin(), types_.end(), t));
  };
  return strprintf(
      "nets=%zu inputs=%zu outputs=%zu dffs=%zu and=%zu or=%zu not=%zu xor=%zu "
      "area=%.1fGE depth=%zu",
      num_nets(), num_inputs(), num_outputs(), num_dffs(), count(GateType::kAnd),
      count(GateType::kOr), count(GateType::kNot), count(GateType::kXor), area_ge(),
      depth());
}

}  // namespace stc
