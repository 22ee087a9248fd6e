#include "bist/faults.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace stc {

std::string Fault::describe(const Netlist& nl) const {
  const char* type = "net";
  switch (nl.gate(net).type) {
    case GateType::kInput: type = "pi"; break;
    case GateType::kDff: type = "ff"; break;
    case GateType::kAnd: type = "and"; break;
    case GateType::kOr: type = "or"; break;
    case GateType::kNot: type = "not"; break;
    case GateType::kXor: type = "xor"; break;
    case GateType::kBuf: type = "buf"; break;
    default: break;
  }
  const std::string& name = nl.name(net);
  return strprintf("%s%u%s/sa%d", type, net, name.empty() ? "" : ("(" + name + ")").c_str(),
                   stuck_value ? 1 : 0);
}

std::vector<Fault> enumerate_stuck_faults(const Netlist& nl) {
  std::vector<Fault> out;
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const GateType t = nl.gate(id).type;
    if (t == GateType::kConst0 || t == GateType::kConst1) continue;
    out.push_back({id, false});
    out.push_back({id, true});
  }
  return out;
}

void check_fault_list(const Netlist& nl, const std::vector<Fault>& faults) {
  for (const Fault& f : faults)
    if (f.net >= nl.num_nets())
      throw Error(ErrorCode::kInvalidInput, "fault list names a net outside the netlist",
                  strprintf("net=%u; nets=%zu", f.net, nl.num_nets()));
}

std::vector<Fault> faults_on_nets(const std::vector<NetId>& nets) {
  std::vector<Fault> out;
  for (NetId id : nets) {
    out.push_back({id, false});
    out.push_back({id, true});
  }
  return out;
}

namespace {

/// Union-find over fault keys (2*net + stuck_value).
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    for (std::size_t k = 0; k < n; ++k) parent_[k] = k;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

CollapsedFaults collapse_faults(const Netlist& nl, const std::vector<Fault>& faults) {
  const std::size_t n = nl.num_nets();

  // A fanin fault may only be folded into its reader's output fault when
  // the fanin net has exactly one structural reader (counting DFF D-pins)
  // and is not observed as a primary output: otherwise the two faulty
  // machines differ at an observable net.
  std::vector<std::uint32_t> readers(n, 0);
  std::vector<char> observed(n, 0);
  for (const NetId f : nl.fanin_pool())
    if (f != kNoNet) ++readers[f];
  for (NetId o : nl.outputs()) observed[o] = 1;

  const auto key = [](NetId net, bool sv) {
    return static_cast<std::size_t>(net) * 2 + (sv ? 1 : 0);
  };
  Dsu dsu(2 * n);
  for (NetId id = 0; id < n; ++id) {
    const GateView g = nl.gate(id);
    if (g.type == GateType::kDff) continue;
    for (NetId a : g.fanins) {
      if (readers[a] != 1 || observed[a]) continue;
      const GateType at = nl.gate(a).type;
      if (at == GateType::kConst0 || at == GateType::kConst1) continue;
      switch (g.type) {
        case GateType::kBuf:
          dsu.unite(key(a, false), key(id, false));
          dsu.unite(key(a, true), key(id, true));
          break;
        case GateType::kNot:
          dsu.unite(key(a, false), key(id, true));
          dsu.unite(key(a, true), key(id, false));
          break;
        case GateType::kAnd:
          dsu.unite(key(a, false), key(id, false));
          break;
        case GateType::kOr:
          dsu.unite(key(a, true), key(id, true));
          break;
        default:
          break;
      }
    }
  }

  CollapsedFaults out;
  out.class_of.resize(faults.size());
  std::vector<std::size_t> root_class(2 * n, SIZE_MAX);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::size_t root = dsu.find(key(faults[i].net, faults[i].stuck_value));
    if (root_class[root] == SIZE_MAX) {
      root_class[root] = out.representatives.size();
      out.representatives.push_back(faults[i]);
    }
    out.class_of[i] = root_class[root];
  }
  return out;
}

}  // namespace stc
