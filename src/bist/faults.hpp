#pragma once
// Single stuck-at fault model on netlist nets.

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace stc {

struct Fault {
  NetId net = kNoNet;
  bool stuck_value = false;  // stuck-at-0 or stuck-at-1

  bool operator==(const Fault& o) const {
    return net == o.net && stuck_value == o.stuck_value;
  }

  std::string describe(const Netlist& nl) const;
};

/// All single stuck-at faults: two per net, skipping constant drivers
/// (a stuck fault on a constant net is either redundant or equivalent to
/// a fault on its fanout).
std::vector<Fault> enumerate_stuck_faults(const Netlist& nl);

/// The fault-list check the oracle, the campaign and the functional pass
/// run before any work: Error(kInvalidInput) naming the first fault whose
/// net is not in `nl`, and the net count.
void check_fault_list(const Netlist& nl, const std::vector<Fault>& faults);

/// The subset of faults on the given nets (used to isolate e.g. the
/// feedback lines from R to C when reproducing the paper's drawback (3)).
std::vector<Fault> faults_on_nets(const std::vector<NetId>& nets);

/// Structural fault collapsing: partition a fault list into equivalence
/// classes whose members are guaranteed to produce identical behaviour at
/// every observable net, so a campaign only needs to simulate one
/// representative per class. Collapsing is *exact* (equivalence, not
/// dominance): a fault on net `a` merges with a fault on the output of the
/// single gate `g` it feeds only when `a` has exactly one structural reader
/// (gate fanin or DFF D-pin) and is not itself a primary output. Rules:
///   BUF: in sa-v  == out sa-v      NOT: in sa-v == out sa-!v
///   AND: in sa-0  == out sa-0      OR:  in sa-1 == out sa-1
/// (classes are the transitive closure, e.g. along buffer chains).
struct CollapsedFaults {
  std::vector<Fault> representatives;   // first list member of each class
  std::vector<std::size_t> class_of;    // parallel to the input list:
                                        // index into representatives
  std::size_t num_classes() const { return representatives.size(); }
};

CollapsedFaults collapse_faults(const Netlist& nl, const std::vector<Fault>& faults);

}  // namespace stc
