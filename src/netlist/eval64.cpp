#include "netlist/eval64.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <string>

namespace stc {

std::vector<char> fanin_cone(const Netlist& nl, const std::vector<NetId>& roots) {
  std::vector<char> cone(nl.num_nets(), 0);
  std::vector<NetId> stack;
  for (const NetId r : roots) {
    if (r >= cone.size())
      throw std::out_of_range("fanin_cone: bad root net " + std::to_string(r));
    if (!cone[r]) {
      cone[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const Gate& g = nl.gate(stack.back());
    stack.pop_back();
    if (g.type == GateType::kDff) continue;  // Q is a source this cycle
    for (const NetId f : g.fanins)
      if (!cone[f]) {
        cone[f] = 1;
        stack.push_back(f);
      }
  }
  return cone;
}

CompiledNetlist::CompiledNetlist(const Netlist& nl, unsigned lane_words) {
  compile(nl, lane_words, nullptr);
}

CompiledNetlist::CompiledNetlist(const Netlist& nl, unsigned lane_words,
                                 const std::vector<char>& cone) {
  compile(nl, lane_words, &cone);
}

void CompiledNetlist::compile(const Netlist& nl, unsigned lane_words,
                              const std::vector<char>* cone) {
  if (!nl.finalized()) throw std::logic_error("CompiledNetlist: finalize() not called");
  if (!lane_words_supported(lane_words))
    throw std::invalid_argument(
        "CompiledNetlist: lane_words must be 1, 4 or 8 (64, 256 or 512 "
        "lanes); got " +
        std::to_string(lane_words));
  if (cone != nullptr && cone->size() != nl.num_nets())
    throw std::invalid_argument("CompiledNetlist: cone has " +
                                std::to_string(cone->size()) + " flags for " +
                                std::to_string(nl.num_nets()) + " nets");
  lane_words_ = lane_words;
  num_nets_ = nl.num_nets();
  inputs_ = nl.inputs();
  dffs_ = nl.dffs();
  dff_d_.reserve(dffs_.size());
  for (NetId q : dffs_) dff_d_.push_back(nl.gate(q).fanins[0]);
  for (NetId id = 0; id < num_nets_; ++id) {
    if (nl.gate(id).type == GateType::kConst0) const0_.push_back(id);
    if (nl.gate(id).type == GateType::kConst1) const1_.push_back(id);
  }

  const auto kept = [cone](NetId id) { return cone == nullptr || (*cone)[id] != 0; };
  const auto& order = nl.topo_order();
  for (NetId id : order) {
    if (!kept(id)) continue;
    const Gate& g = nl.gate(id);
    for (const NetId f : g.fanins)
      if (!kept(f))
        throw std::invalid_argument(
            "CompiledNetlist: cone is not fanin-closed (net " + std::to_string(id) +
            " reads net " + std::to_string(f) + ", which is outside it)");
    Op op;
    op.type = g.type;
    op.out = id;
    op.fanin_begin = static_cast<std::uint32_t>(fanins_.size());
    op.fanin_count = static_cast<std::uint32_t>(g.fanins.size());
    fanins_.insert(fanins_.end(), g.fanins.begin(), g.fanins.end());
    ops_.push_back(op);
  }

  // --- event-scheduler compile products -------------------------------------
  // Net levels: sources (inputs/DFF-q/consts) are level 0; an op's output is
  // one past its deepest fanin. The topo order guarantees fanin levels are
  // final when an op is reached.
  std::vector<std::uint32_t> net_level(num_nets_, 0);
  op_of_net_.assign(num_nets_, kNoOp);
  op_level_.assign(ops_.size(), 0);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    std::uint32_t lvl = 0;
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      lvl = std::max(lvl, net_level[fanins_[op.fanin_begin + k]]);
    ++lvl;
    net_level[op.out] = lvl;
    op_level_[i] = lvl - 1;  // bucket levels are 0-based over ops
    op_of_net_[op.out] = static_cast<std::uint32_t>(i);
    num_levels_ = std::max(num_levels_, lvl);
  }

  // Bucket layout: segment the scheduled-op array by level, with capacity
  // equal to the op count of each level (an op is scheduled at most once
  // per cycle thanks to the epoch stamps, so the segments cannot overflow).
  std::vector<std::uint32_t> per_level(num_levels_, 0);
  for (std::uint32_t lvl : op_level_) ++per_level[lvl];
  level_base_.assign(num_levels_ + 1, 0);
  for (std::uint32_t l = 0; l < num_levels_; ++l)
    level_base_[l + 1] = level_base_[l] + per_level[l];

  // Dense PLA-product sweep. Two-level structures put thousands of wide AND
  // products directly behind the literal nets (sources and their NOT/BUFs),
  // and pseudo-random BIST stimulus toggles about half of those literals
  // every cycle -- so per-edge event scheduling would wake nearly every
  // product anyway, paying pointer-chasing costs for nothing. Instead,
  // products whose fanins are all literal-shaped (net level <= 1, or the
  // output of an earlier dense product) are compiled into one contiguous
  // uint16 index stream evaluated sequentially: literal-only products are
  // grouped by fanin count (fixed inner trip counts, no mispredicted
  // exits), then product-reading chains follow in topo order, and the
  // whole sweep is skipped on cycles where no product input changed. XOR
  // gates, which no structure the library builds contains, stay on the
  // CSR path. Requires net ids to fit uint16.
  dense_.assign(ops_.size(), 0);
  is_dense_input_.assign(num_nets_, 0);
  std::vector<std::uint32_t> main_ops, chain_ops;  // topo order
  if (num_nets_ <= UINT16_MAX + 1) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (op.type != GateType::kAnd || op.fanin_count < 2) continue;
      bool ok = true, chained = false;
      for (std::uint32_t k = 0; ok && k < op.fanin_count; ++k) {
        const NetId f = fanins_[op.fanin_begin + k];
        // The dense-producer check must come first: a level-1 net driven
        // by another dense product is NOT a slab literal -- the reader has
        // to go through the chained (values[]-reading) path, which runs
        // after the producer's commit, or it would AND a stale term word.
        if (op_of_net_[f] != kNoOp && dense_[op_of_net_[f]]) {
          chained = true;
          continue;
        }
        if (net_level[f] <= 1) continue;
        ok = false;
      }
      if (!ok) continue;
      dense_[i] = 1;
      (chained ? chain_ops : main_ops).push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Literal slab: one term slot per distinct net read by a literal-only
  // product, ordered by descending read count (frequent literals share low
  // slots, which maximizes node reuse below).
  {
    std::vector<std::uint32_t> reads(num_nets_, 0);
    for (std::uint32_t op_idx : main_ops) {
      const Op& op = ops_[op_idx];
      for (std::uint32_t k = 0; k < op.fanin_count; ++k)
        ++reads[fanins_[op.fanin_begin + k]];
    }
    for (NetId n = 0; n < num_nets_; ++n)
      if (reads[n] > 0) slab_net_.push_back(n);
    // std::sort with an explicit NetId tie-break (slab_net_ starts in
    // ascending NetId order, so this matches what a stable sort would
    // produce without the temporary buffer one allocates).
    std::sort(slab_net_.begin(), slab_net_.end(), [&](NetId a, NetId b) {
      return reads[a] != reads[b] ? reads[a] > reads[b] : a < b;
    });
  }
  std::vector<std::uint16_t> slot_of(num_nets_, 0);
  for (std::size_t t = 0; t < slab_net_.size(); ++t)
    slot_of[slab_net_[t]] = static_cast<std::uint16_t>(t);

  // Factor the AND products through shared AND nodes: sort each product's
  // term list, fold consecutive term pairs into deduplicated (a & b) nodes,
  // and repeat until the lists stop shrinking or the id space / node budget
  // is exhausted. Exact by associativity: internal nodes are not nets, so
  // they never carry fault masks.
  std::vector<std::vector<std::uint16_t>> terms(main_ops.size());
  for (std::size_t p = 0; p < main_ops.size(); ++p) {
    const Op& op = ops_[main_ops[p]];
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      terms[p].push_back(slot_of[fanins_[op.fanin_begin + k]]);
    std::sort(terms[p].begin(), terms[p].end());
  }
  {
    const std::size_t kNodeBudget = 8192;  // term table stays cache-resident
    std::unordered_map<std::uint32_t, std::uint16_t> node_id;
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      // Only pairs ANDed by at least two products become nodes; a node
      // with a single reader would move work around instead of removing
      // it (same AND count, worse locality).
      std::unordered_map<std::uint32_t, std::uint32_t> freq;
      for (const auto& list : terms)
        for (std::size_t i = 0; i + 1 < list.size(); i += 2)
          ++freq[(static_cast<std::uint32_t>(list[i]) << 16) | list[i + 1]];
      for (auto& list : terms) {
        if (list.size() < 2) continue;
        std::vector<std::uint16_t> next;
        next.reserve(list.size());
        for (std::size_t i = 0; i < list.size(); i += 2) {
          if (i + 1 == list.size()) {
            next.push_back(list[i]);
            break;
          }
          const std::uint32_t key =
              (static_cast<std::uint32_t>(list[i]) << 16) | list[i + 1];
          auto it = node_id.find(key);
          std::uint16_t id;
          if (it != node_id.end()) {
            id = it->second;
          } else if (freq[key] >= 2 && node_a_.size() < kNodeBudget &&
                     slab_net_.size() + node_a_.size() <= UINT16_MAX) {
            id = static_cast<std::uint16_t>(slab_net_.size() + node_a_.size());
            node_a_.push_back(list[i]);
            node_b_.push_back(list[i + 1]);
            node_id.emplace(key, id);
          } else {
            next.push_back(list[i]);  // unshared or over budget: keep both
            next.push_back(list[i + 1]);
            continue;
          }
          next.push_back(id);
          shrunk = true;
        }
        list = std::move(next);
      }
    }
  }

  // Emit products grouped by final term count (sequential stream per group).
  {
    std::vector<std::uint32_t> order(main_ops.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = static_cast<std::uint32_t>(p);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return terms[a].size() != terms[b].size()
                           ? terms[a].size() < terms[b].size()
                           : a < b;
              });
    for (std::size_t i = 0; i < order.size();) {
      const std::uint32_t width = static_cast<std::uint32_t>(terms[order[i]].size());
      std::size_t j = i;
      while (j < order.size() && terms[order[j]].size() == width) {
        dense_out_.push_back(ops_[main_ops[order[j]]].out);
        dense_prog_.insert(dense_prog_.end(), terms[order[j]].begin(),
                           terms[order[j]].end());
        ++j;
      }
      dense_groups_.push_back({static_cast<std::uint32_t>(j - i), width});
      i = j;
    }
  }
  for (NetId n : slab_net_) is_dense_input_[n] = 1;
  // Chained products read values[] directly: their stream entries are net
  // ids, not term slots.
  for (std::uint32_t op_idx : chain_ops) {
    const Op& op = ops_[op_idx];
    dense_out_.push_back(op.out);
    dense_chain_width_.push_back(op.fanin_count);
    for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
      const NetId f = fanins_[op.fanin_begin + k];
      dense_prog_.push_back(static_cast<std::uint16_t>(f));
      is_dense_input_[f] = 1;
    }
  }

  // Sparse ORs: wide ORs (PLA output planes) re-evaluate over their
  // currently-nonzero fanins only. The active sets live in the scratch;
  // here we compile the per-edge tables that let a fanin's zero/nonzero
  // transition update its reader's set in O(1) at commit time.
  sparse_or_of_op_.assign(ops_.size(), kNoOp);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    if (op.type != GateType::kOr || op.fanin_count < kSparseOrMinFanins) continue;
    sparse_or_of_op_[i] = static_cast<std::uint32_t>(or_op_.size());
    or_op_.push_back(static_cast<std::uint32_t>(i));
    or_base_.push_back(static_cast<std::uint32_t>(edge_net_.size()));
    for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
      edge_net_.push_back(fanins_[op.fanin_begin + k]);
      edge_or_.push_back(static_cast<std::uint32_t>(or_op_.size() - 1));
    }
  }
  or_base_.push_back(static_cast<std::uint32_t>(edge_net_.size()));
  sor_offset_.assign(num_nets_ + 1, 0);
  for (const NetId n : edge_net_) ++sor_offset_[n + 1];
  for (std::size_t n = 0; n < num_nets_; ++n) sor_offset_[n + 1] += sor_offset_[n];
  sor_edge_.resize(edge_net_.size());
  {
    std::vector<std::uint32_t> cur(sor_offset_.begin(), sor_offset_.end() - 1);
    for (std::size_t e = 0; e < edge_net_.size(); ++e)
      sor_edge_[cur[edge_net_[e]]++] = static_cast<std::uint32_t>(e);
  }

  // CSR fanout graph: for every net, the readers not covered by the dense
  // sweep or the sparse-OR sets.
  const auto in_csr = [&](std::size_t i) {
    return !dense_[i] && sparse_or_of_op_[i] == kNoOp;
  };
  fanout_offset_.assign(num_nets_ + 1, 0);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (!in_csr(i)) continue;
    const Op& op = ops_[i];
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      ++fanout_offset_[fanins_[op.fanin_begin + k] + 1];
  }
  for (std::size_t n = 0; n < num_nets_; ++n)
    fanout_offset_[n + 1] += fanout_offset_[n];
  fanout_pool_.resize(fanout_offset_[num_nets_]);
  std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                    fanout_offset_.end() - 1);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (!in_csr(i)) continue;
    const Op& op = ops_[i];
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      fanout_pool_[cursor[fanins_[op.fanin_begin + k]]++] =
          static_cast<std::uint32_t>(i);
  }
}

LaneFaultMasks::LaneFaultMasks(std::size_t num_nets, unsigned lane_words)
    : num_nets_(num_nets),
      lane_words_(lane_words),
      and_mask_(num_nets * lane_words, ~std::uint64_t{0}),
      or_mask_(num_nets * lane_words, 0) {
  if (!lane_words_supported(lane_words))
    throw std::invalid_argument(
        "LaneFaultMasks: lane_words must be 1, 4 or 8; got " +
        std::to_string(lane_words));
  // One deterministic allocation up front: keeps campaign heap traffic
  // invariant in the lane width, where growth by doubling would take one
  // extra step for the wider batches.
  dirty_.reserve(lane_words * 64 - 1);
}

LaneFaultMasks::LaneFaultMasks(const CompiledNetlist& program)
    : LaneFaultMasks(program.num_nets(), program.lane_words()) {}

void LaneFaultMasks::set(const std::vector<LaneFault>& faults) {
  clear();
  const unsigned W = lane_words_;
  const unsigned lanes = W * 64;
  for (const LaneFault& f : faults) {
    if (f.net >= num_nets_)
      throw std::out_of_range("LaneFaultMasks::set: bad net " + std::to_string(f.net) +
                              " (netlist has " + std::to_string(num_nets_) +
                              " nets)");
    if (f.lane == 0 || f.lane >= lanes)
      throw std::invalid_argument("LaneFaultMasks::set: lane must be in 1.." +
                                  std::to_string(lanes - 1) + " (net " +
                                  std::to_string(f.net) + " requested lane " +
                                  std::to_string(f.lane) + ")");
    const std::size_t word = f.net * W + (f.lane >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (f.lane & 63);
    if (!lanes_dirty(f.net)) dirty_.push_back(f.net);
    if (f.stuck_value)
      or_mask_[word] |= bit;
    else
      and_mask_[word] &= ~bit;
  }
  if (!faults.empty()) ++version_;
}

bool LaneFaultMasks::lanes_dirty(NetId net) const {
  const unsigned W = lane_words_;
  for (unsigned w = 0; w < W; ++w)
    if (and_mask_[net * W + w] != ~std::uint64_t{0} || or_mask_[net * W + w] != 0)
      return true;
  return false;
}

void LaneFaultMasks::clear() {
  if (dirty_.empty()) return;
  const unsigned W = lane_words_;
  for (NetId n : dirty_)
    for (unsigned w = 0; w < W; ++w) {
      and_mask_[n * W + w] = ~std::uint64_t{0};
      or_mask_[n * W + w] = 0;
    }
  dirty_.clear();
  ++version_;
}

void CompiledNetlist::check_masks(const LaneFaultMasks& faults) const {
  if (faults.num_nets() != num_nets_ || faults.lane_words() != lane_words_)
    throw std::invalid_argument(
        "CompiledNetlist: fault masks sized for " + std::to_string(faults.num_nets()) +
        " nets x " + std::to_string(faults.lane_words()) + " lane words; program has " +
        std::to_string(num_nets_) + " x " + std::to_string(lane_words_));
}

template <bool kMasked, unsigned W>
void CompiledNetlist::run_ops(const LaneFaultMasks* faults,
                              std::uint64_t* values) const {
  const std::uint64_t* am = kMasked ? faults->and_mask_.data() : nullptr;
  const std::uint64_t* om = kMasked ? faults->or_mask_.data() : nullptr;
  const std::uint32_t* pool = fanins_.data();
  for (const Op& op : ops_) {
    const std::uint32_t* f = pool + op.fanin_begin;
    std::uint64_t v[W];
    switch (op.type) {
      case GateType::kBuf:
        lanes::copy<W>(v, values + std::size_t{f[0]} * W);
        break;
      case GateType::kNot:
        lanes::not_to<W>(v, values + std::size_t{f[0]} * W);
        break;
      case GateType::kAnd:
        lanes::fill<W>(v, ~std::uint64_t{0});
        for (std::uint32_t k = 0; k < op.fanin_count; ++k)
          lanes::and_in<W>(v, values + std::size_t{f[k]} * W);
        break;
      case GateType::kOr:
        lanes::fill<W>(v, 0);
        for (std::uint32_t k = 0; k < op.fanin_count; ++k)
          lanes::or_in<W>(v, values + std::size_t{f[k]} * W);
        break;
      case GateType::kXor:
        lanes::fill<W>(v, 0);
        for (std::uint32_t k = 0; k < op.fanin_count; ++k)
          lanes::xor_in<W>(v, values + std::size_t{f[k]} * W);
        break;
      default:
        lanes::fill<W>(v, 0);
        break;
    }
    std::uint64_t* out = values + std::size_t{op.out} * W;
    if (kMasked)
      lanes::mask_store<W>(out, v, am + std::size_t{op.out} * W,
                           om + std::size_t{op.out} * W);
    else
      lanes::copy<W>(out, v);
  }
}

void CompiledNetlist::evaluate(const LaneFaultMasks& faults,
                               const std::uint64_t* input_lanes,
                               const std::uint64_t* dff_lanes,
                               std::uint64_t* values) const {
  check_masks(faults);
  evaluate_impl(&faults, input_lanes, dff_lanes, values);
}

void CompiledNetlist::evaluate(const std::uint64_t* input_lanes,
                               const std::uint64_t* dff_lanes,
                               std::uint64_t* values) const {
  evaluate_impl(nullptr, input_lanes, dff_lanes, values);
}

void CompiledNetlist::evaluate_impl(const LaneFaultMasks* faults,
                                    const std::uint64_t* input_lanes,
                                    const std::uint64_t* dff_lanes,
                                    std::uint64_t* values) const {
  // Every net the program reads is written below: the constants, the
  // sources, then each op's output. (A net outside a cone program is
  // never written; no op of the program reads it.)
  const unsigned W = lane_words_;
  for (const NetId n : const0_) std::fill_n(values + std::size_t{n} * W, W, 0);
  for (const NetId n : const1_)
    std::fill_n(values + std::size_t{n} * W, W, ~std::uint64_t{0});
  for (std::size_t k = 0; k < inputs_.size(); ++k)
    for (unsigned w = 0; w < W; ++w)
      values[inputs_[k] * W + w] = input_lanes[k * W + w];
  for (std::size_t k = 0; k < dffs_.size(); ++k)
    for (unsigned w = 0; w < W; ++w)
      values[dffs_[k] * W + w] = dff_lanes[k * W + w];
  // Fault-free reference path: all masks are the identity, skip them.
  const bool masked = faults != nullptr && !faults->dirty_.empty();
  if (masked) {
    // Source nets (inputs, DFF outputs, consts) get their masks here; the
    // op loop re-applies masks to combinational nets after driving them.
    for (NetId n : faults->dirty_)
      lanes::mask_to_runtime(values + std::size_t{n} * W,
                             values + std::size_t{n} * W,
                             faults->and_mask_.data() + std::size_t{n} * W,
                             faults->or_mask_.data() + std::size_t{n} * W, W);
  }
  switch (W) {
    case 1:
      masked ? run_ops<true, 1>(faults, values) : run_ops<false, 1>(faults, values);
      break;
    case 4:
      masked ? run_ops<true, 4>(faults, values) : run_ops<false, 4>(faults, values);
      break;
    case 8:
      masked ? run_ops<true, 8>(faults, values) : run_ops<false, 8>(faults, values);
      break;
  }
}

}  // namespace stc
