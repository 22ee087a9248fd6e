#include "bist/architectures.hpp"

#include <stdexcept>

#include "logic/espresso_lite.hpp"
#include "logic/qm.hpp"
#include "util/error.hpp"

namespace stc {

const char* minimizer_name(MinimizerKind mk) {
  switch (mk) {
    case MinimizerKind::kAuto: return "auto";
    case MinimizerKind::kQuineMcCluskey: return "qm";
    case MinimizerKind::kEspresso: return "espresso";
  }
  return "?";
}

MinimizerKind parse_minimizer(const std::string& name) {
  if (name == "auto") return MinimizerKind::kAuto;
  if (name == "qm") return MinimizerKind::kQuineMcCluskey;
  if (name == "espresso") return MinimizerKind::kEspresso;
  throw Error(ErrorCode::kInvalidInput, "unknown minimizer",
              "minimizer=" + name + "; expected auto|qm|espresso");
}

namespace {

/// Primary inputs named in[k], LSB first.
std::vector<NetId> add_functional_inputs(Netlist& nl, std::size_t bits) {
  std::vector<NetId> pi;
  pi.reserve(bits);
  for (std::size_t k = 0; k < bits; ++k)
    pi.push_back(nl.add_input("in[" + std::to_string(k) + "]"));
  return pi;
}

std::vector<std::size_t> dff_indices(const Netlist& nl, const RegisterBank& bank) {
  std::vector<std::size_t> idx;
  for (NetId q : bank.q) {
    for (std::size_t k = 0; k < nl.dffs().size(); ++k)
      if (nl.dffs()[k] == q) idx.push_back(k);
  }
  return idx;
}

/// Instantiate a minimized block: factored DAG when extraction ran,
/// shared-product PLA when the multi-output engine ran, the historical
/// per-cover AND-OR logic otherwise (bit-exact netlists for the QM path).
std::vector<NetId> build_minimized(Netlist& nl, const MinimizedBlock& mb,
                                   const std::vector<NetId>& vars) {
  if (mb.factored) return build_factored(nl, *mb.factored, vars);
  return mb.pla ? build_pla(nl, *mb.pla, vars) : build_block(nl, mb.covers, vars);
}

/// The one multi-level routing policy (shared by minimize_for and fig3's
/// restricted copy): factor the block's two-level form -- the PLA when the
/// multi-output engine ran, the per-output covers on the QM path.
void factor_block(MinimizedBlock& mb, const Budget& budget) {
  FactorOptions fopt;
  fopt.budget = budget;
  Degradation deg;
  mb.factored = mb.pla ? extract_factored(*mb.pla, fopt, &deg)
                       : extract_factored(mb.covers, fopt, &deg);
  if (deg.degraded) mb.degradations.push_back(std::move(deg));
}

/// Accumulate one block into the structure: its truncation labels, the
/// two-level cost point always, the factored cost point when extraction
/// ran.
void add_block_cost(ControllerStructure& cs, const MinimizedBlock& mb) {
  cs.degradations.insert(cs.degradations.end(), mb.degradations.begin(),
                         mb.degradations.end());
  cs.logic += mb.cost();
  if (const auto ml = mb.multilevel_cost()) {
    if (!cs.logic_ml) cs.logic_ml = LogicCost{};
    *cs.logic_ml += *ml;
    cs.factored_nodes += mb.factored->num_nodes();
  }
}

/// The next-state sub-block of a combined (next-state, outputs) PLA:
/// keeps the shared products of the first `state_bits` outputs (used for
/// the duplicated copy of C in the fig3 ring).
CubeList restrict_to_low_outputs(const CubeList& pla, std::size_t state_bits) {
  const std::uint64_t mask = state_bits >= 64 ? ~std::uint64_t{0}
                                              : (std::uint64_t{1} << state_bits) - 1;
  CubeList out(pla.num_vars(), state_bits);
  for (const MCube& m : pla.cubes())
    if (m.out & mask) out.add(m.in, m.out & mask);
  return out;
}

/// Drive the registers and primary outputs of figs. 1-3 from the nets of a
/// combined block: next-state bits into `reg`, output bits to out[b].
void connect_combined(ControllerStructure& cs, const EncodedFsm& enc,
                      const std::vector<NetId>& nets, const RegisterBank& reg) {
  Netlist& nl = cs.nl;
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(reg.q[b], nets[b]);
  for (std::size_t b = 0; b < enc.output_bits; ++b) {
    nl.add_output(nets[enc.state_bits + b], "out[" + std::to_string(b) + "]");
    cs.po.push_back(nets[enc.state_bits + b]);
  }
}

}  // namespace

MinimizedBlock minimize_for(const PlaSpec& spec, const std::vector<TruthTable>& tables,
                            MinimizerKind mk, Technology tech, const Budget& budget) {
  MinimizedBlock mb;
  const std::size_t num_vars = tables.empty() ? spec.num_vars : tables[0].num_vars();
  // QM's prime enumeration is exact but exponential; hand larger tables
  // to the heuristic.
  if (mk == MinimizerKind::kEspresso || (mk == MinimizerKind::kAuto && num_vars > 10)) {
    if (spec.num_outputs != tables.size() || spec.num_vars != num_vars)
      throw std::invalid_argument(
          "minimize_for: spec has " + std::to_string(spec.num_outputs) + " outputs over " +
          std::to_string(spec.num_vars) + " variables, tables have " +
          std::to_string(tables.size()) + " over " + std::to_string(num_vars));
    EspressoOptions eopt;
    eopt.budget = budget;
    Degradation deg;
    mb.pla = minimize_espresso_mv(spec, eopt, &deg);
    if (deg.degraded) mb.degradations.push_back(std::move(deg));
  } else {
    // Exact QM on small tables: not budget-governed; its covering search
    // is bounded by the QmOptions::max_bb_nodes cap instead.
    mb.covers.reserve(tables.size());
    for (const auto& tt : tables) mb.covers.push_back(minimize_qm(tt));
  }
  if (tech == Technology::kMultiLevel) factor_block(mb, budget);
  return mb;
}

MinimizedBlock minimize_combined(const EncodedFsm& enc, MinimizerKind mk,
                                 Technology tech, const Budget& budget) {
  // Dense tables in the output order of EncodedFsm::spec: next-state bits
  // low, output bits high.
  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
  return minimize_for(enc.spec, tables, mk, tech, budget);
}

ControllerStructure build_fig1(const EncodedFsm& enc, const MinimizedBlock& block) {
  ControllerStructure cs;
  cs.kind = "fig1";
  cs.tech = block.tech();
  Netlist& nl = cs.nl;

  cs.pi = add_functional_inputs(nl, enc.input_bits);
  RegisterBank r = build_register(nl, "R", enc.state_bits, enc.reset_code);
  cs.reg_a = dff_indices(nl, r);
  cs.feedback_nets = r.q;

  // Variable order of the tables: inputs low, state bits high.
  std::vector<NetId> vars = cs.pi;
  vars.insert(vars.end(), r.q.begin(), r.q.end());

  // One multi-output block for next-state and output bits together, so
  // the minimizer can share product terms between the two.
  add_block_cost(cs, block);
  connect_combined(cs, enc, build_minimized(nl, block, vars), r);
  nl.finalize();
  return cs;
}

ControllerStructure build_fig2(const EncodedFsm& enc, const MinimizedBlock& block) {
  ControllerStructure cs;
  cs.kind = "fig2";
  cs.tech = block.tech();
  Netlist& nl = cs.nl;

  cs.pi = add_functional_inputs(nl, enc.input_bits);
  cs.test_mode = nl.add_input("test_mode");
  RegisterBank r = build_register(nl, "R", enc.state_bits, enc.reset_code);
  RegisterBank t = build_register(nl, "T", enc.state_bits, 0);
  cs.reg_a = dff_indices(nl, r);
  cs.reg_b = dff_indices(nl, t);
  cs.feedback_nets = r.q;

  // Present-state inputs of C: test_mode ? T : R. The mux is in the
  // functional path -- the transparency/bypass delay of the paper.
  std::vector<NetId> state_in;
  state_in.reserve(enc.state_bits);
  for (std::size_t b = 0; b < enc.state_bits; ++b)
    state_in.push_back(build_mux(nl, cs.test_mode, t.q[b], r.q[b]));

  std::vector<NetId> vars = cs.pi;
  vars.insert(vars.end(), state_in.begin(), state_in.end());

  add_block_cost(cs, block);
  connect_combined(cs, enc, build_minimized(nl, block, vars), r);
  // T holds its value in the netlist; the session driver reconfigures it
  // as a PRPG during test (BILBO behavior is not combinational logic).
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(t.q[b], t.q[b]);
  nl.finalize();
  return cs;
}

ControllerStructure build_fig3(const EncodedFsm& enc, const MinimizedBlock& block,
                               const Budget& budget) {
  ControllerStructure cs;
  cs.kind = "fig3";
  cs.tech = block.tech();
  Netlist& nl = cs.nl;

  cs.pi = add_functional_inputs(nl, enc.input_bits);
  RegisterBank r1 = build_register(nl, "R", enc.state_bits, enc.reset_code);
  RegisterBank r2 = build_register(nl, "R'", enc.state_bits, enc.reset_code);
  cs.reg_a = dff_indices(nl, r1);
  cs.reg_b = dff_indices(nl, r2);

  // Copy C: reads R, feeds R' (and drives the primary outputs). Copy C':
  // reads R', feeds R -- only the next-state part is duplicated, with the
  // same shared products as copy C. Both registers start equal, so they
  // stay equal in system mode -- same machine as Fig. 1 with no
  // transparency mode.
  std::vector<NetId> vars1 = cs.pi;
  vars1.insert(vars1.end(), r1.q.begin(), r1.q.end());
  add_block_cost(cs, block);
  const auto nets1 = build_minimized(nl, block, vars1);

  // The duplicated copy is its own (restricted) block, so on the
  // multi-level path it gets its own extraction over just the next-state
  // part rather than inheriting dead output cones.
  std::vector<NetId> vars2 = cs.pi;
  vars2.insert(vars2.end(), r2.q.begin(), r2.q.end());
  MinimizedBlock next_mb;
  if (block.pla) {
    next_mb.pla = restrict_to_low_outputs(*block.pla, enc.state_bits);
  } else {
    next_mb.covers.assign(block.covers.begin(), block.covers.begin() + enc.state_bits);
  }
  if (block.factored) factor_block(next_mb, budget);
  add_block_cost(cs, next_mb);
  const auto nets2 = build_minimized(nl, next_mb, vars2);
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(r1.q[b], nets2[b]);

  connect_combined(cs, enc, nets1, r2);
  nl.finalize();
  return cs;
}

ControllerStructure build_fig1(const EncodedFsm& enc, MinimizerKind mk,
                               Technology tech, const Budget& budget) {
  return build_fig1(enc, minimize_combined(enc, mk, tech, budget));
}

ControllerStructure build_fig2(const EncodedFsm& enc, MinimizerKind mk,
                               Technology tech, const Budget& budget) {
  return build_fig2(enc, minimize_combined(enc, mk, tech, budget));
}

ControllerStructure build_fig3(const EncodedFsm& enc, MinimizerKind mk,
                               Technology tech, const Budget& budget) {
  return build_fig3(enc, minimize_combined(enc, mk, tech, budget), budget);
}

ControllerStructure build_fig4(const MealyMachine& fsm, const Realization& real,
                               MinimizerKind mk, Technology tech,
                               const Budget& budget) {
  ControllerStructure cs;
  cs.kind = "fig4";
  cs.tech = tech;
  Netlist& nl = cs.nl;

  const FactorTables& ft = real.tables;
  const Encoding enc1 = natural_encoding(ft.n1);
  const Encoding enc2 = natural_encoding(ft.n2);
  const std::size_t input_bits = fsm.effective_input_bits();
  const std::size_t output_bits = fsm.effective_output_bits();

  const EncodedFactor f1 =
      encode_factor(ft.delta1, ft.num_inputs, input_bits, enc1, enc2);
  const EncodedLambda lam =
      encode_lambda(ft.lambda, ft.n1, ft.n2, ft.num_inputs, input_bits,
                    output_bits, enc1, enc2);

  cs.pi = add_functional_inputs(nl, input_bits);
  RegisterBank r1 = build_register(
      nl, "R1", enc1.width, enc1.code_of(static_cast<State>(real.pi.block_of(fsm.reset_state()))));
  RegisterBank r2 = build_register(
      nl, "R2", enc2.width, enc2.code_of(static_cast<State>(real.tau.block_of(fsm.reset_state()))));
  cs.reg_a = dff_indices(nl, r1);
  cs.reg_b = dff_indices(nl, r2);

  // C1: (inputs, R1) -> D of R2.
  std::vector<NetId> vars1 = cs.pi;
  vars1.insert(vars1.end(), r1.q.begin(), r1.q.end());
  const MinimizedBlock mb1 = minimize_for(f1.spec, f1.next_state, mk, tech, budget);
  add_block_cost(cs, mb1);
  const auto c1 = build_minimized(nl, mb1, vars1);
  for (std::size_t b = 0; b < enc2.width; ++b) nl.connect_dff(r2.q[b], c1[b]);

  // C2: (inputs, R2) -> D of R1. When the factors coincide (delta1 =
  // delta2 over n1 = n2 states) both sides use the same natural encoding,
  // so C2's block is C1's and is minimized once. Under a work allowance
  // that is exactly what a second call would return; under a deadline or
  // a cancel C2 takes C1's block, valid like any truncated block, together
  // with its degradation label.
  std::vector<NetId> vars2 = cs.pi;
  vars2.insert(vars2.end(), r2.q.begin(), r2.q.end());
  const bool shared_factor = ft.n1 == ft.n2 && ft.delta1 == ft.delta2;
  const MinimizedBlock mb2 = shared_factor ? mb1 : [&] {
    const EncodedFactor f2 =
        encode_factor(ft.delta2, ft.num_inputs, input_bits, enc2, enc1);
    return minimize_for(f2.spec, f2.next_state, mk, tech, budget);
  }();
  add_block_cost(cs, mb2);
  const auto c2 = build_minimized(nl, mb2, vars2);
  for (std::size_t b = 0; b < enc1.width; ++b) nl.connect_dff(r1.q[b], c2[b]);

  // Output function lambda(inputs, R2, R1) -- variable order must match
  // encode_lambda: inputs low, then R2 bits, then R1 bits.
  std::vector<NetId> lvars = cs.pi;
  lvars.insert(lvars.end(), r2.q.begin(), r2.q.end());
  lvars.insert(lvars.end(), r1.q.begin(), r1.q.end());
  const MinimizedBlock mbl = minimize_for(lam.spec, lam.outputs, mk, tech, budget);
  add_block_cost(cs, mbl);
  const auto po_nets = build_minimized(nl, mbl, lvars);
  for (std::size_t b = 0; b < po_nets.size(); ++b) {
    nl.add_output(po_nets[b], "out[" + std::to_string(b) + "]");
    cs.po.push_back(po_nets[b]);
  }
  nl.finalize();
  return cs;
}

}  // namespace stc
