#include "reference/equivalence.hpp"

#include <span>
#include <stdexcept>
#include <vector>

namespace autolock::reference {

namespace {

using netlist::GateType;
using sat::Lit;
using sat::lit_neg;
using sat::make_lit;
using sat::Solver;
using sat::Var;

/// out_lit <-> AND(ins); a negated out_lit encodes NAND.
void encode_and(Solver& solver, Lit out_lit, const std::vector<Lit>& ins) {
  std::vector<Lit> big;
  for (const Lit in : ins) {
    solver.add_clause(lit_neg(out_lit), in);
    big.push_back(lit_neg(in));
  }
  big.push_back(out_lit);
  solver.add_clause(std::span<const Lit>(big));
}

/// out_lit <-> OR(ins); a negated out_lit encodes NOR.
void encode_or(Solver& solver, Lit out_lit, const std::vector<Lit>& ins) {
  std::vector<Lit> big;
  for (const Lit in : ins) {
    solver.add_clause(out_lit, lit_neg(in));
    big.push_back(in);
  }
  big.push_back(lit_neg(out_lit));
  solver.add_clause(std::span<const Lit>(big));
}

/// out <-> a XOR b.
void encode_xor2(Solver& solver, Var out, Lit a, Lit b) {
  solver.add_clause(make_lit(out, true), a, b);
  solver.add_clause(make_lit(out, true), lit_neg(a), lit_neg(b));
  solver.add_clause(make_lit(out, false), a, lit_neg(b));
  solver.add_clause(make_lit(out, false), lit_neg(a), b);
}

/// out <-> type(ins), n-ary XOR chained through fresh variables.
void encode_gate(Solver& solver, GateType type, Var out,
                 const std::vector<Lit>& ins) {
  switch (type) {
    case GateType::kConst0:
      solver.add_clause(make_lit(out, true));
      break;
    case GateType::kConst1:
      solver.add_clause(make_lit(out, false));
      break;
    case GateType::kBuf:
      solver.add_clause(make_lit(out, true), ins[0]);
      solver.add_clause(make_lit(out, false), lit_neg(ins[0]));
      break;
    case GateType::kNot:
      solver.add_clause(make_lit(out, true), lit_neg(ins[0]));
      solver.add_clause(make_lit(out, false), ins[0]);
      break;
    case GateType::kAnd:
    case GateType::kNand:
      encode_and(solver, make_lit(out, type == GateType::kNand), ins);
      break;
    case GateType::kOr:
    case GateType::kNor:
      encode_or(solver, make_lit(out, type == GateType::kNor), ins);
      break;
    case GateType::kXor:
    case GateType::kXnor: {
      Lit acc = ins[0];
      for (std::size_t i = 1; i + 1 < ins.size(); ++i) {
        const Var mid = solver.new_var();
        encode_xor2(solver, mid, acc, ins[i]);
        acc = make_lit(mid);
      }
      // out <-> XNOR(acc, last) == ~out <-> XOR(acc, last).
      const Var last = type == GateType::kXor ? out : solver.new_var();
      encode_xor2(solver, last, acc, ins.back());
      if (last != out) {
        solver.add_clause(make_lit(out, true), make_lit(last, true));
        solver.add_clause(make_lit(out, false), make_lit(last, false));
      }
      break;
    }
    case GateType::kMux: {
      const Lit sel = ins[0];
      const Lit in0 = ins[1];
      const Lit in1 = ins[2];
      solver.add_clause(lit_neg(sel), make_lit(out, true), in1);
      solver.add_clause(lit_neg(sel), make_lit(out, false), lit_neg(in1));
      solver.add_clause(sel, make_lit(out, true), in0);
      solver.add_clause(sel, make_lit(out, false), lit_neg(in0));
      break;
    }
    case GateType::kInput:
      break;
  }
}

/// Fresh variables fixed to `bits` by level-0 unit clauses.
std::vector<Var> pinned_vars(Solver& solver, const netlist::Key& bits) {
  std::vector<Var> vars;
  for (const bool bit : bits) {
    const Var v = solver.new_var();
    solver.add_clause(make_lit(v, !bit));
    vars.push_back(v);
  }
  return vars;
}

}  // namespace

Encoding encode_netlist(
    Solver& solver, const netlist::Netlist& netlist,
    const std::optional<std::vector<Var>>& share_primary_inputs,
    const std::optional<std::vector<Var>>& share_keys) {
  const auto primary = netlist.primary_inputs();
  const auto keys = netlist.key_inputs();
  if (share_primary_inputs && share_primary_inputs->size() != primary.size()) {
    throw std::invalid_argument("encode_netlist: shared PI count mismatch");
  }
  if (share_keys && share_keys->size() != keys.size()) {
    throw std::invalid_argument("encode_netlist: shared key count mismatch");
  }

  Encoding enc;
  enc.node_var.assign(netlist.size(), -1);
  for (std::size_t i = 0; i < primary.size(); ++i) {
    enc.node_var[primary[i]] =
        share_primary_inputs ? (*share_primary_inputs)[i] : solver.new_var();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    enc.node_var[keys[i]] = share_keys ? (*share_keys)[i] : solver.new_var();
  }
  std::vector<Lit> ins;
  for (const netlist::NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    if (node.type == GateType::kInput) continue;
    enc.node_var[v] = solver.new_var();
    ins.clear();
    for (const netlist::NodeId fanin : node.fanins) {
      ins.push_back(make_lit(enc.node_var[fanin]));
    }
    encode_gate(solver, node.type, enc.node_var[v], ins);
  }

  for (const netlist::NodeId v : primary) {
    enc.primary_input_var.push_back(enc.node_var[v]);
  }
  for (const netlist::NodeId v : keys) enc.key_var.push_back(enc.node_var[v]);
  for (const auto& port : netlist.outputs()) {
    enc.output_var.push_back(enc.node_var[port.driver]);
  }
  return enc;
}

Var make_miter(Solver& solver, const Encoding& a, const Encoding& b) {
  if (a.output_var.size() != b.output_var.size()) {
    throw std::invalid_argument("make_miter: output count mismatch");
  }
  std::vector<Lit> any_diff;
  for (std::size_t o = 0; o < a.output_var.size(); ++o) {
    const Var diff = solver.new_var();
    encode_xor2(solver, diff, make_lit(a.output_var[o]),
                make_lit(b.output_var[o]));
    any_diff.push_back(make_lit(diff));
  }
  const Var miter = solver.new_var();
  encode_or(solver, make_lit(miter), any_diff);
  return miter;
}

bool plain_check_equivalent(const netlist::Netlist& a,
                            const netlist::Key& a_key,
                            const netlist::Netlist& b,
                            const netlist::Key& b_key) {
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  if (a.key_inputs().size() != a_key.size() ||
      b.key_inputs().size() != b_key.size()) {
    throw std::invalid_argument("plain_check_equivalent: key length mismatch");
  }
  Solver solver;
  const Encoding enc_a =
      encode_netlist(solver, a, std::nullopt, pinned_vars(solver, a_key));
  const Encoding enc_b = encode_netlist(solver, b, enc_a.primary_input_var,
                                        pinned_vars(solver, b_key));
  const Var miter = make_miter(solver, enc_a, enc_b);
  const sat::SolveResult result = solver.solve({make_lit(miter)});
  if (result == sat::SolveResult::kUnknown) {
    throw std::runtime_error("plain_check_equivalent: budget exhausted");
  }
  return result == sat::SolveResult::kUnsat;
}

}  // namespace autolock::reference
