#include "sat/aig.hpp"

#include <algorithm>
#include <utility>

namespace autolock::sat {

namespace {

using netlist::GateType;
using netlist::NodeId;

constexpr std::size_t kInitialSlots = 1024;
constexpr Var kUnencoded = -1;
constexpr Var kQueued = -2;

/// out <-> a & b.
void encode_and(Solver& solver, Var out, Lit a, Lit b) {
  solver.add_clause(make_lit(out, true), a);
  solver.add_clause(make_lit(out, true), b);
  solver.add_clause(make_lit(out, false), lit_neg(a), lit_neg(b));
}

/// out <-> a ^ b.
void encode_xor(Solver& solver, Var out, Lit a, Lit b) {
  solver.add_clause(make_lit(out, true), a, b);
  solver.add_clause(make_lit(out, true), lit_neg(a), lit_neg(b));
  solver.add_clause(make_lit(out, false), a, lit_neg(b));
  solver.add_clause(make_lit(out, false), lit_neg(a), b);
}

/// out <-> (sel ? in1 : in0).
void encode_mux(Solver& solver, Var out, Lit sel, Lit in0, Lit in1) {
  solver.add_clause(lit_neg(sel), make_lit(out, true), in1);
  solver.add_clause(lit_neg(sel), make_lit(out, false), lit_neg(in1));
  solver.add_clause(sel, make_lit(out, true), in0);
  solver.add_clause(sel, make_lit(out, false), lit_neg(in0));
  // Redundant but propagation-strengthening clauses:
  solver.add_clause(make_lit(out, true), in0, in1);
  solver.add_clause(make_lit(out, false), lit_neg(in0), lit_neg(in1));
}

}  // namespace

Aig::Aig() : table_(kInitialSlots, 0), mask_(kInitialSlots - 1) {
  nodes_.push_back({Op::kConst, 0, 0, 0});
}

Aig::Edge Aig::input() {
  nodes_.push_back({Op::kInput, 0, 0, 0});
  return 2 * static_cast<Edge>(nodes_.size() - 1);
}

Aig::Edge Aig::make_and(Edge a, Edge b) {
  if (a > b) std::swap(a, b);
  if (a == kFalse || (a ^ 1) == b) return kFalse;  // x & ~x
  if (a == kTrue || a == b) return b;
  return lookup(Op::kAnd, a, b, 0);
}

Aig::Edge Aig::make_xor(Edge a, Edge b) {
  // Inputs are stored uncomplemented; their polarity moves to the output.
  const Edge flip = (a ^ b) & 1;
  a &= ~Edge{1};
  b &= ~Edge{1};
  if (a > b) std::swap(a, b);
  if (a == kFalse) return b ^ flip;
  if (a == b) return flip;  // x ^ x = 0, x ^ ~x = 1
  return lookup(Op::kXor, a, b, 0) ^ flip;
}

Aig::Edge Aig::make_mux(Edge s, Edge in0, Edge in1) {
  if (s <= kTrue) return s == kTrue ? in1 : in0;
  if ((s & 1) != 0) {  // ~s ? in1 : in0  ==  s ? in0 : in1
    s ^= 1;
    std::swap(in0, in1);
  }
  // Each data input is read only when the select has a known value.
  if ((in0 | 1) == (s | 1)) in0 = in0 == s ? kFalse : kTrue;
  if ((in1 | 1) == (s | 1)) in1 = in1 == s ? kTrue : kFalse;
  if (in0 == in1) return in0;
  if (in0 == kFalse) return make_and(s, in1);
  if (in0 == kTrue) return make_and(s, in1 ^ 1) ^ 1;      // ~s | in1
  if (in1 == kFalse) return make_and(s ^ 1, in0);
  if (in1 == kTrue) return make_and(s ^ 1, in0 ^ 1) ^ 1;  // s | in0
  if ((in0 ^ 1) == in1) return make_xor(s, in1) ^ 1;      // s ? x : ~x
  const Edge flip = in0 & 1;  // in0 is stored uncomplemented
  return lookup(Op::kMux, s, in0 ^ flip, in1 ^ flip) ^ flip;
}

/// Sorting puts duplicates and complementary pairs next to each other, and
/// the survivors chain through binary nodes in that order.
Aig::Edge Aig::make_and_n(std::vector<Edge>& ins) {
  std::sort(ins.begin(), ins.end());
  Edge acc = kTrue;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (i > 0 && ins[i] == ins[i - 1]) continue;             // x & x
    if (i > 0 && ins[i] == (ins[i - 1] ^ 1)) return kFalse;  // x & ~x
    acc = make_and(acc, ins[i]);
  }
  return acc;
}

Aig::Edge Aig::make_or(std::vector<Edge>& ins) {
  // OR(ins) == ~AND(~ins).
  for (Edge& e : ins) e ^= 1;
  return make_and_n(ins) ^ 1;
}

Aig::Edge Aig::make_xor_n(std::vector<Edge>& ins) {
  Edge flip = 0;
  for (Edge& e : ins) {
    flip ^= e & 1;
    e &= ~Edge{1};
  }
  std::sort(ins.begin(), ins.end());
  Edge acc = kFalse;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (i + 1 < ins.size() && ins[i] == ins[i + 1]) {
      ++i;  // x ^ x cancels
      continue;
    }
    acc = make_xor(acc, ins[i]);
  }
  return acc ^ flip;
}

std::size_t Aig::slot_of(Op op, Edge a, Edge b, Edge c) const noexcept {
  const std::uint64_t key =
      ((std::uint64_t{a} << 32 | b) * 0x9E3779B97F4A7C15ULL) ^
      ((std::uint64_t{c} << 3 | static_cast<std::uint64_t>(op)) *
       0xC2B2AE3D27D4EB4FULL);
  return (key ^ (key >> 29)) & mask_;
}

/// The node (op, a, b, c), created if the table has no such node yet.
Aig::Edge Aig::lookup(Op op, Edge a, Edge b, Edge c) {
  std::size_t slot = slot_of(op, a, b, c);
  for (; table_[slot] != 0; slot = (slot + 1) & mask_) {
    const Node& n = nodes_[table_[slot]];
    if (n.op == op && n.a == a && n.b == b && n.c == c) {
      return 2 * table_[slot];
    }
  }
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back({op, a, b, c});
  if (2 * nodes_.size() > table_.size()) {
    grow();  // re-inserts the new node too
  } else {
    table_[slot] = id;
  }
  return 2 * id;
}

/// Doubles the table and re-inserts every hashed node: the load stays
/// at most one half.
void Aig::grow() {
  table_.assign(2 * table_.size(), 0);
  mask_ = table_.size() - 1;
  for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.op == Op::kInput) continue;
    std::size_t slot = slot_of(n.op, n.a, n.b, n.c);
    while (table_[slot] != 0) slot = (slot + 1) & mask_;
    table_[slot] = id;
  }
}

std::vector<Aig::Edge> Aig::add_netlist(const netlist::Netlist& netlist,
                                        std::span<const Edge> inputs,
                                        std::span<const Edge> keys) {
  edge_.assign(netlist.size(), kFalse);
  const auto primary = netlist.primary_inputs();
  for (std::size_t i = 0; i < primary.size(); ++i) edge_[primary[i]] = inputs[i];
  const auto key_nodes = netlist.key_inputs();
  for (std::size_t i = 0; i < key_nodes.size(); ++i) {
    edge_[key_nodes[i]] = keys[i];
  }

  for (const NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    ins_.clear();
    for (const NodeId fanin : node.fanins) ins_.push_back(edge_[fanin]);
    switch (node.type) {
      case GateType::kInput:
        break;  // bound above
      case GateType::kConst0:
      case GateType::kConst1:
        edge_[v] = constant(node.type == GateType::kConst1);
        break;
      case GateType::kBuf:
        edge_[v] = ins_[0];
        break;
      case GateType::kNot:
        edge_[v] = ins_[0] ^ 1;
        break;
      case GateType::kAnd:
        edge_[v] = make_and_n(ins_);
        break;
      case GateType::kNand:
        edge_[v] = make_and_n(ins_) ^ 1;
        break;
      case GateType::kOr:
        edge_[v] = make_or(ins_);
        break;
      case GateType::kNor:
        edge_[v] = make_or(ins_) ^ 1;
        break;
      case GateType::kXor:
        edge_[v] = make_xor_n(ins_);
        break;
      case GateType::kXnor:
        edge_[v] = make_xor_n(ins_) ^ 1;
        break;
      case GateType::kMux:
        edge_[v] = make_mux(ins_[0], ins_[1], ins_[2]);
        break;
    }
  }

  std::vector<Edge> outputs;
  outputs.reserve(netlist.outputs().size());
  for (const auto& port : netlist.outputs()) outputs.push_back(edge_[port.driver]);
  return outputs;
}

Lit Aig::encode(Solver& solver, Edge e) {
  const std::uint32_t root = e >> 1;
  var_.resize(nodes_.size(), kUnencoded);
  if (var_[root] != kUnencoded) return make_lit(var_[root], (e & 1) != 0);

  // Collect the cone's unencoded nodes. Node ids are topological, so
  // defining them in ascending order defines every fanin first.
  cone_.clear();
  stack_.assign(1, root);
  var_[root] = kQueued;
  while (!stack_.empty()) {
    const std::uint32_t id = stack_.back();
    stack_.pop_back();
    cone_.push_back(id);
    const Node& n = nodes_[id];
    if (n.op == Op::kConst || n.op == Op::kInput) continue;
    const Edge fanins[3] = {n.a, n.b, n.c};
    for (std::size_t i = 0; i < (n.op == Op::kMux ? 3u : 2u); ++i) {
      const std::uint32_t f = fanins[i] >> 1;
      if (var_[f] != kUnencoded) continue;
      var_[f] = kQueued;
      stack_.push_back(f);
    }
  }
  std::sort(cone_.begin(), cone_.end());
  const auto lit = [this](Edge x) {
    return make_lit(var_[x >> 1], (x & 1) != 0);
  };
  for (const std::uint32_t id : cone_) {
    const Var out = solver.new_var();
    var_[id] = out;
    const Node& n = nodes_[id];
    switch (n.op) {
      case Op::kConst:
        solver.add_clause(make_lit(out, true));
        break;
      case Op::kInput:
        break;
      case Op::kAnd:
        encode_and(solver, out, lit(n.a), lit(n.b));
        break;
      case Op::kXor:
        encode_xor(solver, out, lit(n.a), lit(n.b));
        break;
      case Op::kMux:
        encode_mux(solver, out, lit(n.a), lit(n.b), lit(n.c));
        break;
    }
  }
  return make_lit(var_[root], (e & 1) != 0);
}

}  // namespace autolock::sat
