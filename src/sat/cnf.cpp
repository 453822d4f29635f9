#include "sat/cnf.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace autolock::sat {

namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

/// Clauses for out_lit <-> AND(ins): (~out_lit | in_i) for all i;
/// (out_lit | ~in_1 | ...). Passing a negated out_lit encodes NAND. `big`
/// is a caller-provided scratch buffer (reused across gates so the
/// encoding loop performs no per-gate allocations).
void encode_and(Solver& solver, Lit out_lit, const std::vector<Lit>& ins,
                std::vector<Lit>& big) {
  big.clear();
  for (Lit in : ins) {
    solver.add_clause(lit_neg(out_lit), in);
    big.push_back(lit_neg(in));
  }
  big.push_back(out_lit);
  solver.add_clause(std::span<const Lit>(big));
}

/// Clauses for out_lit <-> OR(ins); a negated out_lit encodes NOR.
void encode_or(Solver& solver, Lit out_lit, const std::vector<Lit>& ins,
               std::vector<Lit>& big) {
  big.clear();
  for (Lit in : ins) {
    solver.add_clause(out_lit, lit_neg(in));
    big.push_back(in);
  }
  big.push_back(lit_neg(out_lit));
  solver.add_clause(std::span<const Lit>(big));
}

/// out <-> a XOR b (binary). For n-ary XOR we chain through fresh vars.
void encode_xor2(Solver& solver, Var out, Lit a, Lit b) {
  solver.add_clause(make_lit(out, true), a, b);
  solver.add_clause(make_lit(out, true), lit_neg(a), lit_neg(b));
  solver.add_clause(make_lit(out, false), a, lit_neg(b));
  solver.add_clause(make_lit(out, false), lit_neg(a), b);
}

/// out <-> ITE(sel, in1, in0)  (MUX semantics: sel ? in1 : in0).
void encode_mux(Solver& solver, Var out, Lit sel, Lit in0, Lit in1) {
  // sel=1 -> out == in1
  solver.add_clause(lit_neg(sel), make_lit(out, true), in1);
  solver.add_clause(lit_neg(sel), make_lit(out, false), lit_neg(in1));
  // sel=0 -> out == in0
  solver.add_clause(sel, make_lit(out, true), in0);
  solver.add_clause(sel, make_lit(out, false), lit_neg(in0));
  // Redundant but propagation-strengthening clauses:
  solver.add_clause(make_lit(out, true), in0, in1);
  solver.add_clause(make_lit(out, false), lit_neg(in0), lit_neg(in1));
}

/// Full Tseitin encoding of one gate: out <-> type(ins). Shared by
/// encode_netlist and ConeTemplate::encode_shared_copy.
void encode_gate(Solver& solver, GateType type, Var out,
                 const std::vector<Lit>& ins, std::vector<Lit>& big) {
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
      encode_and(solver, make_lit(out), ins, big);
      break;
    case GateType::kNand:
      // out <-> NAND(ins) == ~out <-> AND(ins).
      encode_and(solver, make_lit(out, true), ins, big);
      break;
    case GateType::kOr:
      encode_or(solver, make_lit(out), ins, big);
      break;
    case GateType::kNor:
      // out <-> NOR(ins) == ~out <-> OR(ins).
      encode_or(solver, make_lit(out, true), ins, big);
      break;
    case GateType::kXor:
    case GateType::kXnor: {
      // Chain binary XORs through fresh intermediates.
      Lit acc = ins[0];
      for (std::size_t i = 1; i + 1 < ins.size(); ++i) {
        const Var mid = solver.new_var();
        encode_xor2(solver, mid, acc, ins[i]);
        acc = make_lit(mid, false);
      }
      if (type == GateType::kXor) {
        encode_xor2(solver, out, acc, ins.back());
      } else {
        // out <-> XNOR(acc, last) == ~out <-> XOR(acc, last):
        const Var mid = solver.new_var();
        encode_xor2(solver, mid, acc, ins.back());
        solver.add_clause(make_lit(out, true), make_lit(mid, true));
        solver.add_clause(make_lit(out, false), make_lit(mid, false));
      }
      break;
    }
    case GateType::kMux:
      encode_mux(solver, out, ins[0], ins[1], ins[2]);
      break;
    case GateType::kInput:
      break;  // unreachable
  }
}

}  // namespace

Encoding encode_netlist(
    Solver& solver, const Netlist& netlist,
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
  solver.reserve_vars(solver.num_vars() + netlist.size());

  // Inputs first (shared or fresh).
  for (std::size_t i = 0; i < primary.size(); ++i) {
    enc.node_var[primary[i]] =
        share_primary_inputs ? (*share_primary_inputs)[i] : solver.new_var();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    enc.node_var[keys[i]] = share_keys ? (*share_keys)[i] : solver.new_var();
  }

  std::vector<Lit> ins;   // reused across gates (no per-gate allocation)
  std::vector<Lit> big;   // scratch for the wide AND/OR/NAND/NOR clause
  for (NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    if (node.type == GateType::kInput) continue;
    const Var out = solver.new_var();
    enc.node_var[v] = out;
    ins.clear();
    for (NodeId fanin : node.fanins) {
      ins.push_back(make_lit(enc.node_var[fanin], false));
    }
    encode_gate(solver, node.type, out, ins, big);
  }

  for (std::size_t i = 0; i < primary.size(); ++i) {
    enc.primary_input_var.push_back(enc.node_var[primary[i]]);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    enc.key_var.push_back(enc.node_var[keys[i]]);
  }
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
    if (a.output_var[o] == b.output_var[o]) {
      continue;  // shared driver (encode_shared_copy): can never differ
    }
    const Var diff = solver.new_var();
    encode_xor2(solver, diff, make_lit(a.output_var[o], false),
                make_lit(b.output_var[o], false));
    any_diff.push_back(make_lit(diff, false));
  }
  const Var miter = solver.new_var();
  std::vector<Lit> scratch;
  encode_or(solver, make_lit(miter), any_diff, scratch);
  return miter;
}

// ---------------------------------------------------------------------------
// check_equivalent: key-folded, structurally hashed miter

namespace {

/// A structurally hashed AND / XOR / MUX graph (an AIG extended with XOR
/// and MUX nodes). An edge packs (node, complemented) like a solver
/// literal; node 0 is constant false, so edges 0 and 1 are the constants.
/// Every make_* call folds constants and trivial identities, puts its
/// fanins in a canonical order and polarity, and returns the existing node
/// when the normalized (op, fanins) was built before, so two copies of the
/// same logic share one node. Node ids are topological.
class Strash {
 public:
  using Edge = std::uint32_t;
  static constexpr Edge kFalse = 0;
  static constexpr Edge kTrue = 1;

  /// `max_nodes` bounds the nodes the graph will ever hold; the hash table
  /// is sized once from it.
  explicit Strash(std::size_t max_nodes)
      : table_(std::bit_ceil(2 * max_nodes), 0), mask_(table_.size() - 1) {
    nodes_.push_back({Op::kConst, 0, 0, 0});
  }

  /// Upper bound on the nodes add_netlist creates for `netlist`: an n-ary
  /// gate chains through at most n - 1 binary nodes, a MUX makes one.
  static std::size_t node_bound(const Netlist& netlist) {
    std::size_t bound = 0;
    for (NodeId v = 0; v < netlist.size(); ++v) {
      bound += std::max<std::size_t>(1, netlist.node(v).fanins.size());
    }
    return bound;
  }

  Edge input() {
    nodes_.push_back({Op::kInput, 0, 0, 0});
    return 2 * static_cast<Edge>(nodes_.size() - 1);
  }

  /// The output edges of `netlist` with its primary inputs bound to
  /// `inputs` and its key inputs folded to the constants `key`.
  std::vector<Edge> add_netlist(const Netlist& netlist,
                                const std::vector<Edge>& inputs,
                                const netlist::Key& key);

  /// True iff every output pair is equal on every input assignment. Pairs
  /// that hashed to one edge drop out; only the rest reach the solver.
  bool prove_equal(const std::vector<Edge>& a, const std::vector<Edge>& b);

 private:
  enum class Op : std::uint8_t { kConst, kInput, kAnd, kXor, kMux };
  struct Node {
    Op op;
    Edge a, b, c;  // kMux: {select, in0, in1}
  };

  Edge make_and(Edge a, Edge b) {
    if (a > b) std::swap(a, b);
    if (a == kFalse || (a ^ 1) == b) return kFalse;  // x & ~x
    if (a == kTrue || a == b) return b;
    return lookup(Op::kAnd, a, b, 0);
  }

  Edge make_xor(Edge a, Edge b) {
    // Inputs are stored uncomplemented; their polarity moves to the output.
    const Edge flip = (a ^ b) & 1;
    a &= ~Edge{1};
    b &= ~Edge{1};
    if (a > b) std::swap(a, b);
    if (a == kFalse) return b ^ flip;
    if (a == b) return flip;  // x ^ x = 0, x ^ ~x = 1
    return lookup(Op::kXor, a, b, 0) ^ flip;
  }

  /// s ? in1 : in0.
  Edge make_mux(Edge s, Edge in0, Edge in1) {
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

  /// N-ary forms over `ins` (clobbered): sorting puts duplicates and
  /// complementary pairs next to each other, and the survivors chain
  /// through binary nodes in that order.
  Edge make_and_n(std::vector<Edge>& ins) {
    std::sort(ins.begin(), ins.end());
    Edge acc = kTrue;
    for (std::size_t i = 0; i < ins.size(); ++i) {
      if (i > 0 && ins[i] == ins[i - 1]) continue;             // x & x
      if (i > 0 && ins[i] == (ins[i - 1] ^ 1)) return kFalse;  // x & ~x
      acc = make_and(acc, ins[i]);
    }
    return acc;
  }

  Edge make_xor_n(std::vector<Edge>& ins) {
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

  /// The node (op, a, b, c), created if the table has no such node yet.
  Edge lookup(Op op, Edge a, Edge b, Edge c) {
    const std::uint64_t key =
        ((std::uint64_t{a} << 32 | b) * 0x9E3779B97F4A7C15ULL) ^
        ((std::uint64_t{c} << 3 | static_cast<std::uint64_t>(op)) *
         0xC2B2AE3D27D4EB4FULL);
    for (std::size_t slot = (key ^ (key >> 29)) & mask_;;
         slot = (slot + 1) & mask_) {
      std::uint32_t& id = table_[slot];
      if (id == 0) {
        id = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({op, a, b, c});
        return 2 * id;
      }
      const Node& n = nodes_[id];
      if (n.op == op && n.a == a && n.b == b && n.c == c) return 2 * id;
    }
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> table_;  // node ids; 0 (the constant) = empty
  std::size_t mask_;
};

std::vector<Strash::Edge> Strash::add_netlist(const Netlist& netlist,
                                              const std::vector<Edge>& inputs,
                                              const netlist::Key& key) {
  std::vector<Edge> edge(netlist.size(), kFalse);
  const auto primary = netlist.primary_inputs();
  for (std::size_t i = 0; i < primary.size(); ++i) edge[primary[i]] = inputs[i];
  const auto keys = netlist.key_inputs();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    edge[keys[i]] = key[i] ? kTrue : kFalse;
  }

  std::vector<Edge> ins;
  for (const NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    ins.clear();
    for (const NodeId fanin : node.fanins) ins.push_back(edge[fanin]);
    switch (node.type) {
      case GateType::kInput:
        break;  // bound above
      case GateType::kConst0:
      case GateType::kConst1:
        edge[v] = node.type == GateType::kConst1 ? kTrue : kFalse;
        break;
      case GateType::kBuf:
        edge[v] = ins[0];
        break;
      case GateType::kNot:
        edge[v] = ins[0] ^ 1;
        break;
      case GateType::kAnd:
        edge[v] = make_and_n(ins);
        break;
      case GateType::kNand:
        edge[v] = make_and_n(ins) ^ 1;
        break;
      case GateType::kOr:
      case GateType::kNor:
        // OR(ins) == ~AND(~ins).
        for (Edge& e : ins) e ^= 1;
        edge[v] = make_and_n(ins) ^ (node.type == GateType::kOr ? 1 : 0);
        break;
      case GateType::kXor:
        edge[v] = make_xor_n(ins);
        break;
      case GateType::kXnor:
        edge[v] = make_xor_n(ins) ^ 1;
        break;
      case GateType::kMux:
        edge[v] = make_mux(ins[0], ins[1], ins[2]);
        break;
    }
  }

  std::vector<Edge> outputs;
  for (const auto& port : netlist.outputs()) outputs.push_back(edge[port.driver]);
  return outputs;
}

bool Strash::prove_equal(const std::vector<Edge>& a,
                         const std::vector<Edge>& b) {
  std::vector<std::pair<Edge, Edge>> residual;
  for (std::size_t o = 0; o < a.size(); ++o) {
    if (a[o] == b[o]) continue;             // merged
    if ((a[o] ^ 1) == b[o]) return false;  // x vs ~x, or 0 vs 1
    residual.emplace_back(a[o], b[o]);
  }
  if (residual.empty()) return true;

  // Node ids are topological, so one backward sweep marks the cone.
  std::vector<std::uint8_t> needed(nodes_.size(), 0);
  for (const auto& [x, y] : residual) needed[x >> 1] = needed[y >> 1] = 1;
  for (std::size_t id = nodes_.size(); id-- > 0;) {
    const Node& n = nodes_[id];
    if (needed[id] == 0 || n.op == Op::kConst || n.op == Op::kInput) continue;
    needed[n.a >> 1] = needed[n.b >> 1] = 1;
    if (n.op == Op::kMux) needed[n.c >> 1] = 1;
  }

  Solver solver;
  std::vector<Var> var(nodes_.size(), -1);
  const auto lit = [&var](Edge e) {
    return make_lit(var[e >> 1], (e & 1) != 0);
  };
  std::vector<Lit> pair;
  std::vector<Lit> big;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (needed[id] == 0) continue;
    const Var out = solver.new_var();
    var[id] = out;
    const Node& n = nodes_[id];
    switch (n.op) {
      case Op::kConst:
        solver.add_clause(make_lit(out, true));
        break;
      case Op::kInput:
        break;
      case Op::kAnd:
        pair.assign({lit(n.a), lit(n.b)});
        encode_and(solver, make_lit(out), pair, big);
        break;
      case Op::kXor:
        encode_xor2(solver, out, lit(n.a), lit(n.b));
        break;
      case Op::kMux:
        encode_mux(solver, out, lit(n.a), lit(n.b), lit(n.c));
        break;
    }
  }
  std::vector<Lit> any_diff;
  for (const auto& [x, y] : residual) {
    const Var diff = solver.new_var();
    encode_xor2(solver, diff, lit(x), lit(y));
    any_diff.push_back(make_lit(diff));
  }
  solver.add_clause(std::move(any_diff));
  const SolveResult result = solver.solve();
  if (result == SolveResult::kUnknown) {
    throw std::runtime_error("check_equivalent: budget exhausted");
  }
  return result == SolveResult::kUnsat;
}

}  // namespace

bool check_equivalent(const Netlist& a, const netlist::Key& a_key,
                      const Netlist& b, const netlist::Key& b_key) {
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  if (a.key_inputs().size() != a_key.size() ||
      b.key_inputs().size() != b_key.size()) {
    throw std::invalid_argument("check_equivalent: key length mismatch");
  }
  Strash graph(1 + Strash::node_bound(a) + Strash::node_bound(b));
  std::vector<Strash::Edge> inputs(a.primary_inputs().size());
  for (Strash::Edge& e : inputs) e = graph.input();
  const auto outputs_a = graph.add_netlist(a, inputs, a_key);
  const auto outputs_b = graph.add_netlist(b, inputs, b_key);
  return graph.prove_equal(outputs_a, outputs_b);
}

bool check_unlocks(const Netlist& locked, const netlist::Key& key,
                   const Netlist& original) {
  return check_equivalent(locked, key, original, netlist::Key{});
}

// ---------------------------------------------------------------------------
// ConeTemplate

namespace {

// Literal-or-constant states for the folding encoder. Real literals are
// non-negative; these sentinels share the Lit type so one per-node array
// holds both.
constexpr Lit kStateFalse = -2;
constexpr Lit kStateTrue = -3;
constexpr Lit kStateUnset = -4;

constexpr bool state_is_const(Lit s) noexcept {
  return s == kStateFalse || s == kStateTrue;
}
constexpr bool state_const_value(Lit s) noexcept { return s == kStateTrue; }
constexpr Lit const_state(bool value) noexcept {
  return value ? kStateTrue : kStateFalse;
}
constexpr Lit state_neg(Lit s) noexcept {
  if (state_is_const(s)) return const_state(!state_const_value(s));
  return lit_neg(s);
}

/// Fresh-var AND over >= 2 literals (`ins` is clobbered as scratch).
Lit encode_and_fresh(Solver& solver, std::vector<Lit>& ins,
                     std::vector<Lit>& big) {
  const Var out = solver.new_var();
  encode_and(solver, make_lit(out), ins, big);
  return make_lit(out);
}

Lit encode_or_fresh(Solver& solver, std::vector<Lit>& ins,
                    std::vector<Lit>& big) {
  const Var out = solver.new_var();
  encode_or(solver, make_lit(out), ins, big);
  return make_lit(out);
}

}  // namespace

ConeTemplate::ConeTemplate(const Netlist& netlist) : netlist_(&netlist) {
  const std::size_t n = netlist.size();
  in_cone_.assign(n, 0);
  input_index_.assign(n, -1);
  value_.assign(n, 0);
  state_.assign(n, kStateUnset);

  const auto primary = netlist.primary_inputs();
  for (std::size_t i = 0; i < primary.size(); ++i) {
    input_index_[primary[i]] = static_cast<std::int32_t>(i);
  }
  const auto keys = netlist.key_inputs();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    input_index_[keys[i]] = static_cast<std::int32_t>(i);
  }

  for (const NodeId v : netlist.topological_order()) {
    const auto& node = netlist.node(v);
    max_fanin_ = std::max(max_fanin_, node.fanins.size());
    bool in_cone = node.type == GateType::kInput && node.is_key_input;
    for (const NodeId fanin : node.fanins) {
      in_cone = in_cone || in_cone_[fanin] != 0;
    }
    in_cone_[v] = in_cone ? 1 : 0;
    cone_count_ += in_cone ? 1 : 0;
  }
  fanin_values_ = std::make_unique<bool[]>(std::max<std::size_t>(max_fanin_, 1));
}

Encoding ConeTemplate::encode_shared_copy(Solver& solver,
                                          const Encoding& base) const {
  const Netlist& netlist = *netlist_;
  if (base.node_var.size() != netlist.size()) {
    throw std::invalid_argument(
        "ConeTemplate::encode_shared_copy: base encodes a different netlist");
  }
  Encoding enc;
  enc.node_var.assign(netlist.size(), -1);
  std::vector<Lit> ins;
  std::vector<Lit> big;
  for (const NodeId v : netlist.topological_order()) {
    if (in_cone_[v] == 0) {
      // Key-independent remainder: one encoding serves every copy.
      enc.node_var[v] = base.node_var[v];
      continue;
    }
    const auto& node = netlist.node(v);
    const Var out = solver.new_var();
    enc.node_var[v] = out;
    if (node.type == GateType::kInput) continue;  // fresh key variable
    ins.clear();
    for (const NodeId fanin : node.fanins) {
      ins.push_back(make_lit(enc.node_var[fanin], false));
    }
    encode_gate(solver, node.type, out, ins, big);
  }
  enc.primary_input_var = base.primary_input_var;
  for (const NodeId k : netlist.key_inputs()) {
    enc.key_var.push_back(enc.node_var[k]);
  }
  for (const auto& port : netlist.outputs()) {
    enc.output_var.push_back(enc.node_var[port.driver]);
  }
  return enc;
}

bool ConeTemplate::bind_dip(const std::vector<bool>& dip,
                            const std::vector<bool>& response) {
  response_ = response;
  bound_ = true;
  for (const NodeId v : netlist_->topological_order()) {
    if (in_cone_[v] != 0) continue;
    const auto& node = netlist_->node(v);
    if (node.type == GateType::kInput) {
      value_[v] = dip[static_cast<std::size_t>(input_index_[v])] ? 1 : 0;
      continue;
    }
    // Fanins of a key-independent node are key-independent themselves.
    for (std::size_t i = 0; i < node.fanins.size(); ++i) {
      fanin_values_[i] = value_[node.fanins[i]] != 0;
    }
    value_[v] = netlist::eval_gate_bits(node.type, fanin_values_.get(),
                                        node.fanins.size())
                    ? 1
                    : 0;
  }
  const auto& outputs = netlist_->outputs();
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    const NodeId driver = outputs[o].driver;
    if (in_cone_[driver] == 0 && (value_[driver] != 0) != response[o]) {
      return false;  // key-independent output contradicts the oracle
    }
  }
  return true;
}

bool ConeTemplate::encode_copy(Solver& solver,
                               const std::vector<Var>& key_vars) {
  if (!bound_) {
    throw std::logic_error("ConeTemplate::encode_copy before bind_dip");
  }
  for (const NodeId v : netlist_->topological_order()) {
    if (in_cone_[v] == 0) {
      state_[v] = const_state(value_[v] != 0);
      continue;
    }
    const auto& node = netlist_->node(v);
    if (node.type == GateType::kInput) {  // key input (cone ∩ inputs = keys)
      state_[v] =
          make_lit(key_vars[static_cast<std::size_t>(input_index_[v])], false);
      continue;
    }
    Lit out = kStateUnset;
    switch (node.type) {
      case GateType::kConst0:
      case GateType::kConst1:
        out = const_state(node.type == GateType::kConst1);
        break;
      case GateType::kBuf:
        out = state_[node.fanins[0]];
        break;
      case GateType::kNot:
        out = state_neg(state_[node.fanins[0]]);
        break;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        // AND-family folding (OR handled through De Morgan duality):
        // absorbing constant -> constant, identity constants dropped,
        // single survivor -> alias, else a fresh definitional var.
        const bool or_like =
            node.type == GateType::kOr || node.type == GateType::kNor;
        const Lit absorbing = or_like ? kStateTrue : kStateFalse;
        bool absorbed = false;
        lits_.clear();
        for (const NodeId fanin : node.fanins) {
          const Lit s = state_[fanin];
          if (s == absorbing) {
            absorbed = true;
            break;
          }
          if (state_is_const(s)) continue;  // identity element
          lits_.push_back(s);
        }
        if (absorbed) {
          out = absorbing;
        } else if (lits_.empty()) {
          out = state_neg(absorbing);
        } else if (lits_.size() == 1) {
          out = lits_[0];
        } else {
          out = or_like ? encode_or_fresh(solver, lits_, big_)
                        : encode_and_fresh(solver, lits_, big_);
        }
        if (node.type == GateType::kNand || node.type == GateType::kNor) {
          out = state_neg(out);
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Constants fold into an output-polarity flip; the remaining
        // literals chain through fresh XOR2 vars.
        bool flip = node.type == GateType::kXnor;
        lits_.clear();
        for (const NodeId fanin : node.fanins) {
          const Lit s = state_[fanin];
          if (state_is_const(s)) {
            flip = flip != state_const_value(s);
          } else {
            lits_.push_back(s);
          }
        }
        if (lits_.empty()) {
          out = const_state(flip);
        } else {
          Lit acc = lits_[0];
          for (std::size_t i = 1; i < lits_.size(); ++i) {
            const Var mid = solver.new_var();
            encode_xor2(solver, mid, acc, lits_[i]);
            acc = make_lit(mid, false);
          }
          out = flip ? state_neg(acc) : acc;
        }
        break;
      }
      case GateType::kMux: {
        const Lit sel = state_[node.fanins[0]];
        const Lit in0 = state_[node.fanins[1]];
        const Lit in1 = state_[node.fanins[2]];
        if (state_is_const(sel)) {
          out = state_const_value(sel) ? in1 : in0;
        } else if (state_is_const(in0) && state_is_const(in1)) {
          const bool v0 = state_const_value(in0);
          const bool v1 = state_const_value(in1);
          out = v0 == v1 ? in0 : (v1 ? sel : state_neg(sel));
        } else if (state_is_const(in1)) {
          // sel ? const : in0  ==  const ? (sel | in0) : (~sel & in0)
          lits_.assign(
              {state_const_value(in1) ? sel : state_neg(sel), in0});
          out = state_const_value(in1) ? encode_or_fresh(solver, lits_, big_)
                                       : encode_and_fresh(solver, lits_, big_);
        } else if (state_is_const(in0)) {
          // sel ? in1 : const  ==  const ? (~sel | in1) : (sel & in1)
          lits_.assign(
              {state_const_value(in0) ? state_neg(sel) : sel, in1});
          out = state_const_value(in0) ? encode_or_fresh(solver, lits_, big_)
                                       : encode_and_fresh(solver, lits_, big_);
        } else {
          const Var fresh = solver.new_var();
          encode_mux(solver, fresh, sel, in0, in1);
          out = make_lit(fresh, false);
        }
        break;
      }
      case GateType::kInput:
        break;  // unreachable (handled above)
    }
    state_[v] = out;
  }

  const auto& outputs = netlist_->outputs();
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    const NodeId driver = outputs[o].driver;
    if (in_cone_[driver] == 0) continue;  // checked by bind_dip
    const Lit s = state_[driver];
    if (state_is_const(s)) {
      // The cone folded to a key-independent value under this DIP.
      if (state_const_value(s) != response_[o]) return false;
      continue;
    }
    if (!solver.add_clause(response_[o] ? s : lit_neg(s))) {
      return false;  // IO constraints UNSAT at level 0: key space empty
    }
  }
  return solver.okay();
}

}  // namespace autolock::sat
