// A structurally hashed AND / XOR / MUX graph (an AIG extended with XOR and
// MUX nodes) and its Tseitin encoder: the project's one gate-to-CNF path.
//
// Netlists enter gate by gate. Every gate folds constants and trivial
// identities, normalizes to AND / XOR / MUX with complemented edges and
// sorted fanins, and reuses the node when the normalized form was built
// before (FRAIG-style strashing: Mishchenko et al., 2005; Kuehlmann et al.,
// TCAD 2002). So a constant input folds the logic it drives, and two copies
// of a netlist over shared inputs share every node that does not depend on
// what differs between them. Only the cone a caller asks for reaches the
// solver, and each node is encoded at most once.
//
// Two users: sat::check_equivalent (keys as constants, one miter edge) and
// the SAT attack (keys as free inputs; per DIP, the primary inputs as
// constants).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace autolock::sat {

class Aig {
 public:
  /// (node << 1) | complemented, like a solver literal. Node 0 is constant
  /// false, so edges 0 and 1 are the two constants.
  using Edge = std::uint32_t;
  static constexpr Edge kFalse = 0;
  static constexpr Edge kTrue = 1;
  static constexpr Edge constant(bool value) noexcept {
    return value ? kTrue : kFalse;
  }

  Aig();

  /// A fresh free input.
  Edge input();

  /// The output edges of `netlist`, in outputs() order, with its primary
  /// inputs bound to `inputs` and its key inputs to `keys`, each either a
  /// constant or any edge of this graph.
  std::vector<Edge> add_netlist(const netlist::Netlist& netlist,
                                std::span<const Edge> inputs,
                                std::span<const Edge> keys);

  Edge make_xor(Edge a, Edge b);

  /// OR over `ins` (clobbered as scratch); kFalse when `ins` is empty.
  Edge make_or(std::vector<Edge>& ins);

  /// The solver literal of `e`. Encodes the nodes of its cone that have no
  /// variable yet and remembers each node's variable, so every call on one
  /// graph must pass the same solver.
  Lit encode(Solver& solver, Edge e);

  /// Nodes in the graph, the constant included.
  std::size_t size() const noexcept { return nodes_.size(); }

 private:
  enum class Op : std::uint8_t { kConst, kInput, kAnd, kXor, kMux };
  struct Node {
    Op op;
    Edge a, b, c;  // kMux: {select, in0, in1}
  };

  Edge make_and(Edge a, Edge b);
  Edge make_mux(Edge s, Edge in0, Edge in1);
  Edge make_and_n(std::vector<Edge>& ins);
  Edge make_xor_n(std::vector<Edge>& ins);
  Edge lookup(Op op, Edge a, Edge b, Edge c);
  std::size_t slot_of(Op op, Edge a, Edge b, Edge c) const noexcept;
  void grow();

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> table_;  // node ids; 0 (the constant) = empty
  std::size_t mask_;
  std::vector<Var> var_;  // per node; negative = not encoded yet

  // Scratch reused across calls.
  std::vector<Edge> edge_;           // add_netlist: per netlist node
  std::vector<Edge> ins_;            // add_netlist: one gate's fanins
  std::vector<std::uint32_t> cone_;  // encode: nodes to define
  std::vector<std::uint32_t> stack_;
};

}  // namespace autolock::sat
