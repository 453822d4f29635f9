// Key-pinned area queries for the SCOPE-style oracle-less attack
// (attacks/scope.hpp): the gate count a synthesis pass leaves when one key
// input is tied to a constant. The pass is constant propagation, algebraic
// simplification of degenerate gates (AND(x) -> x, XOR(x, 0) -> x,
// NOT(NOT(x)) -> x, MUX with a constant select or equal data -> data,
// MUX(s, 0, 1) -> s), buffer collapsing and dead-logic removal.
//
// PinnedAreas rewrites the design once with every input free and keeps that
// base graph, together with each rewritten node's count of live referrers
// (output ports included). A (key, value) query then re-evaluates only the
// pinned key's fanout, in topological order, and counts the gates that die
// or come alive; an undo journal restores the base afterwards (the
// journaled-reset idea of locking/decode_topo.hpp). The rewriter does no
// structural hashing, so a gate's rewrite depends only on its fanins'
// values: a re-emitted gate keeps its base node id with new fanins, and
// propagation stops there unless that changes what NOT(NOT(x)) folds to.
// The full-synthesis oracle in tests/reference/opt.hpp pins every count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/csr.hpp"
#include "netlist/netlist.hpp"
#include "util/epoch_flags.hpp"

namespace autolock::netlist {

/// One node of the rewritten graph.
struct OptNode {
  std::uint32_t fanin_begin = 0;  // [begin, end) into OptScratch::fanins
  std::uint32_t fanin_end = 0;
  /// Live referrers: fanin slots of live nodes plus output ports. A gate is
  /// live, and counts towards the area, iff refs > 0.
  std::uint32_t refs = 0;
  GateType type = GateType::kInput;
};

/// Reusable working storage for PinnedAreas (one per worker thread).
/// Contents are an implementation detail of opt.cpp; callers only construct
/// it and pass it in.
struct OptScratch {
  // Per node of the input netlist.
  std::vector<std::uint64_t> values;  // packed rewrite value
  std::vector<NodeId> emitted;        // node its base rewrite emitted
  std::vector<std::uint32_t> rank;    // position in topological order
  std::vector<std::uint32_t> ports;   // output ports it drives
  CsrFanouts fanouts;
  // Rewritten graph: base nodes first, then a query's fresh nodes.
  std::vector<OptNode> nodes;
  std::vector<NodeId> fanins;
  std::vector<NodeId> live;
  std::vector<NodeId> stack;
  // Query state, undone after every query.
  struct Rewire {
    NodeId node;
    std::uint32_t old_begin;
    std::uint32_t old_end;
    bool held;  // live before the query's reference updates
  };
  std::vector<Rewire> rewired;
  std::vector<std::pair<NodeId, OptNode>> node_journal;
  std::vector<std::pair<NodeId, std::uint64_t>> value_journal;
  std::vector<std::uint32_t> heap;
  util::EpochFlags journaled;         // rewritten nodes
  util::EpochFlags inverter_changed;  // rewritten nodes
  util::EpochFlags queued;            // input-netlist nodes
};

/// Synthesized gate counts of `input` under single-input pins. Construction
/// does the one base rewrite; `input` must stay unchanged and `scratch`
/// unshared while the object is in use.
class PinnedAreas {
 public:
  PinnedAreas(const Netlist& input, OptScratch& scratch);

  /// Gate count with every input free.
  std::size_t base_gate_count() const noexcept { return base_area_; }

  /// Gate count of the synthesized design with input node `input_node`
  /// (typically a key input) tied to `value`; the input stays in the
  /// interface. Throws std::invalid_argument if `input_node` is not an
  /// input.
  std::size_t gate_count_with(NodeId input_node, bool value);

 private:
  const Netlist* input_;
  OptScratch* s_;
  std::size_t base_area_ = 0;
  std::uint32_t base_nodes_ = 0;
  std::uint32_t base_fanins_ = 0;
};

}  // namespace autolock::netlist
