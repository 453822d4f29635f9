// Attacker's view of a MUX-locked netlist.
//
// MuxLink models the locked design as a graph in which every key-controlled
// MUX is *removed*: the attacker knows which gate each MUX feeds (its
// fanout) and which two signals are its candidate drivers (the MUX data
// inputs), and must predict which candidate link is the true one. Key
// inputs and key-MUX nodes therefore do not appear in the graph at all —
// they carry no usable structure by construction of D-MUX-style locking.
//
// This module builds that view from a locked netlist alone (no ground
// truth): the undirected adjacency over non-key nodes, per-node structural
// features, and the list of key-bit decision problems.
//
// The adjacency is stored in CSR form (one offsets array + one flat edge
// array) rather than a vector-of-vectors, and the object is reusable:
// `build()` re-derives the view for a new locked netlist into the existing
// storage, so evaluation loops that attack thousands of candidate designs
// allocate nothing once the buffers are warm. Rows are sorted and
// deduplicated, matching the order the historical list-of-lists
// representation produced (attack RNG trajectories depend on it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace autolock::attack {

/// One candidate link (u, v): "signal u drives gate v".
struct CandidateLink {
  netlist::NodeId u = netlist::kNoNode;
  netlist::NodeId v = netlist::kNoNode;
};

/// The decision problem for one key bit: every key-MUX controlled by that
/// key input contributes one (link-if-0, link-if-1) candidate pair per
/// fanout gate.
struct KeyBitProblem {
  int key_bit_index = -1;
  /// Pairs are aligned: choosing key value 0 asserts all `if_zero` links,
  /// key value 1 asserts all `if_one` links.
  std::vector<CandidateLink> if_zero;
  std::vector<CandidateLink> if_one;
};

class AttackGraph {
 public:
  /// Creates an empty graph; call build() before use. Exists so worker
  /// scratch state can own a reusable instance.
  AttackGraph() = default;

  /// Builds the attacker view. `locked` must contain MUX key-gates whose
  /// select input is a key input (the convention every scheme in this repo
  /// follows). Non-MUX key gates (e.g. RLL XORs) are left in the graph —
  /// MuxLink does not attack them, and their presence mirrors reality.
  explicit AttackGraph(const netlist::Netlist& locked) { build(locked); }

  /// (Re)derives the view for `locked`, reusing all internal storage.
  /// `locked` must outlive the graph (or the next build()).
  void build(const netlist::Netlist& locked);

  const netlist::Netlist& locked() const noexcept { return *locked_; }

  /// True for nodes that exist in the attacker graph (false for key inputs
  /// and key-MUX nodes).
  bool in_graph(netlist::NodeId v) const { return present_[v]; }

  /// Undirected neighbours of `v` (sorted ascending, deduplicated; empty
  /// for absent nodes). Valid until the next build().
  std::span<const netlist::NodeId> neighbors(netlist::NodeId v) const {
    return {adj_edges_.data() + adj_offsets_[v],
            adj_offsets_[v + 1] - adj_offsets_[v]};
  }

  std::size_t degree(netlist::NodeId v) const noexcept {
    return adj_offsets_[v + 1] - adj_offsets_[v];
  }

  /// All existing directed wires (driver, sink) between present nodes —
  /// the self-supervision positives.
  const std::vector<CandidateLink>& known_links() const noexcept {
    return known_links_;
  }

  /// One decision problem per key bit, sorted by key bit index.
  const std::vector<KeyBitProblem>& problems() const noexcept {
    return problems_;
  }

  std::size_t key_bits() const noexcept { return problems_.size(); }

 private:
  const netlist::Netlist* locked_ = nullptr;
  std::vector<bool> present_;
  std::vector<std::uint32_t> adj_offsets_;  // size() + 1 entries
  std::vector<netlist::NodeId> adj_edges_;
  std::vector<CandidateLink> known_links_;
  std::vector<KeyBitProblem> problems_;
  // Build-time scratch, retained for reuse.
  std::vector<bool> is_key_mux_;
  std::vector<int> bit_of_node_;
  std::vector<std::uint32_t> cursor_;
  std::vector<KeyBitProblem> slots_;
  /// Key-MUX sink CSR (dense slot per key MUX): the deduplicated ascending
  /// gate fanouts of each key MUX, collected in one pass over all fanin
  /// lists — the per-build replacement for materializing the netlist's full
  /// vector-of-vectors fanout cache just to read the key-MUX rows.
  std::vector<std::int32_t> mux_slot_;
  std::vector<std::uint32_t> mux_sink_offsets_;
  std::vector<netlist::NodeId> mux_sink_edges_;
};

}  // namespace autolock::attack
