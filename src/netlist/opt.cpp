#include "netlist/opt.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace autolock::netlist {

namespace {

/// Rewrite value of one input-netlist node: either a node id in the
/// rewritten graph or a known constant, packed into one word (bit 32 = "is
/// constant", bit 0 = constant value when set, low 32 bits = node id
/// otherwise).
using PackedValue = std::uint64_t;
constexpr PackedValue kConstFlag = 1ULL << 32;

constexpr PackedValue pack_node(NodeId id) noexcept { return id; }
constexpr PackedValue pack_const(bool b) noexcept {
  return kConstFlag | static_cast<PackedValue>(b);
}
constexpr bool is_const(PackedValue v) noexcept { return (v & kConstFlag) != 0; }
constexpr bool const_of(PackedValue v) noexcept { return (v & 1ULL) != 0; }
constexpr NodeId node_of(PackedValue v) noexcept {
  return static_cast<NodeId>(v);
}

/// The rewrite pass over OptScratch. Building the base appends every
/// emitted gate; a query re-evaluates single input nodes, and a gate whose
/// base rewrite emitted a node re-emits into that same node id.
class Rewriter {
 public:
  Rewriter(const Netlist& input, OptScratch& scratch, bool query,
           std::uint32_t base_nodes, std::size_t area)
      : input_(&input),
        s_(&scratch),
        query_(query),
        base_nodes_(base_nodes),
        const0_(static_cast<NodeId>(input.inputs().size())),
        area_(area) {}

  std::size_t area() const noexcept { return area_; }

  void build_base() {
    const Netlist& input = *input_;
    const std::size_t n = input.size();
    s_->values.resize(n);
    s_->emitted.assign(n, kNoNode);
    s_->rank.resize(n);
    s_->ports.assign(n, 0);
    s_->nodes.clear();
    s_->fanins.clear();
    for (const NodeId id : input.inputs()) {
      s_->values[id] = pack_node(append(GateType::kInput, nullptr, 0));
    }
    append(GateType::kConst0, nullptr, 0);  // const0_
    append(GateType::kConst1, nullptr, 0);  // const0_ + 1
    const std::vector<NodeId>& order = input.topological_order();
    for (std::uint32_t i = 0; i < order.size(); ++i) {
      const NodeId v = order[i];
      s_->rank[v] = i;
      if (input.node(v).type == GateType::kInput) continue;
      current_ = v;
      s_->values[v] = rewrite_gate(input.node(v));
    }
    for (const auto& port : input.outputs()) {
      ++s_->ports[port.driver];
      const PackedValue value = s_->values[port.driver];
      if (!is_const(value)) ++s_->nodes[node_of(value)].refs;
    }
    // Every fanin was emitted before its gate, so one sweep down the ids
    // settles each gate's count before the gate hands references on.
    for (auto id = static_cast<NodeId>(s_->nodes.size()); id-- > 0;) {
      const OptNode& node = s_->nodes[id];
      if (node.refs == 0 || is_source(node.type)) continue;
      ++area_;
      for (std::uint32_t e = node.fanin_begin; e < node.fanin_end; ++e) {
        ++s_->nodes[s_->fanins[e]].refs;
      }
    }
    s_->fanouts.build(input);
  }

  /// Pins input node `pinned` to `value`, re-evaluates its fanout and
  /// settles the live-referrer counts; `area()` is then the pinned count.
  void pin(NodeId pinned, bool value) {
    const std::vector<NodeId>& order = input_->topological_order();
    s_->journaled.begin_epoch(base_nodes_);
    s_->inverter_changed.begin_epoch(base_nodes_);
    s_->queued.begin_epoch(input_->size());
    set_value(pinned, pack_const(value));
    enqueue_consumers(pinned);
    auto& heap = s_->heap;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const NodeId v = order[heap.back()];
      heap.pop_back();
      current_ = v;
      const PackedValue fresh = rewrite_gate(input_->node(v));
      if (fresh != s_->values[v]) {
        set_value(v, fresh);
        enqueue_consumers(v);
      } else if (!is_const(fresh) &&
                 s_->inverter_changed.marked(node_of(fresh))) {
        // Same node, but NOT(NOT(x)) over it now folds differently.
        enqueue_consumers(v);
      }
    }
    update_references();
  }

  /// Restores the base graph, values and counts.
  void undo(std::uint32_t base_fanins) {
    for (const auto& [id, node] : s_->node_journal) s_->nodes[id] = node;
    for (const auto& [v, value] : s_->value_journal) s_->values[v] = value;
    s_->nodes.resize(base_nodes_);
    s_->fanins.resize(base_fanins);
    s_->node_journal.clear();
    s_->value_journal.clear();
    s_->rewired.clear();
  }

 private:
  // ---- rewritten graph -----------------------------------------------------

  NodeId append(GateType type, const NodeId* fanins, std::size_t n) {
    const auto id = static_cast<NodeId>(s_->nodes.size());
    OptNode node;
    node.type = type;
    node.fanin_begin = static_cast<std::uint32_t>(s_->fanins.size());
    s_->fanins.insert(s_->fanins.end(), fanins, fanins + n);
    node.fanin_end = static_cast<std::uint32_t>(s_->fanins.size());
    s_->nodes.push_back(node);
    return id;
  }

  /// x when `id` is a rewriter-emitted NOT(x) (every NOT is), else kNoNode.
  NodeId inverter_input(NodeId id) const {
    const OptNode& node = s_->nodes[id];
    return node.type == GateType::kNot ? s_->fanins[node.fanin_begin]
                                       : kNoNode;
  }

  /// Records a base node's state before a query first edits it.
  void journal(NodeId id) {
    if (id < base_nodes_ && s_->journaled.try_mark(id)) {
      s_->node_journal.emplace_back(id, s_->nodes[id]);
    }
  }

  NodeId emit(GateType type, const NodeId* fanins, std::size_t n) {
    if (!query_) {
      const NodeId id = append(type, fanins, n);
      s_->emitted[current_] = id;
      return id;
    }
    const NodeId id = s_->emitted[current_];
    if (id == kNoNode) return append(type, fanins, n);  // fresh, dead so far
    OptNode& node = s_->nodes[id];
    if (node.type == type && node.fanin_end - node.fanin_begin == n &&
        std::equal(fanins, fanins + n, s_->fanins.begin() + node.fanin_begin)) {
      return id;
    }
    const NodeId inverted = inverter_input(id);
    journal(id);
    s_->rewired.push_back({id, node.fanin_begin, node.fanin_end, false});
    node.type = type;
    node.fanin_begin = static_cast<std::uint32_t>(s_->fanins.size());
    s_->fanins.insert(s_->fanins.end(), fanins, fanins + n);
    node.fanin_end = static_cast<std::uint32_t>(s_->fanins.size());
    if (inverter_input(id) != inverted) s_->inverter_changed.mark(id);
    return id;
  }

  // ---- live-referrer counts ------------------------------------------------

  /// One live referrer more (`acquire`) or fewer for `id`: a gate gaining
  /// its first comes alive and references its own fanins in turn; a gate
  /// losing its last dies and releases them.
  void count_referrer(NodeId id, bool acquire) {
    auto& stack = s_->stack;
    stack.push_back(id);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      if (is_source(s_->nodes[v].type)) continue;
      journal(v);
      OptNode& node = s_->nodes[v];
      if (acquire ? node.refs++ != 0 : --node.refs != 0) continue;
      area_ = acquire ? area_ + 1 : area_ - 1;
      stack.insert(stack.end(), s_->fanins.begin() + node.fanin_begin,
                   s_->fanins.begin() + node.fanin_end);
    }
  }

  /// Moves the references of every rewired node and re-driven output port
  /// from the old targets to the new. All acquisitions come first, so no
  /// gate dies only to come alive again.
  void update_references() {
    for (auto& rewire : s_->rewired) {
      rewire.held = s_->nodes[rewire.node].refs > 0;
    }
    for (const auto& rewire : s_->rewired) {
      if (!rewire.held) continue;
      const OptNode& node = s_->nodes[rewire.node];
      for (std::uint32_t e = node.fanin_begin; e < node.fanin_end; ++e) {
        count_referrer(s_->fanins[e], true);
      }
    }
    for (const auto& [v, old] : s_->value_journal) {
      const PackedValue value = s_->values[v];
      if (is_const(value)) continue;
      for (std::uint32_t p = 0; p < s_->ports[v]; ++p) {
        count_referrer(node_of(value), true);
      }
    }
    for (const auto& rewire : s_->rewired) {
      if (!rewire.held) continue;
      for (std::uint32_t e = rewire.old_begin; e < rewire.old_end; ++e) {
        count_referrer(s_->fanins[e], false);
      }
    }
    for (const auto& [v, old] : s_->value_journal) {
      if (is_const(old)) continue;
      for (std::uint32_t p = 0; p < s_->ports[v]; ++p) {
        count_referrer(node_of(old), false);
      }
    }
  }

  // ---- query worklist ------------------------------------------------------

  void set_value(NodeId v, PackedValue value) {
    s_->value_journal.emplace_back(v, s_->values[v]);
    s_->values[v] = value;
  }

  void enqueue_consumers(NodeId v) {
    for (const NodeId consumer : s_->fanouts.fanouts(v)) {
      if (!s_->queued.try_mark(consumer)) continue;
      s_->heap.push_back(s_->rank[consumer]);
      std::push_heap(s_->heap.begin(), s_->heap.end(), std::greater<>());
    }
  }

  // ---- rewrite rules -------------------------------------------------------

  NodeId materialize(PackedValue value) const {
    return is_const(value) ? const0_ + (const_of(value) ? 1 : 0)
                           : node_of(value);
  }

  PackedValue make_not(NodeId node) {
    // NOT(NOT(x)) -> x.
    const NodeId inner = inverter_input(node);
    if (inner != kNoNode) return pack_node(inner);
    return pack_node(emit(GateType::kNot, &node, 1));
  }

  PackedValue finish_andor(bool inverted, bool is_and) {
    std::vector<NodeId>& live = s_->live;
    // Deduplicate identical fanins (x AND x = x).
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    if (live.empty()) {
      // All fanins were identity constants: AND() = 1, OR() = 0.
      return pack_const(is_and != inverted);
    }
    if (live.size() == 1) {
      return inverted ? make_not(live[0]) : pack_node(live[0]);
    }
    const GateType type =
        is_and ? (inverted ? GateType::kNand : GateType::kAnd)
               : (inverted ? GateType::kNor : GateType::kOr);
    return pack_node(emit(type, live.data(), live.size()));
  }

  PackedValue rewrite_gate(const Node& node) {
    const std::vector<PackedValue>& values = s_->values;
    std::vector<NodeId>& live = s_->live;
    switch (node.type) {
      case GateType::kConst0:
        return pack_const(false);
      case GateType::kConst1:
        return pack_const(true);
      case GateType::kBuf:
        return values[node.fanins[0]];
      case GateType::kNot: {
        const PackedValue in = values[node.fanins[0]];
        if (is_const(in)) return pack_const(!const_of(in));
        return make_not(node_of(in));
      }
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool is_and =
            node.type == GateType::kAnd || node.type == GateType::kNand;
        const bool inverted =
            node.type == GateType::kNand || node.type == GateType::kNor;
        live.clear();
        for (const NodeId fanin : node.fanins) {
          const PackedValue in = values[fanin];
          if (!is_const(in)) {
            live.push_back(node_of(in));
          } else if (const_of(in) != is_and) {
            // The controlling constant: AND with 0, OR with 1.
            return pack_const(is_and == inverted);
          }
        }
        return finish_andor(inverted, is_and);
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool phase = node.type == GateType::kXnor;
        live.clear();
        for (const NodeId fanin : node.fanins) {
          const PackedValue in = values[fanin];
          if (is_const(in)) {
            phase ^= const_of(in);
          } else {
            live.push_back(node_of(in));
          }
        }
        if (live.empty()) return pack_const(phase);
        if (live.size() == 1) {
          return phase ? make_not(live[0]) : pack_node(live[0]);
        }
        return pack_node(emit(phase ? GateType::kXnor : GateType::kXor,
                              live.data(), live.size()));
      }
      case GateType::kMux: {
        const PackedValue sel = values[node.fanins[0]];
        const PackedValue in0 = values[node.fanins[1]];
        const PackedValue in1 = values[node.fanins[2]];
        if (is_const(sel)) return const_of(sel) ? in1 : in0;
        // MUX with equal data inputs is the data input.
        if (!is_const(in0) && !is_const(in1) &&
            node_of(in0) == node_of(in1)) {
          return in0;
        }
        if (is_const(in0) && is_const(in1)) {
          if (const_of(in0) == const_of(in1)) return in0;
          // MUX(s, 0, 1) = s ; MUX(s, 1, 0) = ~s.
          if (!const_of(in0)) return sel;
          return make_not(node_of(sel));
        }
        const NodeId fanins[3] = {node_of(sel), materialize(in0),
                                  materialize(in1)};
        return pack_node(emit(GateType::kMux, fanins, 3));
      }
      case GateType::kInput:
        break;  // unreachable
    }
    return pack_node(kNoNode);
  }

  const Netlist* input_;
  OptScratch* s_;
  bool query_;
  std::uint32_t base_nodes_;  // 0 while building the base: nothing journaled
  NodeId const0_;
  std::size_t area_;
  NodeId current_ = kNoNode;
};

}  // namespace

PinnedAreas::PinnedAreas(const Netlist& input, OptScratch& scratch)
    : input_(&input), s_(&scratch) {
  Rewriter rewriter(input, scratch, /*query=*/false, 0, 0);
  rewriter.build_base();
  base_area_ = rewriter.area();
  base_nodes_ = static_cast<std::uint32_t>(scratch.nodes.size());
  base_fanins_ = static_cast<std::uint32_t>(scratch.fanins.size());
}

std::size_t PinnedAreas::gate_count_with(NodeId input_node, bool value) {
  if (!input_->valid_id(input_node) ||
      input_->node(input_node).type != GateType::kInput) {
    throw std::invalid_argument("PinnedAreas: pinned node is not an input");
  }
  Rewriter rewriter(*input_, *s_, /*query=*/true, base_nodes_, base_area_);
  rewriter.pin(input_node, value);
  const std::size_t area = rewriter.area();
  rewriter.undo(base_fanins_);
  return area;
}

}  // namespace autolock::netlist
