#include "reference/opt.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <variant>
#include <vector>

namespace autolock::reference {

namespace {

using netlist::GateType;
using netlist::kNoNode;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;

/// Rewrite value of an input node: a node of the output netlist or a
/// constant.
using Value = std::variant<NodeId, bool>;

bool is_const(const Value& v) { return std::holds_alternative<bool>(v); }
bool const_of(const Value& v) { return std::get<bool>(v); }
NodeId node_of(const Value& v) { return std::get<NodeId>(v); }

class Synthesizer {
 public:
  Synthesizer(const Netlist& input, OptStats& stats)
      : input_(input), out_(input.name(), input.names()), stats_(stats) {}

  Netlist run(const std::vector<std::optional<bool>>& pinned) {
    values_.assign(input_.size(), Value(kNoNode));
    for (std::size_t i = 0; i < input_.inputs().size(); ++i) {
      const NodeId id = input_.inputs()[i];
      const Node& node = input_.node(id);
      const NodeId fresh = out_.add_input(node.name, node.is_key_input);
      if (pinned[i].has_value()) {
        values_[id] = *pinned[i];
        ++stats_.constants_folded;
      } else {
        values_[id] = fresh;
      }
    }
    for (const NodeId v : input_.topological_order()) {
      const Node& node = input_.node(v);
      if (node.type != GateType::kInput) values_[v] = rewrite(node);
    }
    for (const auto& port : input_.outputs()) {
      out_.mark_output(materialize(values_[port.driver]), port.name);
    }
    return std::move(out_);
  }

 private:
  NodeId materialize(const Value& v) {
    if (!is_const(v)) return node_of(v);
    NodeId& cache = const_of(v) ? const1_ : const0_;
    if (cache == kNoNode) {
      cache = out_.add_const(const_of(v),
                             const_of(v) ? "opt_const1" : "opt_const0");
    }
    return cache;
  }

  NodeId emit(GateType type, std::vector<NodeId> fanins) {
    const NodeId fresh = out_.add_gate(type, std::move(fanins));
    if (inverter_input_.size() <= fresh) {
      inverter_input_.resize(fresh + 1, kNoNode);
    }
    return fresh;
  }

  Value make_not(NodeId node, bool count) {
    // NOT(NOT(x)) -> x.
    if (node < inverter_input_.size() && inverter_input_[node] != kNoNode) {
      if (count) ++stats_.buffers_collapsed;
      return inverter_input_[node];
    }
    const NodeId fresh = emit(GateType::kNot, {node});
    inverter_input_[fresh] = node;
    return fresh;
  }

  Value finish_andor(std::vector<NodeId> live, bool inverted, bool is_and) {
    // Deduplicate identical fanins (x AND x = x).
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    if (live.empty()) return is_and != inverted;  // AND() = 1, OR() = 0
    if (live.size() == 1) {
      return inverted ? make_not(live[0], /*count=*/false) : Value(live[0]);
    }
    const GateType type =
        is_and ? (inverted ? GateType::kNand : GateType::kAnd)
               : (inverted ? GateType::kNor : GateType::kOr);
    return emit(type, std::move(live));
  }

  Value rewrite(const Node& node) {
    std::vector<Value> ins;
    for (const NodeId fanin : node.fanins) ins.push_back(values_[fanin]);
    switch (node.type) {
      case GateType::kConst0:
        return false;
      case GateType::kConst1:
        return true;
      case GateType::kBuf:
        ++stats_.buffers_collapsed;
        return ins[0];
      case GateType::kNot:
        if (is_const(ins[0])) {
          ++stats_.constants_folded;
          return !const_of(ins[0]);
        }
        return make_not(node_of(ins[0]), /*count=*/true);
      case GateType::kAnd:
      case GateType::kNand: {
        std::vector<NodeId> live;
        for (const Value& in : ins) {
          if (!is_const(in)) {
            live.push_back(node_of(in));
            continue;
          }
          ++stats_.constants_folded;
          if (!const_of(in)) return node.type == GateType::kNand;
        }
        return finish_andor(std::move(live), node.type == GateType::kNand,
                            /*is_and=*/true);
      }
      case GateType::kOr:
      case GateType::kNor: {
        std::vector<NodeId> live;
        for (const Value& in : ins) {
          if (!is_const(in)) {
            live.push_back(node_of(in));
            continue;
          }
          ++stats_.constants_folded;
          if (const_of(in)) return node.type != GateType::kNor;
        }
        return finish_andor(std::move(live), node.type == GateType::kNor,
                            /*is_and=*/false);
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool phase = node.type == GateType::kXnor;
        std::vector<NodeId> live;
        for (const Value& in : ins) {
          if (!is_const(in)) {
            live.push_back(node_of(in));
            continue;
          }
          ++stats_.constants_folded;
          phase ^= const_of(in);
        }
        if (live.empty()) return phase;
        if (live.size() == 1) {
          return phase ? make_not(live[0], /*count=*/true) : Value(live[0]);
        }
        return emit(phase ? GateType::kXnor : GateType::kXor, std::move(live));
      }
      case GateType::kMux: {
        const Value& sel = ins[0];
        const Value& in0 = ins[1];
        const Value& in1 = ins[2];
        if (is_const(sel)) {
          ++stats_.constants_folded;
          return const_of(sel) ? in1 : in0;
        }
        if (!is_const(in0) && !is_const(in1) && node_of(in0) == node_of(in1)) {
          ++stats_.constants_folded;
          return in0;
        }
        if (is_const(in0) && is_const(in1)) {
          ++stats_.constants_folded;
          if (const_of(in0) == const_of(in1)) return in0;
          // MUX(s, 0, 1) = s ; MUX(s, 1, 0) = ~s.
          if (!const_of(in0)) return sel;
          return make_not(node_of(sel), /*count=*/true);
        }
        return emit(GateType::kMux,
                    {node_of(sel), materialize(in0), materialize(in1)});
      }
      case GateType::kInput:
        break;
    }
    throw std::logic_error("reference::optimize: input node in gate order");
  }

  const Netlist& input_;
  Netlist out_;
  OptStats& stats_;
  std::vector<Value> values_;
  std::vector<NodeId> inverter_input_;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;
};

Netlist optimize_pinned(const Netlist& input, OptStats* stats,
                        const std::vector<std::optional<bool>>& pinned) {
  OptStats local;
  Synthesizer synthesizer(input, local);
  const Netlist rewritten = synthesizer.run(pinned);
  Netlist compact = rewritten.compacted();
  local.gates_before = input.gate_count();
  local.gates_after = compact.gate_count();
  local.dead_removed = rewritten.gate_count() - local.gates_after;
  if (stats != nullptr) *stats = local;
  return compact;
}

}  // namespace

Netlist optimize(const Netlist& input, OptStats* stats) {
  return optimize_pinned(
      input, stats,
      std::vector<std::optional<bool>>(input.inputs().size(), std::nullopt));
}

Netlist optimize_with_key_bit(const Netlist& input, std::size_t bit,
                              bool value, OptStats* stats) {
  const auto keys = input.key_inputs();
  if (bit >= keys.size()) {
    throw std::invalid_argument("optimize_with_key_bit: bit out of range");
  }
  std::vector<std::optional<bool>> pinned(input.inputs().size(), std::nullopt);
  for (std::size_t i = 0; i < input.inputs().size(); ++i) {
    if (input.inputs()[i] == keys[bit]) pinned[i] = value;
  }
  return optimize_pinned(input, stats, pinned);
}

}  // namespace autolock::reference
