// Fundamental gate-level types: gate kinds, node ids, and word-parallel gate
// evaluation. Shared by the netlist container, the simulator, the CNF
// encoder, and the locking schemes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace autolock::netlist {

/// Index of a node inside a Netlist. Stable across additions (nodes are never
/// removed in place; compaction produces a fresh Netlist).
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Gate kinds. `kInput` covers both primary inputs and key inputs (the node
/// carries an `is_key_input` flag). `kMux` is a 2:1 multiplexer with fanins
/// ordered {select, in0, in1}: out = select ? in1 : in0.
enum class GateType : std::uint8_t {
  kInput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMux,
};

/// Number of distinct GateType values (for one-hot feature encodings).
inline constexpr std::size_t kGateTypeCount = 12;

/// Canonical BENCH-style keyword for a gate type ("NAND", "MUX", ...).
std::string_view gate_type_name(GateType type) noexcept;

/// Parses a BENCH keyword (case-insensitive). Returns nullopt if unknown.
std::optional<GateType> parse_gate_type(std::string_view keyword) noexcept;

/// True for types that take no fanins (inputs and constants).
constexpr bool is_source(GateType type) noexcept {
  return type == GateType::kInput || type == GateType::kConst0 ||
         type == GateType::kConst1;
}

/// Fanin arity constraints: {min, max} (max = 0 means unbounded).
struct Arity {
  std::size_t min;
  std::size_t max;  // 0 = unbounded
};
constexpr Arity gate_arity(GateType type) noexcept {
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return {0, 1};  // max field unused for sources; min=0
    case GateType::kBuf:
    case GateType::kNot:
      return {1, 1};
    case GateType::kMux:
      return {3, 3};
    case GateType::kXor:
    case GateType::kXnor:
      return {2, 0};
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
      return {2, 0};
  }
  return {0, 0};
}

/// Evaluates a gate over 64-bit simulation words. `fanins` points at the
/// already-computed words of the gate's fanins, in fanin order.
/// Word-parallel: bit i of the result is the gate output for test vector i.
std::uint64_t eval_gate_words(GateType type, const std::uint64_t* fanins,
                              std::size_t fanin_count) noexcept;

}  // namespace autolock::netlist
