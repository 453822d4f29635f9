#include "netlist/types.hpp"

#include <array>
#include <cctype>

namespace autolock::netlist {

std::string_view gate_type_name(GateType type) noexcept {
  switch (type) {
    case GateType::kInput: return "INPUT";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kMux: return "MUX";
  }
  return "?";
}

std::optional<GateType> parse_gate_type(std::string_view keyword) noexcept {
  std::string upper;
  upper.reserve(keyword.size());
  for (char ch : keyword) {
    upper.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(ch))));
  }
  struct Entry {
    std::string_view name;
    GateType type;
  };
  static constexpr std::array<Entry, 14> kEntries{{
      {"INPUT", GateType::kInput},
      {"CONST0", GateType::kConst0},
      {"CONST1", GateType::kConst1},
      {"BUF", GateType::kBuf},
      {"BUFF", GateType::kBuf},  // ISCAS .bench spelling
      {"NOT", GateType::kNot},
      {"INV", GateType::kNot},
      {"AND", GateType::kAnd},
      {"NAND", GateType::kNand},
      {"OR", GateType::kOr},
      {"NOR", GateType::kNor},
      {"XOR", GateType::kXor},
      {"XNOR", GateType::kXnor},
      {"MUX", GateType::kMux},
  }};
  for (const auto& entry : kEntries) {
    if (entry.name == upper) return entry.type;
  }
  return std::nullopt;
}

std::uint64_t eval_gate_words(GateType type, const std::uint64_t* fanins,
                              std::size_t fanin_count) noexcept {
  switch (type) {
    case GateType::kInput:
      // Inputs are evaluated by the simulator directly; reaching here means
      // a pass-through of a preloaded word.
      return fanin_count ? fanins[0] : 0;
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ~0ULL;
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return ~fanins[0];
    case GateType::kAnd: {
      std::uint64_t acc = ~0ULL;
      for (std::size_t i = 0; i < fanin_count; ++i) acc &= fanins[i];
      return acc;
    }
    case GateType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (std::size_t i = 0; i < fanin_count; ++i) acc &= fanins[i];
      return ~acc;
    }
    case GateType::kOr: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc |= fanins[i];
      return acc;
    }
    case GateType::kNor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc |= fanins[i];
      return ~acc;
    }
    case GateType::kXor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc ^= fanins[i];
      return acc;
    }
    case GateType::kXnor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc ^= fanins[i];
      return ~acc;
    }
    case GateType::kMux:
      // fanins = {select, in0, in1}
      return (~fanins[0] & fanins[1]) | (fanins[0] & fanins[2]);
  }
  return 0;
}

}  // namespace autolock::netlist
