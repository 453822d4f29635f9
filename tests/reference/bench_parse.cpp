#include "reference/bench_parse.hpp"

#include <cctype>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "netlist/bench_io.hpp"

namespace autolock::reference {

using netlist::GateType;
using netlist::is_source;
using netlist::Netlist;
using netlist::NodeId;
using netlist::parse_gate_type;

namespace {

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::runtime_error("bench parse error at line " +
                           std::to_string(line_no) + ": " + message);
}

struct PendingPort {
  std::string name;
  std::size_t line_no = 0;
};

struct PendingGate {
  std::string name;
  GateType type = GateType::kBuf;
  std::vector<std::string> operands;
  std::size_t line_no = 0;
};

/// True iff `name` is "keyinput" followed by one or more digits — the key
/// naming *shape*, regardless of whether the index fits kMaxKeyBitIndex.
/// Used to turn out-of-range indices into parse errors instead of silently
/// demoting them to primary inputs.
bool has_key_input_shape(std::string_view name) noexcept {
  constexpr std::string_view kPrefix = "keyinput";
  if (name.size() <= kPrefix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  for (char ch : name.substr(kPrefix.size())) {
    if (!std::isdigit(static_cast<unsigned char>(ch))) return false;
  }
  return true;
}

}  // namespace

Netlist parse_bench(std::string_view text, std::string circuit_name) {
  std::vector<PendingPort> input_names;
  std::vector<PendingPort> output_names;
  std::vector<PendingGate> gates;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    const std::size_t first_open = line.find('(');
    // An '=' inside the parentheses of a directive ("INPUT(a=b)") is an
    // error, not a BUF alias named "INPUT(a".
    if (eq != std::string_view::npos && first_open != std::string_view::npos &&
        first_open < eq) {
      fail(line_no, "unexpected '=' after '('");
    }
    if (eq == std::string_view::npos) {
      // INPUT(...) or OUTPUT(...)
      const std::size_t open = first_open;
      const std::size_t close = line.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close < open) {
        fail(line_no, "expected INPUT(name) or OUTPUT(name)");
      }
      if (!trim(line.substr(close + 1)).empty()) {
        fail(line_no, "trailing characters after ')'");
      }
      const std::string keyword{trim(line.substr(0, open))};
      const std::string arg{trim(line.substr(open + 1, close - open - 1))};
      if (arg.empty()) fail(line_no, "empty port name");
      std::string upper;
      for (char ch : keyword) {
        upper.push_back(
            static_cast<char>(std::toupper(static_cast<unsigned char>(ch))));
      }
      if (upper == "INPUT") input_names.push_back({arg, line_no});
      else if (upper == "OUTPUT") output_names.push_back({arg, line_no});
      else fail(line_no, "unknown directive '" + keyword + "'");
      continue;
    }

    PendingGate gate;
    gate.name = std::string{trim(line.substr(0, eq))};
    gate.line_no = line_no;
    if (gate.name.empty()) fail(line_no, "missing signal name before '='");
    std::string_view rhs = trim(line.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    if (open == std::string_view::npos) {
      // CONST0 / CONST1 extension, or bare alias "a = b" (treated as BUF).
      if (rhs.find(')') != std::string_view::npos) {
        fail(line_no, "')' without matching '('");
      }
      const std::string keyword{trim(rhs)};
      if (const auto type = parse_gate_type(keyword);
          type && (*type == GateType::kConst0 || *type == GateType::kConst1)) {
        gate.type = *type;
        gates.push_back(std::move(gate));
        continue;
      }
      if (keyword.empty()) fail(line_no, "empty right-hand side");
      gate.type = GateType::kBuf;
      gate.operands.push_back(keyword);
      gates.push_back(std::move(gate));
      continue;
    }
    const std::size_t close = rhs.rfind(')');
    if (close == std::string_view::npos || close < open) {
      fail(line_no, "unbalanced parentheses");
    }
    if (!trim(rhs.substr(close + 1)).empty()) {
      fail(line_no, "trailing characters after ')'");
    }
    const std::string keyword{trim(rhs.substr(0, open))};
    const auto type = parse_gate_type(keyword);
    if (!type) fail(line_no, "unknown gate type '" + keyword + "'");
    if (is_source(*type) && *type == GateType::kInput) {
      fail(line_no, "INPUT used as a gate");
    }
    gate.type = *type;
    std::string_view args = rhs.substr(open + 1, close - open - 1);
    if (!trim(args).empty()) {
      std::size_t start = 0;
      while (start <= args.size()) {
        std::size_t comma = args.find(',', start);
        if (comma == std::string_view::npos) comma = args.size();
        const std::string operand{trim(args.substr(start, comma - start))};
        // "AND(a,,b)" / "AND(a,)": an empty slot is an error (dropping it
        // would shift every later operand, fatal for MUX fanin order).
        if (operand.empty()) fail(line_no, "empty operand");
        gate.operands.push_back(operand);
        start = comma + 1;
      }
    }
    if (gate.operands.empty() && *type != GateType::kConst0 &&
        *type != GateType::kConst1) {
      fail(line_no, "gate with no operands");
    }
    gates.push_back(std::move(gate));
  }

  // Build the netlist: inputs first, then gates in dependency order
  // (bench files may reference signals before definition).
  Netlist netlist(std::move(circuit_name));
  std::unordered_map<std::string, NodeId> defined;
  for (const PendingPort& input : input_names) {
    if (defined.contains(input.name)) {
      fail(input.line_no, "duplicate input '" + input.name + "'");
    }
    // A name shaped like a key input whose index does not parse (overflow /
    // out of range) is a corrupt key declaration, not a primary input.
    if (has_key_input_shape(input.name) && !netlist::bench::is_key_input_name(input.name)) {
      fail(input.line_no,
           "key input index out of range in '" + input.name + "'");
    }
    defined.emplace(input.name,
                    netlist.add_input(input.name,
                                      netlist::bench::is_key_input_name(input.name)));
  }

  std::unordered_map<std::string, std::size_t> gate_by_name;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (defined.contains(gates[i].name) ||
        gate_by_name.contains(gates[i].name)) {
      fail(gates[i].line_no, "duplicate definition of '" + gates[i].name + "'");
    }
    gate_by_name.emplace(gates[i].name, i);
  }

  // Iterative DFS over gate dependencies to honor use-before-def.
  std::vector<std::uint8_t> state(gates.size(), 0);  // 0=new 1=visiting 2=done
  std::vector<std::size_t> stack;
  for (std::size_t root = 0; root < gates.size(); ++root) {
    if (state[root] == 2) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::size_t g = stack.back();
      if (state[g] == 2) {
        stack.pop_back();
        continue;
      }
      state[g] = 1;
      bool ready = true;
      for (const std::string& operand : gates[g].operands) {
        if (defined.contains(operand)) continue;
        const auto it = gate_by_name.find(operand);
        if (it == gate_by_name.end()) {
          fail(gates[g].line_no, "undefined operand '" + operand + "'");
        }
        if (state[it->second] == 1) {
          fail(gates[g].line_no, "combinational cycle through '" + operand +
                                     "'");
        }
        if (state[it->second] == 0) {
          stack.push_back(it->second);
          ready = false;
        }
      }
      if (!ready) continue;
      // All operands defined: materialize.
      const PendingGate& gate = gates[g];
      NodeId id;
      if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1) {
        id = netlist.add_const(gate.type == GateType::kConst1, gate.name);
      } else {
        std::vector<NodeId> fanins;
        fanins.reserve(gate.operands.size());
        for (const std::string& operand : gate.operands) {
          fanins.push_back(defined.at(operand));
        }
        id = netlist.add_gate(gate.type, std::move(fanins), gate.name);
      }
      defined.emplace(gate.name, id);
      state[g] = 2;
      stack.pop_back();
    }
  }

  for (const PendingPort& output : output_names) {
    const auto it = defined.find(output.name);
    if (it == defined.end()) {
      fail(output.line_no, "undefined output '" + output.name + "'");
    }
    netlist.mark_output(it->second, output.name);
  }
  netlist.validate();
  return netlist;
}

}  // namespace autolock::reference
