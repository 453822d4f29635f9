// Full synthesis: the netlist optimizer that materializes its result —
// constant propagation, algebraic simplification of degenerate gates,
// buffer collapsing and dead-node elimination — as a new Netlist. It is
// the oracle for netlist::PinnedAreas, whose key-pinned gate counts must
// equal `optimize_with_key_bit(...).gate_count()`, and for the SCOPE
// reference attack (scope.hpp).
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace autolock::reference {

struct OptStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t constants_folded = 0;
  std::size_t buffers_collapsed = 0;
  std::size_t dead_removed = 0;
};

/// Returns an optimized, functionally-equivalent copy of `input`:
///  - constant folding (gates with constant fanins simplify or disappear),
///  - identity rules (AND(x) -> x, XOR(x, 0) -> x, NOT(NOT(x)) -> x, MUX
///    with constant select -> selected input, MUX with equal data -> data,
///    MUX(s, 0, 1) -> s),
///  - buffer collapsing,
///  - dead-node elimination (inputs are always preserved).
/// Output names of ports are preserved; internal node names may change.
netlist::Netlist optimize(const netlist::Netlist& input,
                          OptStats* stats = nullptr);

/// optimize() with key input `bit` pinned to `value`: the key input is
/// kept in the interface, but its uses see the constant. Throws
/// std::invalid_argument when `bit` is out of range.
netlist::Netlist optimize_with_key_bit(const netlist::Netlist& input,
                                       std::size_t bit, bool value,
                                       OptStats* stats = nullptr);

}  // namespace autolock::reference
