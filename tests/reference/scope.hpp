// SCOPE by full synthesis: per key bit, both hypotheses are materialized
// with reference::optimize_with_key_bit (opt.hpp) and their gate counts
// compared. The production attack reads the same counts from
// netlist::PinnedAreas instead.
#pragma once

#include "attacks/scope.hpp"
#include "netlist/netlist.hpp"

namespace autolock::reference {

attack::ScopeResult scope_attack(const netlist::Netlist& locked);

}  // namespace autolock::reference
