// Structural analyses over a netlist: gate levels, which the structural
// attack reads for every candidate design.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace autolock::netlist {

/// Gate level of every node into `out` (sources at 0; level = 1 + max
/// fanin level). `out` is resized, so one buffer serves every candidate
/// design on the evaluation hot path.
void node_levels_into(const Netlist& netlist, std::vector<std::size_t>& out);

}  // namespace autolock::netlist
