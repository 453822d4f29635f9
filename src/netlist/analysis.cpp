#include "netlist/analysis.hpp"

#include <algorithm>

namespace autolock::netlist {

void node_levels_into(const Netlist& netlist, std::vector<std::size_t>& out) {
  out.assign(netlist.size(), 0);
  for (NodeId v : netlist.topological_order()) {
    const Node& node = netlist.node(v);
    std::size_t best = 0;
    for (NodeId fanin : node.fanins) best = std::max(best, out[fanin] + 1);
    out[v] = node.fanins.empty() ? 0 : best;
  }
}

}  // namespace autolock::netlist
