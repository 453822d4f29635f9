#include "reference/decode.hpp"

namespace autolock::reference {

using netlist::Netlist;
using netlist::NodeId;

bool applicable_to_working_dfs(const Netlist& working,
                               const lock::LockSite& site,
                               lock::ReachScratch& scratch) {
  // True iff `target` is in the transitive fanin of `from`: a from-scratch
  // backward DFS over the working netlist's per-gate fanin vectors,
  // unbounded by any rank structure.
  const auto depends_on = [&](NodeId from, NodeId target) {
    if (from == target) return true;
    scratch.visited.begin_epoch(working.size());
    scratch.stack.clear();
    scratch.stack.push_back(from);
    scratch.visited.mark(from);
    while (!scratch.stack.empty()) {
      const NodeId v = scratch.stack.back();
      scratch.stack.pop_back();
      for (NodeId fanin : working.node(v).fanins) {
        if (fanin == target) return true;
        if (scratch.visited.try_mark(fanin)) scratch.stack.push_back(fanin);
      }
    }
    return false;
  };
  const auto has_fanin = [&](NodeId gate, NodeId fanin) {
    for (NodeId f : working.node(gate).fanins) {
      if (f == fanin) return true;
    }
    return false;
  };
  if (!has_fanin(site.g_i, site.f_i)) return false;
  if (!has_fanin(site.g_j, site.f_j)) return false;
  // Cycle check on the working graph: new edges f_j -> g_i and f_i -> g_j.
  if (depends_on(site.f_j, site.g_i)) return false;
  if (depends_on(site.f_i, site.g_j)) return false;
  return true;
}

}  // namespace autolock::reference
