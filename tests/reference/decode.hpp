// From-scratch applicability check for MUX lock sites: the verdict decode
// must reach, computed without the incremental rank structure
// (lock::applicable_to_working_ranks) that production decode uses.
#pragma once

#include "locking/mux_lock.hpp"
#include "locking/sites.hpp"
#include "netlist/netlist.hpp"

namespace autolock::reference {

/// True iff the edges `site` locks are present in `working` and the two
/// cross edges f_j -> g_i and f_i -> g_j close no cycle, answered by a
/// backward DFS over `working`'s per-gate fanin vectors. Site ids must be in
/// range for `working`; `scratch` supplies only the DFS marks and stack.
bool applicable_to_working_dfs(const netlist::Netlist& working,
                               const lock::LockSite& site,
                               lock::ReachScratch& scratch);

}  // namespace autolock::reference
