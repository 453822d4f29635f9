// Equivalence by two full Tseitin copies: both netlists are encoded
// gate for gate into one solver over shared primary inputs, keys are
// pinned by unit clauses, and every output pair feeds the miter. The
// production sat::check_equivalent folds the keys and hashes both copies
// into one graph first, so only unmerged outputs reach the solver.
#pragma once

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"

namespace autolock::reference {

/// True iff `a` under `a_key` and `b` under `b_key` compute the same
/// outputs on every primary-input assignment (miter UNSAT). Same contract
/// as sat::check_equivalent: false on an interface mismatch,
/// std::invalid_argument on a key-length mismatch.
bool plain_check_equivalent(const netlist::Netlist& a,
                            const netlist::Key& a_key,
                            const netlist::Netlist& b,
                            const netlist::Key& b_key);

}  // namespace autolock::reference
