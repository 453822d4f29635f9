// SAT-based equivalence checking of netlists under fixed keys.
//
// check_equivalent does not encode whole copies: it folds the keys into
// one structurally hashed miter (sat/aig.hpp) and hands the solver only
// the cone of the outputs that did not merge.
#pragma once

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"

namespace autolock::sat {

/// Proves or refutes equivalence of two netlists under fixed keys.
/// Interfaces (primary input count / output count) must match.
/// Returns true iff equivalent; every verdict is a proof.
///
/// Both netlists go into one sat::Aig over shared primary inputs, with the
/// keys as constants, so every key gate folds away. The miter is the OR
/// of the output pairs' XORs, built in the same graph: pairs that hash to
/// one node drop out of it, and `x` vs `~x` (or two different constants)
/// folds it to true. A miter that folds to a constant is the verdict;
/// otherwise one solve over its cone decides.
bool check_equivalent(const netlist::Netlist& a, const netlist::Key& a_key,
                      const netlist::Netlist& b, const netlist::Key& b_key);

/// Convenience: locked netlist vs. its original under the correct key.
bool check_unlocks(const netlist::Netlist& locked, const netlist::Key& key,
                   const netlist::Netlist& original);

}  // namespace autolock::sat
