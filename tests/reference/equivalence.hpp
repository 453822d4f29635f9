// Plain Tseitin encoding and equivalence by two full copies: every netlist
// node gets one solver variable and one gate's worth of clauses, with no
// folding and no sharing. plain_check_equivalent encodes both netlists
// into one solver over shared primary inputs, pins the keys by unit
// clauses and feeds every output pair to the miter. The production
// sat::check_equivalent folds the keys and hashes both copies into one
// graph (sat/aig.hpp) first, so only unmerged outputs reach the solver.
#pragma once

#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "sat/solver.hpp"

namespace autolock::reference {

/// Mapping from a netlist's nodes to solver variables after encoding.
struct Encoding {
  std::vector<sat::Var> node_var;           // indexed by NodeId
  std::vector<sat::Var> primary_input_var;  // in primary_inputs() order
  std::vector<sat::Var> key_var;            // in key_inputs() order
  std::vector<sat::Var> output_var;         // in outputs() order
};

/// Encodes the functional constraints of `netlist` into `solver`. If
/// `share_primary_inputs` is provided (same length as the netlist's
/// primary inputs), those existing variables are reused instead of fresh
/// ones; likewise `share_keys`. Throws std::invalid_argument on a length
/// mismatch.
Encoding encode_netlist(
    sat::Solver& solver, const netlist::Netlist& netlist,
    const std::optional<std::vector<sat::Var>>& share_primary_inputs =
        std::nullopt,
    const std::optional<std::vector<sat::Var>>& share_keys = std::nullopt);

/// A variable that is true iff some output of `a` and `b` differs. Both
/// encodings must share their primary inputs.
sat::Var make_miter(sat::Solver& solver, const Encoding& a, const Encoding& b);

/// True iff `a` under `a_key` and `b` under `b_key` compute the same
/// outputs on every primary-input assignment (miter UNSAT). Same contract
/// as sat::check_equivalent: false on an interface mismatch,
/// std::invalid_argument on a key-length mismatch.
bool plain_check_equivalent(const netlist::Netlist& a,
                            const netlist::Key& a_key,
                            const netlist::Netlist& b,
                            const netlist::Key& b_key);

}  // namespace autolock::reference
