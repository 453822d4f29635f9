// Brute-force oracle for the SAT attack's canonical key.
#pragma once

#include <optional>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"

namespace autolock::reference {

/// The first key, in lexicographic order with bit 0 most significant, under
/// which `locked` is functionally equivalent to `original`; nullopt if none
/// is. Candidates are screened 64 at a time by multi-key simulation on
/// random vectors, and each survivor is proven with sat::check_unlocks.
/// Enumerates up to 2^K keys, so K is capped at 20.
std::optional<netlist::Key> first_unlocking_key(
    const netlist::Netlist& locked, const netlist::Netlist& original);

}  // namespace autolock::reference
