// Independent in-memory `.bench` parser: the whole text resident, one
// std::string per pending name, std::unordered_map lookups. It shares no
// code with the production reader (src/netlist/bench_stream.cpp) beyond the
// gate-type and key-name tables, so tests/test_bench_stream.cpp can pin the
// production reader's netlists, NameIds and diagnostics against it.
#pragma once

#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace autolock::reference {

/// Same grammar, result and "bench parse error at line N: ..." diagnostics
/// as bench::parse().
netlist::Netlist parse_bench(std::string_view text,
                             std::string circuit_name = "bench");

}  // namespace autolock::reference
