// Streaming `.bench` reader/writer.
//
// There is one reader. It scans lines in place (string_views into the
// caller's text or a fixed-size chunk buffer; names copied once into a
// flat arena keyed by a local interner), then builds the Netlist from flat
// per-gate records (POD, one u32 per operand). bench_io::parse() feeds it
// a whole text; stream_parse() feeds it chunk by chunk, so peak transient
// state is the chunk buffer plus those records, never the whole file.
// Either way, the same bytes give:
//
//   - identical structure AND identical NameIds: names are interned inputs
//     first (declaration order), then gates in dependency-DFS
//     materialization order, through one NameTable::intern_batch call;
//   - identical diagnostics: "bench parse error at line N: ...", scan
//     errors (first offending line) before build errors.
//
// The writer emits into a std::ostream as it goes (bench_io::write() is
// implemented on top of it), so a million-gate netlist serializes without
// building the full text in memory. Both are pinned against an independent
// in-memory parser (tests/reference/) by tests/test_bench_stream.cpp.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace autolock::netlist::bench {

/// Default chunk size for the streaming reader.
inline constexpr std::size_t kStreamChunkBytes = std::size_t{1} << 20;

/// Parses BENCH text from a stream in `chunk_bytes`-sized reads. Identical
/// result (structure, NameIds, node order) and identical error messages to
/// bench_io::parse() over the same bytes. A line longer than the chunk size
/// is handled by growing the carry buffer, not an error; a read error
/// throws std::runtime_error.
Netlist stream_parse(std::istream& in, std::string circuit_name = "bench",
                     std::size_t chunk_bytes = kStreamChunkBytes);

/// Opens and stream-parses a .bench file (circuit name derived from the
/// path exactly like bench_io::load_file). Throws std::runtime_error if the
/// file cannot be opened or read (e.g. `path` is a directory).
Netlist stream_load_file(const std::string& path,
                         std::size_t chunk_bytes = kStreamChunkBytes);

/// Serializes in BENCH syntax directly into `out` — the exact byte sequence
/// bench_io::write() returns, without materializing it.
void stream_write(const Netlist& netlist, std::ostream& out);

/// Streams the netlist into a file (throws on I/O failure).
void stream_save_file(const Netlist& netlist, const std::string& path);

}  // namespace autolock::netlist::bench
