// Key-name helpers and the in-memory writer. parse() and load_file() live
// with the streaming reader in bench_stream.cpp: one scanner serves both.
#include "netlist/bench_io.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "netlist/bench_stream.hpp"

namespace autolock::netlist::bench {

int key_bit_index(std::string_view name) noexcept {
  constexpr std::string_view kPrefix = "keyinput";
  if (name.size() <= kPrefix.size()) return -1;
  if (name.substr(0, kPrefix.size()) != kPrefix) return -1;
  int value = 0;
  for (char ch : name.substr(kPrefix.size())) {
    // Digits only; accumulate with an overflow guard so "keyinput99999999999"
    // cannot wrap around into a bogus (possibly colliding) bit index.
    if (!std::isdigit(static_cast<unsigned char>(ch))) return -1;
    if (value > kMaxKeyBitIndex / 10) return -1;
    value = value * 10 + (ch - '0');
    if (value > kMaxKeyBitIndex) return -1;
  }
  return value;
}

bool is_key_input_name(std::string_view name) noexcept {
  return key_bit_index(name) >= 0;
}

std::string write(const Netlist& netlist) {
  // Single serialization implementation: the streaming writer emits the
  // exact historical byte sequence, so the in-memory variant is just it
  // captured into a string.
  std::ostringstream out;
  stream_write(netlist, out);
  return out.str();
}

void save_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write bench file: " + path);
  out << write(netlist);
  if (!out) throw std::runtime_error("I/O error writing: " + path);
}

}  // namespace autolock::netlist::bench
