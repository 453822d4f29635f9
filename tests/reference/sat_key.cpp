#include "reference/sat_key.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "netlist/simulator.hpp"
#include "sat/cnf.hpp"
#include "util/rng.hpp"

namespace autolock::reference {

using netlist::Key;
using netlist::Simulator;

std::optional<Key> first_unlocking_key(const netlist::Netlist& locked,
                                       const netlist::Netlist& original) {
  const std::size_t key_bits = locked.key_inputs().size();
  if (key_bits > 20) {
    throw std::invalid_argument("first_unlocking_key: more than 20 key bits");
  }
  // Candidate `index` sets bit b to bit (K-1-b) of the index, so counting
  // up walks keys in lexicographic order with bit 0 most significant.
  const auto key_of = [key_bits](std::uint64_t index) {
    Key key(key_bits);
    for (std::size_t b = 0; b < key_bits; ++b) {
      key[b] = (index >> (key_bits - 1 - b)) & 1ULL;
    }
    return key;
  };

  const Simulator locked_sim(locked);
  const Simulator oracle_sim(original);
  constexpr std::size_t kVectors = 256;
  util::Rng rng(0x5A7C0DEULL);
  netlist::SimScratch scratch;
  std::vector<std::uint64_t> in_words;
  std::vector<std::uint64_t> ref_words;
  Simulator::draw_reference_blocks(oracle_sim, Key{}, kVectors, rng, scratch,
                                   in_words, ref_words);

  const std::uint64_t candidates = std::uint64_t{1} << key_bits;
  netlist::KeyBatch batch;
  std::vector<double> errors;
  for (std::uint64_t base = 0; base < candidates; base += 64) {
    const std::uint64_t lanes = std::min<std::uint64_t>(64, candidates - base);
    batch.reset(key_bits);
    for (std::uint64_t lane = 0; lane < lanes; ++lane) {
      batch.push(key_of(base + lane));
    }
    Simulator::multi_key_error_rate(locked_sim, batch, in_words, ref_words,
                                    kVectors, scratch, errors);
    for (std::uint64_t lane = 0; lane < lanes; ++lane) {
      if (errors[lane] != 0.0) continue;  // a differing vector refutes it
      const Key key = key_of(base + lane);
      if (sat::check_unlocks(locked, key, original)) return key;
    }
  }
  return std::nullopt;
}

}  // namespace autolock::reference
