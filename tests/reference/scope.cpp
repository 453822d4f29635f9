#include "reference/scope.hpp"

#include "reference/opt.hpp"

namespace autolock::reference {

attack::ScopeResult scope_attack(const netlist::Netlist& locked) {
  attack::ScopeResult result;
  const std::size_t key_bits = locked.key_inputs().size();
  for (std::size_t bit = 0; bit < key_bits; ++bit) {
    const std::size_t area0 =
        optimize_with_key_bit(locked, bit, false).gate_count();
    const std::size_t area1 =
        optimize_with_key_bit(locked, bit, true).gate_count();
    // The correct hypothesis synthesizes smaller (its key gate vanishes);
    // equal areas leave the bit undecided.
    result.predicted_bits.push_back(area0 < area1 ? 0 : area1 < area0 ? 1 : -1);
    result.areas.emplace_back(area0, area1);
  }
  return result;
}

}  // namespace autolock::reference
