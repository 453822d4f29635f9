// Exact-output pins for the link-prediction learners (MuxLink's GNN and the
// structural surrogate). Every MuxLinkResult field is compared exactly:
// margins and losses as doubles written in hex-float, so any reordering of
// an RNG draw or a floating-point operation in training or inference shows.
// On a mismatch the actual result is printed in PinnedResult syntax.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "attacks/muxlink.hpp"
#include "locking/antisat.hpp"
#include "netlist/generator.hpp"

namespace autolock::attack::pins {

struct PinnedResult {
  /// One character per key bit: '0'/'1' (thresholded: '-' = undecided).
  std::string predicted_bits;
  std::string thresholded_bits;
  std::string bit_attacked;
  std::vector<double> margins;
  double first_epoch_loss = 0.0;
  double last_epoch_loss = 0.0;
  std::size_t train_samples = 0;
};

/// The pinned designs. `reused` is attacked through an AttackScratch that
/// has just served `compound` (a larger design), so stale scratch state
/// would show in its pin.
struct PinnedDesigns {
  lock::LockedDesign dmux;      // c432, K=16 D-MUX
  lock::LockedDesign compound;  // c880, 8 MUX bits + Anti-SAT
  lock::LockedDesign reused;    // c432, K=10 D-MUX
};

inline PinnedDesigns pinned_designs() {
  using netlist::gen::ProfileId;
  const netlist::Netlist c432 =
      netlist::gen::make_profile(ProfileId::kC432, 21);
  const netlist::Netlist c880 =
      netlist::gen::make_profile(ProfileId::kC880, 22);
  return {lock::dmux_lock(c432, 16, 21), lock::compound_lock(c880, 8, {}, 22),
          lock::dmux_lock(c432, 10, 23)};
}

inline std::string bit_string(const std::vector<int>& bits) {
  std::string out;
  for (const int bit : bits) {
    out += bit < 0 ? '-' : static_cast<char>('0' + bit);
  }
  return out;
}

inline std::string mask_string(const std::vector<char>& mask) {
  std::string out;
  for (const char bit : mask) out += bit != 0 ? '1' : '0';
  return out;
}

inline std::string hex_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// The result as a PinnedResult initializer, for re-recording a pin.
inline std::string pin_literal(const MuxLinkResult& result) {
  std::string out = "{\"" + bit_string(result.predicted_bits) + "\",\n \"" +
                    bit_string(result.thresholded_bits) + "\",\n \"" +
                    mask_string(result.bit_attacked) + "\",\n {";
  for (std::size_t i = 0; i < result.margins.size(); ++i) {
    out += (i == 0 ? "" : ", ") + hex_double(result.margins[i]);
  }
  out += "},\n " + hex_double(result.first_epoch_loss) + ", " +
         hex_double(result.last_epoch_loss) + ", " +
         std::to_string(result.train_samples) + "}";
  return out;
}

inline void expect_pinned(const MuxLinkResult& result,
                          const PinnedResult& pin) {
  const bool same = bit_string(result.predicted_bits) == pin.predicted_bits &&
                    bit_string(result.thresholded_bits) ==
                        pin.thresholded_bits &&
                    mask_string(result.bit_attacked) == pin.bit_attacked &&
                    result.margins == pin.margins &&
                    result.first_epoch_loss == pin.first_epoch_loss &&
                    result.last_epoch_loss == pin.last_epoch_loss &&
                    result.train_samples == pin.train_samples;
  EXPECT_TRUE(same) << "learner output drifted; actual:\n"
                    << pin_literal(result);
}

}  // namespace autolock::attack::pins
