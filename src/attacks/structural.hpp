// Structural link predictor — a fast, hand-featured surrogate for MuxLink.
//
// Logistic regression over classic link-prediction features (common
// neighbours, Jaccard, Adamic-Adar, degrees, preferential attachment, gate
// type compatibility). Roughly two orders of magnitude cheaper than the GNN,
// which makes it useful as (a) an inner-loop fitness proxy for large GA runs
// and (b) an independent second attack vector for multi-objective search
// (the paper's research-plan item 3).
//
// Only the model is its own: the training-link sampler and the per-key-bit
// decision are MuxLink's (attacks/link_training.hpp), so it emits the same
// MuxLinkResult, scored by MuxLinkAttack::score. The learner's knobs (40
// epochs of SGD at rate 0.1, L2 1e-4, at most 4000 positive links) are
// constants in structural.cpp; only the seed is an argument.
#pragma once

#include <cstdint>

#include "attacks/attack_graph.hpp"
#include "attacks/muxlink.hpp"
#include "netlist/netlist.hpp"

namespace autolock::attack {

class StructuralLinkPredictor {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x57A7ULL;

  explicit StructuralLinkPredictor(std::uint64_t seed = kDefaultSeed);

  MuxLinkResult attack(const netlist::Netlist& locked) const;

  /// Scratch-reusing variant for evaluation loops; bit-identical results.
  MuxLinkResult attack(const netlist::Netlist& locked,
                       AttackScratch& scratch) const;

  MuxLinkScore run(const lock::LockedDesign& design) const {
    return MuxLinkAttack::score(attack(design.netlist), design.key);
  }

  MuxLinkScore run(const lock::LockedDesign& design,
                   AttackScratch& scratch) const {
    return MuxLinkAttack::score(attack(design.netlist, scratch), design.key);
  }

  /// Number of features per candidate pair (exposed for tests).
  static constexpr std::size_t kPairFeatureDim = 10;

 private:
  std::uint64_t seed_;
};

}  // namespace autolock::attack
