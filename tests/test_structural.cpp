#include "attacks/structural.hpp"

#include <gtest/gtest.h>

#include "attacks/attack_scratch.hpp"
#include "locking/antisat.hpp"
#include "locking/rll.hpp"
#include "netlist/generator.hpp"
#include "pinned_result.hpp"

namespace autolock::attack {
namespace {

using netlist::Netlist;
using pins::expect_pinned;

TEST(Structural, ProducesDecisionForEveryBit) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::dmux_lock(original, 12, 3);
  const StructuralLinkPredictor attacker;
  const auto result = attacker.attack(design.netlist);
  ASSERT_EQ(result.predicted_bits.size(), 12u);
  for (std::size_t b = 0; b < 12; ++b) {
    EXPECT_TRUE(result.predicted_bits[b] == 0 || result.predicted_bits[b] == 1);
  }
}

TEST(Structural, EmptyOnRll) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::rll_lock(original, 8, 5);
  const StructuralLinkPredictor attacker;
  EXPECT_TRUE(attacker.attack(design.netlist).predicted_bits.empty());
}

TEST(Structural, CoinFlipScoreOnAntiSatKeyBits) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::antisat_lock(original, {}, 5);
  const StructuralLinkPredictor attacker;
  const auto score =
      MuxLinkAttack::score(attacker.attack(design.netlist), design.key);
  // Anti-SAT key gates carry no MUX hypotheses: the attack must not score
  // on them (the old forced-0 default credited every zero key bit).
  EXPECT_DOUBLE_EQ(score.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(score.attacked_fraction, 0.0);
  EXPECT_DOUBLE_EQ(score.decided_fraction, 0.0);
}

TEST(Structural, MarksCompoundMuxBitsAttacked) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 5);
  const auto design = lock::compound_lock(original, 8, {}, 5);
  const StructuralLinkPredictor attacker;
  const auto result = attacker.attack(design.netlist);
  ASSERT_EQ(result.bit_attacked.size(), 8u);  // the 8 MUX bits, no anti-SAT
  for (std::size_t b = 0; b < 8; ++b) EXPECT_EQ(result.bit_attacked[b], 1);
  const auto score = MuxLinkAttack::score(result, design.key);
  EXPECT_DOUBLE_EQ(score.attacked_fraction,
                   8.0 / static_cast<double>(design.key.size()));
}

TEST(Structural, Deterministic) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const auto design = lock::dmux_lock(original, 10, 7);
  const StructuralLinkPredictor attacker;
  EXPECT_EQ(attacker.attack(design.netlist).predicted_bits,
            attacker.attack(design.netlist).predicted_bits);
}

TEST(Structural, TrainingLossDecreases) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 9);
  const auto design = lock::dmux_lock(original, 16, 9);
  const StructuralLinkPredictor attacker;
  const auto result = attacker.attack(design.netlist);
  EXPECT_LT(result.last_epoch_loss, result.first_epoch_loss);
  EXPECT_GT(result.train_samples, 0u);
}

// Exact outputs of StructuralLinkPredictor(): every MuxLinkResult field,
// margins and losses bit for bit. A change here means the sampler, the
// features, the SGD order or the decision changed, not just the speed.
TEST(Structural, PinnedOutputs) {
  const pins::PinnedDesigns designs = pins::pinned_designs();
  const StructuralLinkPredictor attacker;
  expect_pinned(
      attacker.attack(designs.dmux.netlist),
      {"0000001010010010", "0-0000-010-1001-", "1111111111111111",
       {0x1.aa11ccf7b1812p-3, 0x1.f17f28c9eb968p-12, 0x1.b38916b7daa1cp-3,
        0x1.d0435c4542169p-2, 0x1.ab6e8cc6e2bf5p-2, 0x1.5380651301104p-3,
        0x1.8f91368d95c7p-6, 0x1.b0d5cf3dfdfa4p-5, 0x1.413331e44229ap-2,
        0x1.6ab0b891f39d4p-3, 0x0p+0, 0x1.9908bf9b7badcp-3,
        0x1.69e3755e25327p-2, 0x1.487d8af9d6d0ep-1, 0x1.aec82cd948f56p-4,
        0x1.7fdf4c24a009ap-10},
       0x1.b8388be47b6b7p-2, 0x1.03a5ed2f07475p-2, 656});
  AttackScratch scratch;
  expect_pinned(
      attacker.attack(designs.compound.netlist, scratch),
      {"11011110", "-101---0", "11111111",
       {0x1.f139c597deb05p-9, 0x1.9a8bc7bc4555fp-2, 0x1.6f100f81bb8bp-2,
        0x1.649aad1b2ba19p-2, 0x1.f904e27e97bfp-6, 0x1.eca49d383814cp-9,
        0x1.dbf839c7579p-7, 0x1.a50c60bab6588p-2},
       0x1.601361edf5447p-2, 0x1.ee069baf81034p-3, 1662});
  expect_pinned(
      attacker.attack(designs.reused.netlist, scratch),
      {"0011111101", "-0--1-1---", "1111111111",
       {0x1.f021f47a83a8p-8, 0x1.e21c9ab9d0123p-2, 0x1.326f7e4259f8p-13,
        0x1.c67d930bf0f4p-7, 0x1.d542f6e0fa8fdp-2, 0x1.6e238d15c40c8p-10,
        0x1.e6d4660c88465p-2, 0x1.3824709d0c21p-7, 0x1.88fc7ed5479c2p-7,
        0x1.e5f39410906ap-6},
       0x1.a6b2bba8b1fc4p-2, 0x1.1489d1a26ee66p-2, 680});
}

TEST(Structural, MuchFasterThanGnnInSpirit) {
  // Not a benchmark — just asserts it completes on a mid-size circuit
  // quickly enough to be usable inside a GA loop (smoke bound).
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1908, 11);
  const auto design = lock::dmux_lock(original, 32, 11);
  const StructuralLinkPredictor attacker;
  const auto score = attacker.run(design);
  EXPECT_EQ(score.key_bits, 32u);
}

TEST(Structural, AboveChanceOnAverage) {
  // Per-candidate pair features carry a weak (but real) signal: the two
  // MUX candidates are nearly symmetric by construction, so individual
  // decisions hover near chance and only the average over many lockings
  // is reliably above it. (The GNN attack is the strong one; this is the
  // cheap surrogate.) Fixed circuits + varied lock seeds, 8 runs.
  double total = 0.0;
  int runs = 0;
  for (const auto profile :
       {netlist::gen::ProfileId::kC432, netlist::gen::ProfileId::kC880}) {
    const Netlist original = netlist::gen::make_profile(profile, 1);
    for (std::uint64_t lock_seed : {201, 202, 203, 204}) {
      const auto design = lock::dmux_lock(original, 24, lock_seed);
      total += StructuralLinkPredictor().run(design).accuracy;
      ++runs;
    }
  }
  EXPECT_GT(total / runs, 0.5);
}

}  // namespace
}  // namespace autolock::attack
