// The full-synthesis oracle (tests/reference/opt.hpp): each rewrite rule,
// functional equivalence, and the SCOPE signal of a pinned key bit.
#include "reference/opt.hpp"

#include <gtest/gtest.h>

#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "locking/rll.hpp"
#include "sat/cnf.hpp"

namespace autolock::netlist {
namespace {

using reference::optimize;
using reference::optimize_with_key_bit;
using reference::OptStats;

TEST(Opt, ConstantFoldingCollapsesToConstant) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto zero = n.add_const(false, "z");
  const auto g = n.add_gate(GateType::kAnd, {a, zero}, "g");  // == 0
  n.mark_output(g, "y");
  OptStats stats;
  const Netlist opt = optimize(n, &stats);
  EXPECT_EQ(opt.stats().gates, 0u);
  const Simulator sim(opt);
  EXPECT_FALSE(sim.run_single({false}, {})[0]);
  EXPECT_FALSE(sim.run_single({true}, {})[0]);
  EXPECT_GT(stats.constants_folded, 0u);
}

TEST(Opt, IdentityRules) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto one = n.add_const(true, "one");
  const auto zero = n.add_const(false, "zero");
  const auto and1 = n.add_gate(GateType::kAnd, {a, one}, "and1");   // = a
  const auto or0 = n.add_gate(GateType::kOr, {and1, zero}, "or0");  // = a
  const auto x0 = n.add_gate(GateType::kXor, {or0, zero}, "x0");    // = a
  n.mark_output(x0, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.stats().gates, 0u);  // everything collapses onto input a
  const Simulator sim(opt);
  EXPECT_TRUE(sim.run_single({true}, {})[0]);
  EXPECT_FALSE(sim.run_single({false}, {})[0]);
}

TEST(Opt, XorWithOneBecomesInverter) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto one = n.add_const(true, "one");
  const auto g = n.add_gate(GateType::kXor, {a, one}, "g");
  n.mark_output(g, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.stats().gates, 1u);  // a single NOT
  const Simulator sim(opt);
  EXPECT_FALSE(sim.run_single({true}, {})[0]);
}

TEST(Opt, DoubleInverterCollapses) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto inv1 = n.add_gate(GateType::kNot, {a}, "inv1");
  const auto inv2 = n.add_gate(GateType::kNot, {inv1}, "inv2");
  n.mark_output(inv2, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.stats().gates, 0u);
}

TEST(Opt, MuxConstantSelect) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto one = n.add_const(true, "one");
  const auto m = n.add_gate(GateType::kMux, {one, a, b}, "m");  // = b
  n.mark_output(m, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.stats().gates, 0u);
  const Simulator sim(opt);
  EXPECT_TRUE(sim.run_single({false, true}, {})[0]);
  EXPECT_FALSE(sim.run_single({true, false}, {})[0]);
}

TEST(Opt, MuxEqualDataCollapses) {
  Netlist n;
  const auto s = n.add_input("s");
  const auto a = n.add_input("a");
  const auto m = n.add_gate(GateType::kMux, {s, a, a}, "m");  // = a
  n.mark_output(m, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.stats().gates, 0u);
}

TEST(Opt, MuxZeroOneIsSelect) {
  Netlist n;
  const auto s = n.add_input("s");
  const auto zero = n.add_const(false, "z");
  const auto one = n.add_const(true, "o");
  const auto m = n.add_gate(GateType::kMux, {s, zero, one}, "m");  // = s
  n.mark_output(m, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.stats().gates, 0u);
  const Simulator sim(opt);
  EXPECT_TRUE(sim.run_single({true}, {})[0]);
}

TEST(Opt, DuplicateFaninsDeduplicated) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto g = n.add_gate(GateType::kAnd, {a, a}, "g");  // = a
  n.mark_output(g, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.stats().gates, 0u);
}

TEST(Opt, BuffersCollapsed) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b1 = n.add_gate(GateType::kBuf, {a}, "b1");
  const auto b2 = n.add_gate(GateType::kBuf, {b1}, "b2");
  const auto g = n.add_gate(GateType::kNot, {b2}, "g");
  n.mark_output(g, "y");
  OptStats stats;
  const Netlist opt = optimize(n, &stats);
  EXPECT_EQ(opt.stats().gates, 1u);
  EXPECT_GE(stats.buffers_collapsed, 2u);
}

TEST(Opt, PreservesInterface) {
  const Netlist original = gen::make_profile(gen::ProfileId::kC432, 3);
  const Netlist opt = optimize(original);
  EXPECT_EQ(opt.primary_inputs().size(), original.primary_inputs().size());
  EXPECT_EQ(opt.outputs().size(), original.outputs().size());
  for (std::size_t i = 0; i < opt.outputs().size(); ++i) {
    EXPECT_EQ(opt.outputs()[i].name, original.outputs()[i].name);
  }
}

class OptEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptEquivalenceSweep, OptimizedCircuitIsEquivalent) {
  gen::RandomCircuitConfig config;
  config.primary_inputs = 10;
  config.outputs = 4;
  config.gates = 80;
  const Netlist original = gen::make_random(config, GetParam());
  const Netlist opt = optimize(original);
  EXPECT_LE(opt.stats().gates, original.stats().gates);
  EXPECT_TRUE(sat::check_equivalent(original, {}, opt, {}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptEquivalenceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Opt, PinnedKeyBitMatchesSimulation) {
  const Netlist original = gen::make_profile(gen::ProfileId::kC432, 5);
  const auto design = lock::rll_lock(original, 8, 5);
  // Pin key bit 3 to its correct value: result must be equivalent to the
  // locked netlist evaluated with that bit fixed.
  const bool correct = design.key[3];
  const Netlist pinned =
      optimize_with_key_bit(design.netlist, 3, correct);
  // pinned still has all 8 key inputs in its interface.
  EXPECT_EQ(pinned.key_inputs().size(), 8u);
  const Simulator sim_pinned(pinned);
  const Simulator sim_locked(design.netlist);
  util::Rng rng(5);
  EXPECT_TRUE(Simulator::equivalent_on_random_vectors(
      sim_pinned, design.key, sim_locked, design.key, 1024, rng));
}

TEST(Opt, PinnedKeyBitOutOfRangeThrows) {
  const Netlist original = gen::make_profile(gen::ProfileId::kC432, 7);
  const auto design = lock::rll_lock(original, 4, 7);
  EXPECT_THROW(optimize_with_key_bit(design.netlist, 4, false),
               std::invalid_argument);
}

TEST(Opt, CorrectKeyPinSimplifiesMoreThanWrongPin) {
  // The SCOPE signal: pinning an RLL key bit correctly removes the key
  // gate; pinning it wrong leaves an inverter.
  const Netlist original = gen::make_profile(gen::ProfileId::kC432, 9);
  const auto design = lock::rll_lock(original, 6, 9);
  std::size_t wins = 0;
  std::size_t losses = 0;
  for (std::size_t bit = 0; bit < design.key.size(); ++bit) {
    const auto right =
        optimize_with_key_bit(design.netlist, bit, design.key[bit]);
    const auto wrong =
        optimize_with_key_bit(design.netlist, bit, !design.key[bit]);
    if (right.stats().gates < wrong.stats().gates) ++wins;
    if (right.stats().gates > wrong.stats().gates) ++losses;
  }
  // The signal is statistical, not per-bit: the wrong pin's leftover
  // inverter can occasionally merge with a downstream NOT and win by one
  // gate. The correct pin must still dominate clearly.
  EXPECT_GT(wins, losses + design.key.size() / 3);
}

}  // namespace
}  // namespace autolock::netlist
