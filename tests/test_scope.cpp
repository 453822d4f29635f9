#include "attacks/scope.hpp"

#include <gtest/gtest.h>

#include <string>

#include "attacks/attack_scratch.hpp"
#include "campaign/campaign.hpp"
#include "eval/pipeline.hpp"
#include "locking/antisat.hpp"
#include "locking/rll.hpp"
#include "netlist/generator.hpp"
#include "netlist/opt.hpp"
#include "reference/opt.hpp"
#include "util/rng.hpp"

namespace autolock::attack {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

// ---- SCOPE areas vs full synthesis ------------------------------------------
//
// Decisions only compare the two areas of a bit, so an area error that hits
// both hypotheses alike would hide behind an equal decision. These tests
// require every area to equal the gate count of full synthesis.

/// Every (bit, value) area of `locked`, through the attack and straight
/// from PinnedAreas (twice, the second sweep in reverse, so a query that
/// leaks state into the next one shows), equals full synthesis.
void expect_areas_match_synthesis(const Netlist& locked,
                                  AttackScratch& scratch) {
  const auto keys = locked.key_inputs();
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t bit = 0; bit < keys.size(); ++bit) {
    expected.emplace_back(
        reference::optimize_with_key_bit(locked, bit, false).gate_count(),
        reference::optimize_with_key_bit(locked, bit, true).gate_count());
  }
  EXPECT_EQ(ScopeAttack().attack(locked, scratch).areas, expected);

  netlist::OptScratch opt;
  netlist::PinnedAreas areas(locked, opt);
  EXPECT_EQ(areas.base_gate_count(), reference::optimize(locked).gate_count());
  for (std::size_t i = 0; i < 2 * keys.size(); ++i) {
    const std::size_t bit = i < keys.size() ? i : 2 * keys.size() - 1 - i;
    EXPECT_EQ(areas.gate_count_with(keys[bit], false), expected[bit].first)
        << "bit " << bit << " value 0, sweep " << i / keys.size();
    EXPECT_EQ(areas.gate_count_with(keys[bit], true), expected[bit].second)
        << "bit " << bit << " value 1, sweep " << i / keys.size();
  }
}

void expect_areas_match_synthesis(const Netlist& locked) {
  AttackScratch scratch;
  expect_areas_match_synthesis(locked, scratch);
}

TEST(ScopeAreas, CampaignSchemeLocksOnIscasMatchFullSynthesis) {
  AttackScratch scratch;  // shared across designs: reuse
  for (const auto profile :
       {netlist::gen::ProfileId::kC432, netlist::gen::ProfileId::kC880,
        netlist::gen::ProfileId::kC1355}) {
    const Netlist original = netlist::gen::make_profile(profile);
    const lock::SiteContext context(original);
    for (const campaign::SchemeAxis& scheme : campaign::default_schemes()) {
      util::Rng rng(0x5C0E ^ std::hash<std::string>{}(scheme.name) ^
                    static_cast<std::uint64_t>(profile));
      for (int trial = 0; trial < 2; ++trial) {
        SCOPED_TRACE(original.name() + " " + scheme.name + " trial " +
                     std::to_string(trial));
        const lock::Genotype genes =
            lock::random_genotype(context, scheme.spec, rng);
        util::Rng repair = rng.fork();
        const lock::LockedDesign design =
            lock::apply_genotype(original, context, genes, repair);
        expect_areas_match_synthesis(design.netlist, scratch);
      }
    }
  }
}

TEST(ScopeAreas, PipelineDecodedRandomGenotypesMatchFullSynthesis) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 4);
  eval::EvalPipelineConfig config;
  config.attacks = {"scope"};
  const eval::EvalPipeline pipeline(original, config);
  const lock::GenotypeSpec spec{.mux_sites = 12, .rll_gates = 6,
                                .antisat_width = 3};
  util::Rng rng(0xDEC0);
  AttackScratch scratch;
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const lock::Genotype genes =
        lock::random_genotype(pipeline.context(), spec, rng);
    expect_areas_match_synthesis(pipeline.decode(genes, trial).netlist,
                                 scratch);
  }
}

/// A hand-built netlist: inputs a, b, c, keys k0.., gates added in order.
struct Sketch {
  Netlist net{"sketch"};
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId c = net.add_input("c");
  NodeId key(int i) {
    return net.add_input("keyinput" + std::to_string(i), true);
  }
  NodeId gate(GateType type, std::vector<NodeId> fanins) {
    return net.add_gate(type, std::move(fanins));
  }
};

TEST(ScopeAreas, DoubleInverterCollapsesThroughReemittedInverter) {
  // n1 = NOT(AND(a, k)) is re-emitted as NOT(a) when k = 1, so NOT(n1)
  // must now fold to a (not to the dead AND), directly and through a BUF.
  Sketch s;
  const NodeId k = s.key(0);
  const NodeId n1 = s.gate(GateType::kNot, {s.gate(GateType::kAnd, {s.a, k})});
  s.net.mark_output(s.gate(GateType::kNot, {n1}), "y0");
  const NodeId through_buf =
      s.gate(GateType::kNot, {s.gate(GateType::kBuf, {n1})});
  s.net.mark_output(s.gate(GateType::kOr, {through_buf, s.b}), "y1");
  // The inverse: NAND(b, k) turns into NOT(b), so NOT over it folds to b.
  const NodeId nand = s.gate(GateType::kNand, {s.b, k});
  s.net.mark_output(s.gate(GateType::kNot, {nand}), "y2");
  expect_areas_match_synthesis(s.net);
}

TEST(ScopeAreas, FoldCreatesSelfAnd) {
  // OR(a, k) with k = 0 is a, so AND(a, OR(a, k)) dedups to a.
  Sketch s;
  const NodeId k = s.key(0);
  const NodeId g =
      s.gate(GateType::kAnd, {s.a, s.gate(GateType::kOr, {s.a, k})});
  s.net.mark_output(s.gate(GateType::kXor, {g, s.b}), "y");
  expect_areas_match_synthesis(s.net);
}

TEST(ScopeAreas, FoldMakesMuxDataEqual) {
  // AND(a, k) with k = 1 is a, so MUX(b, a, AND(a, k)) is a.
  Sketch s;
  const NodeId k = s.key(0);
  const NodeId m =
      s.gate(GateType::kMux, {s.b, s.a, s.gate(GateType::kAnd, {s.a, k})});
  s.net.mark_output(s.gate(GateType::kNand, {m, s.c}), "y");
  expect_areas_match_synthesis(s.net);
}

TEST(ScopeAreas, KeyReachesOutputDirectly) {
  Sketch s;
  const NodeId k0 = s.key(0);
  const NodeId k1 = s.key(1);
  s.net.mark_output(k0, "y0");
  s.net.mark_output(s.gate(GateType::kBuf, {k1}), "y1");
  s.net.mark_output(s.gate(GateType::kXnor, {k1, s.a}), "y2");
  s.net.mark_output(s.gate(GateType::kNot, {k0}), "y3");
  expect_areas_match_synthesis(s.net);
}

TEST(ScopeAreas, ChainedKeyMuxes) {
  Sketch s;
  const NodeId k0 = s.key(0);
  const NodeId k1 = s.key(1);
  const NodeId k2 = s.key(2);
  const NodeId x = s.gate(GateType::kAnd, {s.a, s.b});
  const NodeId y = s.gate(GateType::kOr, {s.b, s.c});
  const NodeId m0 = s.gate(GateType::kMux, {k0, x, y});
  const NodeId m1 = s.gate(GateType::kMux, {k1, m0, s.c});
  const NodeId m2 = s.gate(GateType::kMux, {k2, y, m1});
  s.net.mark_output(s.gate(GateType::kXor, {m2, s.a}), "y0");
  s.net.mark_output(m1, "y1");
  expect_areas_match_synthesis(s.net);
}

TEST(ScopeAreas, OneKeyDrivesSeveralMuxes) {
  Sketch s;
  const NodeId k = s.key(0);
  const NodeId x = s.gate(GateType::kNor, {s.a, s.b});
  const NodeId y = s.gate(GateType::kNand, {s.b, s.c});
  const NodeId m0 = s.gate(GateType::kMux, {k, x, y});
  const NodeId m1 = s.gate(GateType::kMux, {k, y, x});
  const NodeId m2 = s.gate(GateType::kMux, {k, s.a, x});
  s.net.mark_output(s.gate(GateType::kAnd, {m0, m1}), "y0");
  s.net.mark_output(s.gate(GateType::kOr, {m1, m2, s.c}), "y1");
  expect_areas_match_synthesis(s.net);
}

TEST(ScopeAreas, AntiSatBlockMatchesFullSynthesis) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 2);
  for (const bool at_output : {true, false}) {
    const auto design = lock::antisat_lock(
        original, {.width = 4, .splice_at_output = at_output}, 2);
    expect_areas_match_synthesis(design.netlist);
  }
}

TEST(ScopeAreas, RandomKeyedNetlistsMatchFullSynthesis) {
  // Small random netlists dense in inverters, buffers, MUXes, constants
  // and repeated fanins: the shapes whose folds interact.
  constexpr GateType kTypes[] = {
      GateType::kBuf, GateType::kNot,  GateType::kNot, GateType::kAnd,
      GateType::kNand, GateType::kOr,  GateType::kNor, GateType::kXor,
      GateType::kXnor, GateType::kMux, GateType::kMux};
  AttackScratch scratch;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    Sketch s;
    std::vector<NodeId> pool = {s.a, s.b, s.c, s.key(0), s.key(1), s.key(2)};
    pool.push_back(s.net.add_const(false, "zero"));
    pool.push_back(s.net.add_const(true, "one"));
    for (int g = 0; g < 30; ++g) {
      const GateType type = kTypes[rng.next_below(std::size(kTypes))];
      std::size_t arity = 3;  // kMux
      if (type == GateType::kBuf || type == GateType::kNot) {
        arity = 1;
      } else if (type != GateType::kMux) {
        arity = 2 + rng.next_below(2);
      }
      std::vector<NodeId> fanins;
      for (std::size_t i = 0; i < arity; ++i) {
        // Favour recent nodes so chains form.
        const std::size_t window = std::min<std::size_t>(pool.size(), 8);
        fanins.push_back(rng.next_below(3) == 0
                             ? pool[rng.next_below(pool.size())]
                             : pool[pool.size() - 1 - rng.next_below(window)]);
      }
      pool.push_back(s.gate(type, std::move(fanins)));
    }
    for (int o = 0; o < 4; ++o) {
      s.net.mark_output(pool[pool.size() - 1 - rng.next_below(12)],
                        "y" + std::to_string(o));
    }
    expect_areas_match_synthesis(s.net, scratch);
  }
}

// ---- attack behaviour -------------------------------------------------------

TEST(Scope, BreaksRllAlmostCompletely) {
  // The attack's raison d'être: XOR/XNOR key gates leak their bit through
  // synthesis cost.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::rll_lock(original, 16, 3);
  const ScopeAttack attacker;
  const auto score = attacker.run(design);
  EXPECT_GT(score.decided_fraction, 0.8);
  // A rare inverter-merge can flip an individual bit's area signal; the
  // attack still recovers the overwhelming majority.
  EXPECT_GT(score.accuracy_on_decided, 0.8);
  EXPECT_GT(score.expected_overall_accuracy, 0.75);
}

TEST(Scope, BlindAgainstMuxLocking) {
  // Pinning a MUX select collapses the MUX either way — symmetric cost, so
  // most bits are undecidable and overall accuracy stays near chance.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::dmux_lock(original, 16, 5);
  const ScopeAttack attacker;
  const auto score = attacker.run(design);
  EXPECT_LT(score.decided_fraction, 0.5);
  EXPECT_LT(score.expected_overall_accuracy, 0.7);
}

TEST(Scope, AreasRecorded) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const auto design = lock::rll_lock(original, 4, 7);
  const auto result = ScopeAttack().attack(design.netlist);
  ASSERT_EQ(result.areas.size(), 4u);
  for (const auto& [area0, area1] : result.areas) {
    EXPECT_GT(area0, 0u);
    EXPECT_GT(area1, 0u);
  }
}

TEST(Scope, EmptyKeyNoDecisions) {
  const Netlist original = netlist::gen::c17();
  const auto result = ScopeAttack().attack(original);
  EXPECT_TRUE(result.predicted_bits.empty());
  const auto score = ScopeAttack::score(result, {});
  EXPECT_EQ(score.key_bits, 0u);
}

TEST(Scope, ScoreArithmetic) {
  ScopeResult result;
  result.predicted_bits = {1, -1, 0, 1};
  const netlist::Key truth{true, false, false, false};
  const auto score = ScopeAttack::score(result, truth);
  // Decided: bits 0 (correct), 2 (correct), 3 (wrong) -> 2/3.
  EXPECT_NEAR(score.accuracy_on_decided, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(score.decided_fraction, 0.75);
  // Expected overall: (2 + 0.5) / 4.
  EXPECT_DOUBLE_EQ(score.expected_overall_accuracy, 2.5 / 4.0);
}

}  // namespace
}  // namespace autolock::attack
