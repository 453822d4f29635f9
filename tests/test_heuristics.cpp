#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "eval/pipeline.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"

namespace autolock::ga {
namespace {

using netlist::Netlist;

/// Cheap synthetic fitness (same as test_ga): fraction of key bits set.
Evaluation count_ones(const lock::LockedDesign& design) {
  Evaluation eval;
  double ones = 0.0;
  for (const bool bit : design.key) ones += bit ? 1.0 : 0.0;
  eval.fitness = ones / static_cast<double>(design.key.size());
  eval.attack_accuracy = 1.0 - eval.fitness;
  return eval;
}

/// Heuristics budget proposals, so their pipelines run with the cache off.
eval::EvalPipelineConfig count_ones_config(std::uint64_t seed) {
  eval::EvalPipelineConfig config;
  config.fitness_override = count_ones;
  config.seed = seed;
  config.cache = false;
  return config;
}

TEST(RandomSearch, RespectsBudgetAndTrajectoryMonotone) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  RandomSearchConfig config;
  config.evaluations = 30;
  config.seed = 3;
  eval::EvalPipeline pipeline(original, count_ones_config(config.seed));
  const HeuristicResult result =
      random_search(pipeline, {.mux_sites = 12}, config);
  EXPECT_EQ(result.evaluations, 30u);
  EXPECT_EQ(result.trajectory.size(), 30u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1]);
  }
  EXPECT_EQ(result.best.genes.size(), 12u);
}

TEST(HillClimb, ImprovesOnSyntheticObjective) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 2);
  HillClimbConfig config;
  config.evaluations = 80;
  config.seed = 5;
  eval::EvalPipeline pipeline(original, count_ones_config(config.seed));
  const HeuristicResult result =
      hill_climb(pipeline, {.mux_sites = 12}, config);
  EXPECT_EQ(result.evaluations, 80u);
  // Key-bit flipping is a perfect hill-climbing landscape: expect near-max.
  EXPECT_GT(result.best.eval.fitness, 0.8);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1]);
  }
}

TEST(HillClimb, RestartsDoNotLoseBest) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  HillClimbConfig config;
  config.evaluations = 60;
  config.restart_after = 5;  // frequent restarts
  config.seed = 7;
  eval::EvalPipeline pipeline(original, count_ones_config(config.seed));
  const HeuristicResult result =
      hill_climb(pipeline, {.mux_sites = 10}, config);
  EXPECT_DOUBLE_EQ(result.trajectory.back(), result.best.eval.fitness);
}

TEST(SimulatedAnnealing, ImprovesOnSyntheticObjective) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 4);
  AnnealingConfig config;
  config.evaluations = 80;
  config.seed = 9;
  eval::EvalPipeline pipeline(original, count_ones_config(config.seed));
  const HeuristicResult result =
      simulated_annealing(pipeline, {.mux_sites = 12}, config);
  EXPECT_EQ(result.evaluations, 80u);
  EXPECT_GT(result.best.eval.fitness, result.trajectory.front());
}

TEST(SimulatedAnnealing, DeterministicPerSeed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  AnnealingConfig config;
  config.evaluations = 40;
  config.seed = 11;
  eval::EvalPipeline pipeline_a(original, count_ones_config(config.seed));
  eval::EvalPipeline pipeline_b(original, count_ones_config(config.seed));
  const auto a = simulated_annealing(pipeline_a, {.mux_sites = 8}, config);
  const auto b = simulated_annealing(pipeline_b, {.mux_sites = 8}, config);
  EXPECT_EQ(a.best.eval.fitness, b.best.eval.fitness);
  EXPECT_EQ(a.trajectory, b.trajectory);
}

TEST(Heuristics, BestGenotypesDecodeAndVerify) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 6);
  RandomSearchConfig rs_config;
  rs_config.evaluations = 10;
  eval::EvalPipeline pipeline(original, count_ones_config(rs_config.seed));
  const auto rs = random_search(pipeline, {.mux_sites = 8}, rs_config);
  const lock::SiteContext context(original);
  util::Rng rng(1);
  const auto design =
      lock::apply_genotype(original, context, rs.best.genes, rng);
  EXPECT_TRUE(lock::verify_unlocks(design, original));
}

TEST(Heuristics, HillClimbBeatsRandomOnLocalStructure) {
  // With a smooth objective and a tight budget, the local searcher should
  // (weakly) dominate blind sampling.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  RandomSearchConfig rs_config;
  rs_config.evaluations = 50;
  rs_config.seed = 13;
  HillClimbConfig hc_config;
  hc_config.evaluations = 50;
  hc_config.seed = 13;
  eval::EvalPipeline rs_pipeline(original, count_ones_config(rs_config.seed));
  eval::EvalPipeline hc_pipeline(original, count_ones_config(hc_config.seed));
  const auto rs = random_search(rs_pipeline, {.mux_sites = 16}, rs_config);
  const auto hc = hill_climb(hc_pipeline, {.mux_sites = 16}, hc_config);
  EXPECT_GE(hc.best.eval.fitness + 0.1, rs.best.eval.fitness);
}

// ---- pinned trajectories ---------------------------------------------------
//
// Frozen references (c432 profile seed 61, 10 MUX sites, structural+scope,
// cache off, 24 evaluations, seed 61), recorded before the optimizers lost
// their FitnessFn and key_bits entry points. Exact-value mismatches here
// mean decode, an attack, a gene operator, the repair RNG stream or a
// heuristic's own draw order changed.

eval::EvalPipelineConfig attack_mix() {
  eval::EvalPipelineConfig config;
  config.attacks = {"structural", "scope"};
  config.cache = false;
  return config;
}

/// Run-length expansion of a best-so-far trajectory: {value, repeats}...
std::vector<double> steps(
    std::initializer_list<std::pair<double, std::size_t>> runs) {
  std::vector<double> out;
  for (const auto& [value, repeats] : runs) {
    out.insert(out.end(), repeats, value);
  }
  return out;
}

Netlist pinned_circuit() {
  return netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 61);
}

TEST(PinnedHeuristics, RandomSearch) {
  const Netlist original = pinned_circuit();
  eval::EvalPipeline pipeline(original, attack_mix());
  RandomSearchConfig config;
  config.evaluations = 24;
  config.seed = 61;
  const auto result = random_search(pipeline, {.mux_sites = 10}, config);

  EXPECT_EQ(result.evaluations, 24u);
  EXPECT_EQ(pipeline.evaluations(), 24u);
  EXPECT_EQ(result.best.eval.fitness, 0.59999999999999998);
  EXPECT_EQ(result.best.eval.attack_accuracy, 0.40000000000000002);
  EXPECT_EQ(result.trajectory, steps({{0.44999999999999996, 1},
                                      {0.5, 1},
                                      {0.59999999999999998, 22}}));
  const std::vector<lock::LockSite> expected_best = {
      {72, 145, 82, 151, false},  {155, 58, 159, 68, true},
      {186, 190, 193, 194, true}, {46, 67, 190, 160, true},
      {168, 125, 169, 136, false}, {106, 134, 109, 186, true},
      {24, 50, 161, 54, true},    {67, 51, 127, 60, true},
      {41, 54, 176, 58, false},   {8, 85, 97, 133, false}};
  EXPECT_EQ(result.best.genes, expected_best);
}

TEST(PinnedHeuristics, HillClimbWithRestarts) {
  const Netlist original = pinned_circuit();
  eval::EvalPipeline pipeline(original, attack_mix());
  HillClimbConfig config;
  config.evaluations = 24;
  config.restart_after = 4;
  config.seed = 61;
  const auto result = hill_climb(pipeline, {.mux_sites = 10}, config);

  EXPECT_EQ(result.evaluations, 24u);
  EXPECT_EQ(pipeline.evaluations(), 24u);
  EXPECT_EQ(result.best.eval.fitness, 0.59999999999999998);
  EXPECT_EQ(result.best.eval.attack_accuracy, 0.40000000000000002);
  EXPECT_EQ(result.trajectory,
            steps({{0.5, 3}, {0.59999999999999998, 21}}));
  const std::vector<lock::LockSite> expected_best = {
      {120, 37, 145, 124, true}, {122, 103, 125, 111, true},
      {67, 184, 127, 190, true}, {82, 86, 165, 87, false},
      {32, 184, 37, 194, true},  {47, 124, 52, 128, true},
      {5, 48, 152, 58, true},    {100, 162, 109, 170, true},
      {71, 104, 175, 130, true}, {163, 51, 178, 55, false}};
  EXPECT_EQ(result.best.genes, expected_best);
}

TEST(PinnedHeuristics, SimulatedAnnealing) {
  const Netlist original = pinned_circuit();
  eval::EvalPipeline pipeline(original, attack_mix());
  AnnealingConfig config;
  config.evaluations = 24;
  config.seed = 61;
  const auto result = simulated_annealing(pipeline, {.mux_sites = 10}, config);

  EXPECT_EQ(result.evaluations, 24u);
  EXPECT_EQ(pipeline.evaluations(), 24u);
  EXPECT_EQ(result.best.eval.fitness, 0.59999999999999998);
  EXPECT_EQ(result.best.eval.attack_accuracy, 0.40000000000000002);
  EXPECT_EQ(result.trajectory, steps({{0.44999999999999996, 10},
                                      {0.5, 1},
                                      {0.55000000000000004, 10},
                                      {0.59999999999999998, 3}}));
  const std::vector<lock::LockSite> expected_best = {
      {95, 104, 140, 130, true},  {5, 159, 152, 167, true},
      {126, 52, 131, 154, false}, {147, 134, 149, 186, true},
      {164, 32, 165, 37, true},   {157, 65, 163, 67, false},
      {168, 176, 169, 185, true}, {71, 149, 175, 188, true},
      {54, 120, 195, 126, false}, {73, 97, 162, 100, false}};
  EXPECT_EQ(result.best.genes, expected_best);
}

}  // namespace
}  // namespace autolock::ga
