#include "netlist/types.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <tuple>
#include <vector>

namespace autolock::netlist {
namespace {

TEST(GateTypeNames, RoundTrip) {
  for (std::size_t i = 0; i < kGateTypeCount; ++i) {
    const auto type = static_cast<GateType>(i);
    const auto name = gate_type_name(type);
    const auto parsed = parse_gate_type(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, type);
  }
}

TEST(GateTypeNames, CaseInsensitiveAndAliases) {
  EXPECT_EQ(parse_gate_type("nand"), GateType::kNand);
  EXPECT_EQ(parse_gate_type("Nand"), GateType::kNand);
  EXPECT_EQ(parse_gate_type("BUFF"), GateType::kBuf);
  EXPECT_EQ(parse_gate_type("INV"), GateType::kNot);
  EXPECT_FALSE(parse_gate_type("FROB").has_value());
  EXPECT_FALSE(parse_gate_type("").has_value());
}

TEST(Arity, SourcesAndFixedGates) {
  EXPECT_TRUE(is_source(GateType::kInput));
  EXPECT_TRUE(is_source(GateType::kConst0));
  EXPECT_TRUE(is_source(GateType::kConst1));
  EXPECT_FALSE(is_source(GateType::kNand));
  EXPECT_EQ(gate_arity(GateType::kNot).min, 1u);
  EXPECT_EQ(gate_arity(GateType::kNot).max, 1u);
  EXPECT_EQ(gate_arity(GateType::kMux).min, 3u);
  EXPECT_EQ(gate_arity(GateType::kMux).max, 3u);
  EXPECT_EQ(gate_arity(GateType::kAnd).min, 2u);
  EXPECT_EQ(gate_arity(GateType::kAnd).max, 0u);  // unbounded
}

/// eval_gate_words with every fanin word all-zeros or all-ones: every lane
/// computes the same vector, so the result must be uniform too.
bool eval_uniform(GateType type, std::initializer_list<bool> bits) {
  std::vector<std::uint64_t> words;
  for (const bool bit : bits) words.push_back(bit ? ~0ULL : 0ULL);
  const std::uint64_t out = eval_gate_words(type, words.data(), words.size());
  EXPECT_TRUE(out == 0 || out == ~0ULL) << gate_type_name(type);
  return out != 0;
}

struct BinaryTruthCase {
  GateType type;
  // Expected outputs for inputs (0,0), (0,1), (1,0), (1,1).
  std::array<bool, 4> expected;
};

class BinaryGateTruth : public ::testing::TestWithParam<BinaryTruthCase> {};

TEST_P(BinaryGateTruth, MatchesTruthTable) {
  const auto& param = GetParam();
  int idx = 0;
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      const std::uint64_t words[2] = {a ? ~0ULL : 0ULL, b ? ~0ULL : 0ULL};
      const std::uint64_t out = eval_gate_words(param.type, words, 2);
      EXPECT_EQ(out, param.expected[idx] ? ~0ULL : 0ULL)
          << gate_type_name(param.type) << "(" << a << "," << b << ")";
      ++idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryGates, BinaryGateTruth,
    ::testing::Values(
        BinaryTruthCase{GateType::kAnd, {false, false, false, true}},
        BinaryTruthCase{GateType::kNand, {true, true, true, false}},
        BinaryTruthCase{GateType::kOr, {false, true, true, true}},
        BinaryTruthCase{GateType::kNor, {true, false, false, false}},
        BinaryTruthCase{GateType::kXor, {false, true, true, false}},
        BinaryTruthCase{GateType::kXnor, {true, false, false, true}}));

TEST(GateEval, UnaryGates) {
  EXPECT_EQ(eval_uniform(GateType::kNot, {false}), true);
  EXPECT_EQ(eval_uniform(GateType::kNot, {true}), false);
  EXPECT_EQ(eval_uniform(GateType::kBuf, {false}), false);
  EXPECT_EQ(eval_uniform(GateType::kBuf, {true}), true);
}

TEST(GateEval, Constants) {
  EXPECT_EQ(eval_gate_words(GateType::kConst0, nullptr, 0), 0ULL);
  EXPECT_EQ(eval_gate_words(GateType::kConst1, nullptr, 0), ~0ULL);
}

TEST(GateEval, MuxSelectsCorrectInput) {
  // fanins = {select, in0, in1}
  for (bool sel : {false, true}) {
    for (bool in0 : {false, true}) {
      for (bool in1 : {false, true}) {
        EXPECT_EQ(eval_uniform(GateType::kMux, {sel, in0, in1}),
                  sel ? in1 : in0);
      }
    }
  }
}

TEST(GateEval, TernaryAndOr) {
  EXPECT_FALSE(eval_uniform(GateType::kAnd, {true, false, true}));
  EXPECT_TRUE(eval_uniform(GateType::kAnd, {true, true, true}));
  EXPECT_TRUE(eval_uniform(GateType::kOr, {true, false, true}));
  EXPECT_FALSE(eval_uniform(GateType::kOr, {false, false, false}));
  EXPECT_TRUE(eval_uniform(GateType::kNand, {true, false, true}));
  EXPECT_FALSE(eval_uniform(GateType::kNor, {true, false, true}));
}

TEST(GateEval, TernaryXorIsParity) {
  for (int mask = 0; mask < 8; ++mask) {
    const bool a = (mask & 1) != 0, b = (mask & 2) != 0, c = (mask & 4) != 0;
    const bool parity = ((mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1)) % 2;
    EXPECT_EQ(eval_uniform(GateType::kXor, {a, b, c}), parity);
    EXPECT_EQ(eval_uniform(GateType::kXnor, {a, b, c}), !parity);
  }
}

TEST(GateEval, WordParallelismMixesVectors) {
  // bit 0 and bit 1 carry different vectors.
  const std::uint64_t words[2] = {0b01ULL, 0b11ULL};
  const std::uint64_t out = eval_gate_words(GateType::kAnd, words, 2);
  EXPECT_EQ(out & 1ULL, 1ULL);        // (1,1) -> 1
  EXPECT_EQ((out >> 1) & 1ULL, 0ULL); // (0,1) -> 0
}

}  // namespace
}  // namespace autolock::netlist
