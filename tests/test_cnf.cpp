#include "sat/cnf.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "campaign/campaign.hpp"
#include "locking/mux_lock.hpp"
#include "locking/sites.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "reference/equivalence.hpp"
#include "sat/aig.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace autolock::sat {
namespace {

using netlist::GateType;
using netlist::Key;
using netlist::Netlist;
using netlist::NodeId;
using netlist::Simulator;

/// The single output of a one-gate netlist under the input values `bits`,
/// as some encoder computes it.
using GateEncoder =
    std::function<bool(const Netlist&, const std::vector<bool>&)>;

/// The plain Tseitin reference encoder: inputs pinned by unit clauses,
/// output read from the model.
bool reference_value(const Netlist& n, const std::vector<bool>& bits) {
  Solver solver;
  const reference::Encoding enc = reference::encode_netlist(solver, n);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    solver.add_clause(make_lit(enc.primary_input_var[i], !bits[i]));
  }
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  return solver.model_value(enc.output_var[0]);
}

/// The graph with constant input edges: the gate must fold to a constant.
bool aig_folded_value(const Netlist& n, const std::vector<bool>& bits) {
  Aig graph;
  std::vector<Aig::Edge> inputs;
  for (const bool bit : bits) inputs.push_back(Aig::constant(bit));
  const Aig::Edge out = graph.add_netlist(n, inputs, {})[0];
  EXPECT_TRUE(out == Aig::kFalse || out == Aig::kTrue) << "did not fold";
  return out == Aig::kTrue;
}

/// The graph with free input edges, pinned by unit clauses on their
/// encoded literals; the output is read through encode().
bool aig_encoded_value(const Netlist& n, const std::vector<bool>& bits) {
  Aig graph;
  std::vector<Aig::Edge> inputs(bits.size());
  for (Aig::Edge& e : inputs) e = graph.input();
  const Aig::Edge out = graph.add_netlist(n, inputs, {})[0];
  Solver solver;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Lit in = graph.encode(solver, inputs[i]);
    solver.add_clause(bits[i] ? in : lit_neg(in));
  }
  const Lit out_lit = graph.encode(solver, out);
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  return solver.model_value_lit(out_lit);
}

/// Exhaustively checks that `encoder` agrees with the simulator on a
/// single-gate circuit for every input assignment.
void check_gate_encoding(const GateEncoder& encoder, GateType type,
                         std::size_t arity) {
  Netlist n;
  std::vector<NodeId> ins;
  for (std::size_t i = 0; i < arity; ++i) {
    ins.push_back(n.add_input("i" + std::to_string(i)));
  }
  const NodeId g = n.add_gate(type, ins, "g");
  n.mark_output(g);
  const Simulator sim(n);

  for (std::uint32_t mask = 0; mask < (1u << arity); ++mask) {
    std::vector<bool> bits(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      bits[i] = ((mask >> i) & 1u) != 0;
    }
    const bool expected = sim.run_single(bits, {})[0];
    EXPECT_EQ(encoder(n, bits), expected)
        << gate_type_name(type) << "/" << arity << " mask=" << mask;
  }
}

/// Every gate type, and the n-ary paths (XOR chains, wide AND/OR) at
/// arities up to `max_arity`.
void check_all_gates(const GateEncoder& encoder, std::size_t max_arity) {
  check_gate_encoding(encoder, GateType::kBuf, 1);
  check_gate_encoding(encoder, GateType::kNot, 1);
  for (const auto type : {GateType::kAnd, GateType::kNand, GateType::kOr,
                          GateType::kNor, GateType::kXor, GateType::kXnor}) {
    for (std::size_t arity = 2; arity <= max_arity; ++arity) {
      check_gate_encoding(encoder, type, arity);
    }
  }
  check_gate_encoding(encoder, GateType::kMux, 3);
}

TEST(CnfEncoding, AllGateTypesExhaustive) {
  check_all_gates(reference_value, 3);
}

TEST(AigEncoding, AllGateTypesFoldUnderConstantFanins) {
  check_all_gates(aig_folded_value, 4);
}

TEST(AigEncoding, AllGateTypesEncodeUnderPinnedFanins) {
  check_all_gates(aig_encoded_value, 4);
}

TEST(AigEncoding, SecondCopyHashesToTheSameNodes) {
  // Large enough that the hash table grows several times on the first
  // copy.
  const Netlist big =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC7552);
  Aig graph;
  std::vector<Aig::Edge> inputs(big.primary_inputs().size());
  for (Aig::Edge& e : inputs) e = graph.input();
  const auto first = graph.add_netlist(big, inputs, {});
  const std::size_t nodes = graph.size();
  ASSERT_GT(nodes, 2048u);
  EXPECT_EQ(graph.add_netlist(big, inputs, {}), first);
  EXPECT_EQ(graph.size(), nodes);
}

TEST(AigEncoding, EncodeDefinesEachNodeOnce) {
  const Netlist c17 = netlist::gen::c17();
  Aig graph;
  std::vector<Aig::Edge> inputs(c17.primary_inputs().size());
  for (Aig::Edge& e : inputs) e = graph.input();
  const auto outputs = graph.add_netlist(c17, inputs, {});
  Solver solver;
  const Lit first = graph.encode(solver, outputs[0]);
  const std::size_t vars = solver.num_vars();
  EXPECT_EQ(graph.encode(solver, outputs[0]), first);
  EXPECT_EQ(graph.encode(solver, outputs[0] ^ 1), lit_neg(first));
  EXPECT_EQ(solver.num_vars(), vars);
  // Every c17 node feeds an output: with both cones encoded, each node
  // but the unused constant has exactly one variable.
  (void)graph.encode(solver, outputs[1]);
  EXPECT_EQ(solver.num_vars(), graph.size() - 1);
}

TEST(CnfEncoding, Constants) {
  Netlist n;
  n.add_input("dummy");
  const auto zero = n.add_const(false, "z");
  const auto one = n.add_const(true, "o");
  const auto g = n.add_gate(GateType::kOr, {zero, one}, "g");
  n.mark_output(zero, "y0");
  n.mark_output(one, "y1");
  n.mark_output(g, "y2");
  Solver solver;
  const reference::Encoding enc = reference::encode_netlist(solver, n);
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_FALSE(solver.model_value(enc.output_var[0]));
  EXPECT_TRUE(solver.model_value(enc.output_var[1]));
  EXPECT_TRUE(solver.model_value(enc.output_var[2]));
}

TEST(CnfEncoding, SharedInputsReuseVariables) {
  const Netlist c17 = netlist::gen::c17();
  Solver solver;
  const reference::Encoding a = reference::encode_netlist(solver, c17);
  const reference::Encoding b =
      reference::encode_netlist(solver, c17, a.primary_input_var);
  EXPECT_EQ(a.primary_input_var, b.primary_input_var);
  // Identical circuits on shared inputs: miter must be UNSAT.
  const Var miter = reference::make_miter(solver, a, b);
  EXPECT_EQ(solver.solve({make_lit(miter)}), SolveResult::kUnsat);
}

TEST(CnfEncoding, SharedInputSizeMismatchThrows) {
  const Netlist c17 = netlist::gen::c17();
  Solver solver;
  std::vector<Var> wrong{solver.new_var()};
  EXPECT_THROW(reference::encode_netlist(solver, c17, wrong),
               std::invalid_argument);
}

TEST(Miter, DetectsSingleGateDifference) {
  Netlist a;
  {
    const auto x = a.add_input("x");
    const auto y = a.add_input("y");
    a.mark_output(a.add_gate(GateType::kAnd, {x, y}, "g"));
  }
  Netlist b;
  {
    const auto x = b.add_input("x");
    const auto y = b.add_input("y");
    b.mark_output(b.add_gate(GateType::kNand, {x, y}, "g"));
  }
  Solver solver;
  const reference::Encoding ea = reference::encode_netlist(solver, a);
  const reference::Encoding eb =
      reference::encode_netlist(solver, b, ea.primary_input_var);
  const Var miter = reference::make_miter(solver, ea, eb);
  EXPECT_EQ(solver.solve({make_lit(miter)}), SolveResult::kSat);
}

TEST(CheckEquivalent, DeMorganPair) {
  Netlist lhs;
  {
    const auto x = lhs.add_input("x");
    const auto y = lhs.add_input("y");
    lhs.mark_output(lhs.add_gate(GateType::kNand, {x, y}, "g"));
  }
  Netlist rhs;
  {
    const auto x = rhs.add_input("x");
    const auto y = rhs.add_input("y");
    const auto nx = rhs.add_gate(GateType::kNot, {x}, "nx");
    const auto ny = rhs.add_gate(GateType::kNot, {y}, "ny");
    rhs.mark_output(rhs.add_gate(GateType::kOr, {nx, ny}, "g"));
  }
  EXPECT_TRUE(check_equivalent(lhs, {}, rhs, {}));
}

TEST(CheckEquivalent, InterfaceMismatchIsFalse) {
  const Netlist c17 = netlist::gen::c17();
  Netlist tiny;
  tiny.mark_output(tiny.add_input("a"));
  EXPECT_FALSE(check_equivalent(c17, {}, tiny, {}));
}

TEST(CheckEquivalent, KeyedCircuitUnderCorrectAndWrongKey) {
  // locked: y = XOR(x, k). With k=0 it equals BUF(x); with k=1 it doesn't.
  Netlist locked;
  {
    const auto x = locked.add_input("x");
    const auto k = locked.add_input("keyinput0", true);
    locked.mark_output(locked.add_gate(GateType::kXor, {x, k}, "g"));
  }
  Netlist plain;
  {
    const auto x = plain.add_input("x");
    plain.mark_output(plain.add_gate(GateType::kBuf, {x}, "g"));
  }
  EXPECT_TRUE(check_equivalent(locked, {false}, plain, {}));
  EXPECT_FALSE(check_equivalent(locked, {true}, plain, {}));
  EXPECT_TRUE(check_unlocks(locked, {false}, plain));
}

TEST(CheckEquivalent, KeyLengthMismatchThrows) {
  Netlist locked;
  {
    const auto x = locked.add_input("x");
    const auto k = locked.add_input("keyinput0", true);
    locked.mark_output(locked.add_gate(GateType::kXor, {x, k}, "g"));
  }
  EXPECT_THROW(check_equivalent(locked, {true, false}, locked, {true}),
               std::invalid_argument);
}

class CnfRandomEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CnfRandomEquivalence, SimulatorAgreesWithSatOnRandomCircuits) {
  // Random circuit equals itself; and differs from a mutated copy
  // (detected by SAT, confirmed by simulation).
  netlist::gen::RandomCircuitConfig config;
  config.primary_inputs = 8;
  config.outputs = 3;
  config.gates = 40;
  const Netlist original = netlist::gen::make_random(config, GetParam());
  EXPECT_TRUE(check_equivalent(original, {}, original, {}));

  // Mutate: flip one gate's type (AND <-> OR or NOT <-> BUF).
  Netlist mutated = original;
  bool flipped = false;
  for (NodeId v = 0; v < mutated.size() && !flipped; ++v) {
    auto type = mutated.node(v).type;
    GateType target = type;
    if (type == GateType::kAnd) target = GateType::kNand;
    else if (type == GateType::kNand) target = GateType::kAnd;
    else if (type == GateType::kOr) target = GateType::kNor;
    else continue;
    // Rebuild with the flipped type (Netlist is immutable in type; rebuild).
    // Share the name table so the NameIds below stay meaningful.
    Netlist rebuilt(mutated.name(), mutated.names());
    std::vector<NodeId> remap(mutated.size());
    for (NodeId w = 0; w < mutated.size(); ++w) {
      const auto& node = mutated.node(w);
      if (node.type == GateType::kInput) {
        remap[w] = rebuilt.add_input(node.name, node.is_key_input);
        continue;
      }
      std::vector<NodeId> fanins;
      for (NodeId f : node.fanins) fanins.push_back(remap[f]);
      remap[w] = rebuilt.add_gate(w == v ? target : node.type,
                                  std::move(fanins), node.name);
    }
    for (const auto& port : mutated.outputs()) {
      rebuilt.mark_output(remap[port.driver], port.name);
    }
    mutated = std::move(rebuilt);
    flipped = true;
  }
  ASSERT_TRUE(flipped);
  // Cross-check: SAT equivalence must agree exactly with exhaustive
  // simulation (8 primary inputs -> 256 vectors, cheap).
  const bool sat_equivalent = check_equivalent(original, {}, mutated, {});
  const bool sim_equivalent = Simulator::equivalent_exhaustive(
      Simulator(original), {}, Simulator(mutated), {});
  EXPECT_EQ(sat_equivalent, sim_equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfRandomEquivalence,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// ---- check_equivalent vs the two-copy miter oracle -------------------------

TEST(CheckEquivalentDifferential, CampaignSchemeLocksMatchPlainMiter) {
  // Seeded locks of every campaign scheme on c432 and c880, under the
  // correct key, random keys and every single-bit flip of the correct key.
  std::size_t equivalent = 0;
  std::size_t refuted = 0;
  for (const auto profile :
       {netlist::gen::ProfileId::kC432, netlist::gen::ProfileId::kC880}) {
    const Netlist original = netlist::gen::make_profile(profile);
    const lock::SiteContext context(original);
    for (const campaign::SchemeAxis& scheme : campaign::default_schemes()) {
      util::Rng rng(0xE0C1 ^ std::hash<std::string>{}(scheme.name) ^
                    static_cast<std::uint64_t>(profile));
      for (int trial = 0; trial < 2; ++trial) {
        const lock::Genotype genes =
            lock::random_genotype(context, scheme.spec, rng);
        util::Rng repair = rng.fork();
        const lock::LockedDesign design =
            lock::apply_genotype(original, context, genes, repair);
        std::vector<Key> keys = {design.key};
        for (int r = 0; r < 2; ++r) {
          Key key(design.key.size());
          for (std::size_t b = 0; b < key.size(); ++b) key[b] = rng.next_bool();
          keys.push_back(key);
        }
        for (std::size_t b = 0; b < design.key.size(); ++b) {
          keys.push_back(design.key);
          keys.back()[b] = !keys.back()[b];
        }
        for (std::size_t k = 0; k < keys.size(); ++k) {
          SCOPED_TRACE(original.name() + " " + scheme.name + " trial " +
                       std::to_string(trial) + " key " + std::to_string(k));
          const bool expected = reference::plain_check_equivalent(
              design.netlist, keys[k], original, {});
          if (k == 0) {
            ASSERT_TRUE(expected);  // the correct key unlocks
          }
          ASSERT_EQ(check_equivalent(design.netlist, keys[k], original, {}),
                    expected);
          ASSERT_EQ(check_equivalent(original, {}, design.netlist, keys[k]),
                    expected);
          ++(expected ? equivalent : refuted);
        }
      }
    }
  }
  // Both verdicts are exercised, not just one.
  EXPECT_GE(equivalent, 16u);
  EXPECT_GE(refuted, 16u);
}

/// A one-output netlist over inputs x, y, s whose output `body` builds.
Netlist one_output(
    const std::function<NodeId(Netlist&, NodeId, NodeId, NodeId)>& body) {
  Netlist n;
  const NodeId x = n.add_input("x");
  const NodeId y = n.add_input("y");
  const NodeId s = n.add_input("s");
  n.mark_output(body(n, x, y, s), "out");
  return n;
}

/// Both argument orders and the oracle must all reach `expected`.
void expect_verdict(const Netlist& a, const Netlist& b, bool expected) {
  EXPECT_EQ(reference::plain_check_equivalent(a, {}, b, {}), expected);
  EXPECT_EQ(check_equivalent(a, {}, b, {}), expected);
  EXPECT_EQ(check_equivalent(b, {}, a, {}), expected);
}

NodeId gate(Netlist& n, GateType type, std::vector<NodeId> fanins) {
  return n.add_gate(type, std::move(fanins),
                    "g" + std::to_string(n.size()));
}

TEST(CheckEquivalentFolding, AndOfComplementIsFalse) {
  const Netlist zero = one_output([](Netlist& n, NodeId, NodeId, NodeId) {
    return n.add_const(false, "zero");
  });
  const Netlist one = one_output([](Netlist& n, NodeId, NodeId, NodeId) {
    return n.add_const(true, "one");
  });
  const Netlist x_and_not_x =
      one_output([](Netlist& n, NodeId x, NodeId, NodeId) {
        return gate(n, GateType::kAnd, {x, gate(n, GateType::kNot, {x})});
      });
  const Netlist wide = one_output([](Netlist& n, NodeId x, NodeId y, NodeId) {
    return gate(n, GateType::kAnd, {y, x, gate(n, GateType::kNot, {x})});
  });
  const Netlist x_or_not_x =
      one_output([](Netlist& n, NodeId x, NodeId, NodeId) {
        return gate(n, GateType::kOr, {gate(n, GateType::kNot, {x}), x});
      });
  const Netlist just_x = one_output(
      [](Netlist& n, NodeId x, NodeId, NodeId) { return gate(n, GateType::kBuf, {x}); });
  expect_verdict(x_and_not_x, zero, true);
  expect_verdict(wide, zero, true);
  expect_verdict(x_or_not_x, one, true);
  expect_verdict(x_and_not_x, just_x, false);
}

TEST(CheckEquivalentFolding, XorOfItselfCancels) {
  const Netlist zero = one_output([](Netlist& n, NodeId, NodeId, NodeId) {
    return n.add_const(false, "zero");
  });
  const Netlist one = one_output([](Netlist& n, NodeId, NodeId, NodeId) {
    return n.add_const(true, "one");
  });
  const Netlist x_xor_x = one_output([](Netlist& n, NodeId x, NodeId, NodeId) {
    return gate(n, GateType::kXor, {x, x});
  });
  const Netlist x_xor_not_x =
      one_output([](Netlist& n, NodeId x, NodeId, NodeId) {
        return gate(n, GateType::kXor, {x, gate(n, GateType::kNot, {x})});
      });
  const Netlist x_y_x = one_output([](Netlist& n, NodeId x, NodeId y, NodeId) {
    return gate(n, GateType::kXor, {x, y, x});
  });
  const Netlist just_y = one_output(
      [](Netlist& n, NodeId, NodeId y, NodeId) { return gate(n, GateType::kBuf, {y}); });
  expect_verdict(x_xor_x, zero, true);
  expect_verdict(x_xor_not_x, one, true);
  expect_verdict(x_y_x, just_y, true);
  expect_verdict(x_xor_x, one, false);
}

TEST(CheckEquivalentFolding, NegatedMuxSelectSwapsData) {
  const Netlist negated =
      one_output([](Netlist& n, NodeId x, NodeId y, NodeId s) {
        return gate(n, GateType::kMux, {gate(n, GateType::kNot, {s}), x, y});
      });
  const Netlist swapped =
      one_output([](Netlist& n, NodeId x, NodeId y, NodeId s) {
        return gate(n, GateType::kMux, {s, y, x});
      });
  const Netlist plain = one_output([](Netlist& n, NodeId x, NodeId y, NodeId s) {
    return gate(n, GateType::kMux, {s, x, y});
  });
  expect_verdict(negated, swapped, true);
  expect_verdict(negated, plain, false);
}

TEST(CheckEquivalentFolding, ComplementedMuxDataMoveToOutput) {
  const Netlist complemented =
      one_output([](Netlist& n, NodeId x, NodeId y, NodeId s) {
        return gate(n, GateType::kMux, {s, gate(n, GateType::kNot, {x}),
                                        gate(n, GateType::kNot, {y})});
      });
  const Netlist not_mux = one_output([](Netlist& n, NodeId x, NodeId y, NodeId s) {
    return gate(n, GateType::kNot, {gate(n, GateType::kMux, {s, x, y})});
  });
  const Netlist plain = one_output([](Netlist& n, NodeId x, NodeId y, NodeId s) {
    return gate(n, GateType::kMux, {s, x, y});
  });
  expect_verdict(complemented, not_mux, true);
  expect_verdict(complemented, plain, false);
}

TEST(CheckEquivalentFolding, MuxWithEqualDataIsThatData) {
  const Netlist equal_data =
      one_output([](Netlist& n, NodeId x, NodeId, NodeId s) {
        return gate(n, GateType::kMux, {s, x, x});
      });
  const Netlist just_x = one_output(
      [](Netlist& n, NodeId x, NodeId, NodeId) { return gate(n, GateType::kBuf, {x}); });
  // s ? ~x : x is s ^ x; s ? y : s is s & y.
  const Netlist complementary_data =
      one_output([](Netlist& n, NodeId x, NodeId, NodeId s) {
        return gate(n, GateType::kMux, {s, x, gate(n, GateType::kNot, {x})});
      });
  const Netlist s_xor_x = one_output([](Netlist& n, NodeId x, NodeId, NodeId s) {
    return gate(n, GateType::kXor, {s, x});
  });
  const Netlist select_as_data =
      one_output([](Netlist& n, NodeId, NodeId y, NodeId s) {
        return gate(n, GateType::kMux, {s, s, y});
      });
  const Netlist s_and_y = one_output([](Netlist& n, NodeId, NodeId y, NodeId s) {
    return gate(n, GateType::kAnd, {y, s});
  });
  // s ? s : y is s | y; s ? y : ~s is ~s | y.
  const Netlist select_as_in1 =
      one_output([](Netlist& n, NodeId, NodeId y, NodeId s) {
        return gate(n, GateType::kMux, {s, y, s});
      });
  const Netlist s_or_y = one_output([](Netlist& n, NodeId, NodeId y, NodeId s) {
    return gate(n, GateType::kOr, {s, y});
  });
  const Netlist not_select_as_in0 =
      one_output([](Netlist& n, NodeId, NodeId y, NodeId s) {
        return gate(n, GateType::kMux, {s, gate(n, GateType::kNot, {s}), y});
      });
  const Netlist not_s_or_y =
      one_output([](Netlist& n, NodeId, NodeId y, NodeId s) {
        return gate(n, GateType::kNand, {s, gate(n, GateType::kNot, {y})});
      });
  expect_verdict(equal_data, just_x, true);
  expect_verdict(complementary_data, s_xor_x, true);
  expect_verdict(select_as_data, s_and_y, true);
  expect_verdict(select_as_in1, s_or_y, true);
  expect_verdict(not_select_as_in0, not_s_or_y, true);
  expect_verdict(complementary_data, just_x, false);
  expect_verdict(select_as_in1, s_and_y, false);
}

TEST(CheckEquivalentFolding, XnorPolarity) {
  const Netlist xnor = one_output([](Netlist& n, NodeId x, NodeId y, NodeId) {
    return gate(n, GateType::kXnor, {x, y});
  });
  const Netlist not_xor = one_output([](Netlist& n, NodeId x, NodeId y, NodeId) {
    return gate(n, GateType::kNot, {gate(n, GateType::kXor, {y, x})});
  });
  const Netlist xnor_not_y =
      one_output([](Netlist& n, NodeId x, NodeId y, NodeId) {
        return gate(n, GateType::kXnor, {x, gate(n, GateType::kNot, {y})});
      });
  const Netlist xor_ = one_output([](Netlist& n, NodeId x, NodeId y, NodeId) {
    return gate(n, GateType::kXor, {x, y});
  });
  expect_verdict(xnor, not_xor, true);
  expect_verdict(xnor_not_y, xor_, true);
  expect_verdict(xnor, xor_, false);
}

/// y = AND(x, k) under key {k}: folds to 0 when k = 0, to x when k = 1.
Netlist and_with_key(GateType type) {
  Netlist n;
  const NodeId x = n.add_input("x");
  n.add_input("y");
  n.add_input("s");
  const NodeId k = n.add_input("keyinput0", true);
  n.mark_output(gate(n, type, {x, k}), "out");
  return n;
}

TEST(CheckEquivalentMiter, ConstantAgainstLiteral) {
  const Netlist keyed_and = and_with_key(GateType::kAnd);
  const Netlist just_x = one_output(
      [](Netlist& n, NodeId x, NodeId, NodeId) { return gate(n, GateType::kBuf, {x}); });
  // x & y & (x ^ y) is constant 0, but only a SAT call can tell.
  const Netlist hidden_zero =
      one_output([](Netlist& n, NodeId x, NodeId y, NodeId) {
        return gate(n, GateType::kAnd, {gate(n, GateType::kXor, {x, y}),
                                        gate(n, GateType::kAnd, {x, y})});
      });
  EXPECT_FALSE(check_equivalent(keyed_and, {false}, just_x, {}));
  EXPECT_FALSE(check_equivalent(just_x, {}, keyed_and, {false}));
  EXPECT_TRUE(check_equivalent(keyed_and, {true}, just_x, {}));
  EXPECT_TRUE(check_equivalent(keyed_and, {false}, hidden_zero, {}));
  EXPECT_TRUE(check_equivalent(hidden_zero, {}, keyed_and, {false}));
  EXPECT_FALSE(check_equivalent(keyed_and, {true}, hidden_zero, {}));
  // Constant 0 against constant 1.
  EXPECT_FALSE(check_equivalent(keyed_and, {false},
                                and_with_key(GateType::kOr), {true}));
  EXPECT_TRUE(check_equivalent(keyed_and, {false},
                               and_with_key(GateType::kNor), {true}));
}

TEST(CheckEquivalentMiter, LiteralAgainstItsComplement) {
  const Netlist just_x = one_output(
      [](Netlist& n, NodeId x, NodeId, NodeId) { return gate(n, GateType::kBuf, {x}); });
  const Netlist not_x = one_output(
      [](Netlist& n, NodeId x, NodeId, NodeId) { return gate(n, GateType::kNot, {x}); });
  expect_verdict(just_x, not_x, false);
  // XOR(x, k) under k = 1 is ~x.
  const Netlist keyed_xor = and_with_key(GateType::kXor);
  EXPECT_FALSE(check_equivalent(keyed_xor, {true}, just_x, {}));
  EXPECT_TRUE(check_equivalent(keyed_xor, {true}, not_x, {}));
}

TEST(CheckEquivalentMiter, OneDifferingOutputOfSeveral) {
  // c17 against a copy whose last output is inverted: the other outputs
  // merge, the last pair alone refutes.
  const Netlist c17 = netlist::gen::c17();
  Netlist inverted(c17.name(), c17.names());
  std::vector<NodeId> remap(c17.size());
  for (NodeId v = 0; v < c17.size(); ++v) {
    const auto& node = c17.node(v);
    if (node.type == GateType::kInput) {
      remap[v] = inverted.add_input(node.name, node.is_key_input);
      continue;
    }
    std::vector<NodeId> fanins;
    for (const NodeId f : node.fanins) fanins.push_back(remap[f]);
    remap[v] = inverted.add_gate(node.type, std::move(fanins), node.name);
  }
  const auto& ports = c17.outputs();
  for (std::size_t o = 0; o < ports.size(); ++o) {
    NodeId driver = remap[ports[o].driver];
    if (o + 1 == ports.size()) driver = gate(inverted, GateType::kNot, {driver});
    inverted.mark_output(driver, ports[o].name);
  }
  ASSERT_GE(ports.size(), 2u);
  expect_verdict(c17, inverted, false);
  expect_verdict(c17, c17, true);
}

}  // namespace
}  // namespace autolock::sat
