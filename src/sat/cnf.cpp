#include "sat/cnf.hpp"

#include <stdexcept>
#include <vector>

#include "sat/aig.hpp"
#include "sat/solver.hpp"

namespace autolock::sat {

bool check_equivalent(const netlist::Netlist& a, const netlist::Key& a_key,
                      const netlist::Netlist& b, const netlist::Key& b_key) {
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  if (a.key_inputs().size() != a_key.size() ||
      b.key_inputs().size() != b_key.size()) {
    throw std::invalid_argument("check_equivalent: key length mismatch");
  }
  const auto constants = [](const netlist::Key& key) {
    std::vector<Aig::Edge> edges;
    for (const bool bit : key) edges.push_back(Aig::constant(bit));
    return edges;
  };
  Aig graph;
  std::vector<Aig::Edge> inputs(a.primary_inputs().size());
  for (Aig::Edge& e : inputs) e = graph.input();
  const auto outputs_a = graph.add_netlist(a, inputs, constants(a_key));
  const auto outputs_b = graph.add_netlist(b, inputs, constants(b_key));
  std::vector<Aig::Edge> diffs;
  for (std::size_t o = 0; o < outputs_a.size(); ++o) {
    diffs.push_back(graph.make_xor(outputs_a[o], outputs_b[o]));
  }
  const Aig::Edge miter = graph.make_or(diffs);
  if (miter == Aig::kFalse || miter == Aig::kTrue) return miter == Aig::kFalse;

  Solver solver;
  const SolveResult result = solver.solve({graph.encode(solver, miter)});
  if (result == SolveResult::kUnknown) {
    throw std::runtime_error("check_equivalent: budget exhausted");
  }
  return result == SolveResult::kUnsat;
}

bool check_unlocks(const netlist::Netlist& locked, const netlist::Key& key,
                   const netlist::Netlist& original) {
  return check_equivalent(locked, key, original, netlist::Key{});
}

}  // namespace autolock::sat
