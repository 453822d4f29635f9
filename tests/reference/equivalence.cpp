#include "reference/equivalence.hpp"

#include <stdexcept>
#include <vector>

#include "sat/cnf.hpp"

namespace autolock::reference {

namespace {

/// Fresh variables fixed to `bits` by level-0 unit clauses.
std::vector<sat::Var> pinned_vars(sat::Solver& solver,
                                  const netlist::Key& bits) {
  std::vector<sat::Var> vars;
  for (const bool bit : bits) {
    const sat::Var v = solver.new_var();
    solver.add_clause(sat::make_lit(v, !bit));
    vars.push_back(v);
  }
  return vars;
}

}  // namespace

bool plain_check_equivalent(const netlist::Netlist& a,
                            const netlist::Key& a_key,
                            const netlist::Netlist& b,
                            const netlist::Key& b_key) {
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  if (a.key_inputs().size() != a_key.size() ||
      b.key_inputs().size() != b_key.size()) {
    throw std::invalid_argument("plain_check_equivalent: key length mismatch");
  }
  sat::Solver solver;
  const sat::Encoding enc_a = sat::encode_netlist(
      solver, a, std::nullopt, pinned_vars(solver, a_key));
  const sat::Encoding enc_b = sat::encode_netlist(
      solver, b, enc_a.primary_input_var, pinned_vars(solver, b_key));
  const sat::Var miter = sat::make_miter(solver, enc_a, enc_b);
  const sat::SolveResult result = solver.solve({sat::make_lit(miter)});
  if (result == sat::SolveResult::kUnknown) {
    throw std::runtime_error("plain_check_equivalent: budget exhausted");
  }
  return result == sat::SolveResult::kUnsat;
}

}  // namespace autolock::reference
