// DIMACS CNF reader/writer.
//
// Lets the solver ingest standard CNF benchmarks and dump attack miters so
// any external SAT solver can cross-check this one's verdicts. The reader
// is strict: malformed headers, out-of-range literals, unterminated
// clauses, and clause-count mismatches are rejected with
// std::runtime_error rather than silently patched up.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/clause_allocator.hpp"

namespace autolock::sat {

class Solver;

/// A CNF in the solver's internal literal encoding (lit = 2*var + sign).
struct DimacsCnf {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;

  bool operator==(const DimacsCnf&) const = default;
};

/// DIMACS literal (±(var+1), never 0) <-> internal literal.
constexpr int to_dimacs(Lit lit) noexcept {
  return lit_sign(lit) ? -(lit_var(lit) + 1) : lit_var(lit) + 1;
}
constexpr Lit from_dimacs(int dimacs_lit) noexcept {
  return dimacs_lit < 0 ? make_lit(-dimacs_lit - 1, true)
                        : make_lit(dimacs_lit - 1, false);
}

/// Parses a DIMACS CNF stream. Comment lines ('c ...'), blank lines, and a
/// trailing '%' end-marker (SATLIB convention) are ignored. Clauses may
/// span lines or share one. Throws std::runtime_error on malformed input.
DimacsCnf read_dimacs(std::istream& in);
DimacsCnf read_dimacs_file(const std::string& path);

/// Writes `p cnf V C` followed by one clause per line.
void write_dimacs(std::ostream& out, const DimacsCnf& cnf);
void write_dimacs_file(const std::string& path, const DimacsCnf& cnf);

/// Declares missing variables on `solver` up to the highest one a clause
/// references, then adds every clause. Variables the header declares but no
/// clause uses are unconstrained and are not created, so a large header
/// costs nothing. Returns false if the formula is unsatisfiable at level 0
/// (same contract as Solver::add_clause).
bool load_into(Solver& solver, const DimacsCnf& cnf);

}  // namespace autolock::sat
