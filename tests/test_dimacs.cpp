// DIMACS reader/writer tests: fixture parsing, round-tripping, comment and
// blank-line handling, strict rejection of malformed input, and the
// Solver::write_dimacs export path.
#include "sat/dimacs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sat/solver.hpp"

#ifndef AUTOLOCK_TEST_DATA_DIR
#define AUTOLOCK_TEST_DATA_DIR "tests/data"
#endif

namespace autolock::sat {
namespace {

std::string fixture(const std::string& name) {
  return std::string(AUTOLOCK_TEST_DATA_DIR) + "/" + name;
}

DimacsCnf parse(const std::string& text) {
  std::istringstream in(text);
  return read_dimacs(in);
}

// Expects a std::runtime_error whose message names line 1 (the header).
void expect_header_rejected(const std::string& text) {
  try {
    parse(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1:"), std::string::npos)
        << e.what();
  }
}

TEST(Dimacs, LiteralConversionRoundTrips) {
  for (const int dimacs_lit : {1, -1, 7, -7, 123, -123}) {
    EXPECT_EQ(to_dimacs(from_dimacs(dimacs_lit)), dimacs_lit);
  }
  EXPECT_EQ(from_dimacs(1), make_lit(0, false));
  EXPECT_EQ(from_dimacs(-1), make_lit(0, true));
  EXPECT_EQ(from_dimacs(5), make_lit(4, false));
}

TEST(Dimacs, ReadsFixtureAndSolvesSat) {
  const DimacsCnf cnf = read_dimacs_file(fixture("simple_sat.cnf"));
  EXPECT_EQ(cnf.num_vars, 3);
  EXPECT_EQ(cnf.clauses.size(), 4u);
  Solver solver;
  EXPECT_TRUE(load_into(solver, cnf));
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  for (const auto& clause : cnf.clauses) {
    bool satisfied = false;
    for (const Lit lit : clause) satisfied |= solver.model_value_lit(lit);
    EXPECT_TRUE(satisfied);
  }
}

TEST(Dimacs, ReadsFixtureAndSolvesUnsat) {
  for (const char* name : {"simple_unsat.cnf", "php_3_2.cnf"}) {
    const DimacsCnf cnf = read_dimacs_file(fixture(name));
    Solver solver;
    load_into(solver, cnf);
    EXPECT_EQ(solver.solve(), SolveResult::kUnsat) << name;
  }
}

TEST(Dimacs, RoundTripPreservesCnf) {
  for (const char* name :
       {"simple_sat.cnf", "simple_unsat.cnf", "php_3_2.cnf"}) {
    const DimacsCnf original = read_dimacs_file(fixture(name));
    std::ostringstream out;
    write_dimacs(out, original);
    const DimacsCnf reread = parse(out.str());
    EXPECT_EQ(original, reread) << name;
  }
}

TEST(Dimacs, HandlesCommentsBlankLinesAndSplitClauses) {
  const DimacsCnf cnf = parse(
      "c header comment\n"
      "\n"
      "p cnf 4 3\n"
      "c clauses may span lines:\n"
      "1 2\n"
      "3 0\n"
      "\n"
      "-1 -2 0 -3 4 0\n"  // two clauses on one line
      "% trailing SATLIB marker\n"
      "0\n");
  EXPECT_EQ(cnf.num_vars, 4);
  ASSERT_EQ(cnf.clauses.size(), 3u);
  EXPECT_EQ(cnf.clauses[0].size(), 3u);
  EXPECT_EQ(cnf.clauses[1].size(), 2u);
  EXPECT_EQ(cnf.clauses[2], (std::vector<Lit>{from_dimacs(-3),
                                              from_dimacs(4)}));
}

TEST(Dimacs, RejectsMalformedHeaders) {
  EXPECT_THROW(parse("p dnf 2 1\n1 2 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf x 1\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2 1 junk\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf -2 1\n1 0\n"), std::runtime_error);
  // Duplicate header.
  EXPECT_THROW(parse("p cnf 2 1\np cnf 2 1\n1 0\n"), std::runtime_error);
  // Clause before header / missing header entirely.
  EXPECT_THROW(parse("1 2 0\n"), std::runtime_error);
  EXPECT_THROW(parse("c only comments\n"), std::runtime_error);
  // Hostile counts: a clause count nothing may be reserved for, and
  // variable counts a Lit (2*var+1 in int32) cannot encode, including one
  // that wraps to a negative int and one that truncates to 1.
  expect_header_rejected("p cnf 1 999999999999999\n");
  expect_header_rejected("p cnf 3000000000 0\n");
  expect_header_rejected("p cnf 4294967297 1\n1 0\n");
  expect_header_rejected("p cnf 1073741825 0\n");
  EXPECT_EQ(parse("p cnf 1073741824 0\n").num_vars, 1073741824);
}

TEST(Dimacs, RejectsMalformedClauses) {
  // Literal exceeding the declared variable count.
  EXPECT_THROW(parse("p cnf 2 1\n1 3 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2 1\n-5 0\n"), std::runtime_error);
  // Below LONG_MIN: strtol clamps, and the range check must not negate it.
  EXPECT_THROW(parse("p cnf 2 1\n-99999999999999999999999 0\n"),
               std::runtime_error);
  // Non-integer token.
  EXPECT_THROW(parse("p cnf 2 1\n1 two 0\n"), std::runtime_error);
  // Unterminated clause at EOF.
  EXPECT_THROW(parse("p cnf 2 1\n1 2\n"), std::runtime_error);
  // Clause-count mismatch in both directions.
  EXPECT_THROW(parse("p cnf 2 2\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2 1\n1 0\n2 0\n"), std::runtime_error);
}

TEST(Dimacs, LoadCreatesOnlyReferencedVariables) {
  // Declared-but-unused variables are unconstrained: loading creates the
  // solver variables up to the highest one a clause references, no more.
  const DimacsCnf cnf = parse("p cnf 100000 1\n1 -2 0\n");
  EXPECT_EQ(cnf.num_vars, 100000);
  Solver solver;
  ASSERT_TRUE(load_into(solver, cnf));
  EXPECT_EQ(solver.num_vars(), 2u);
  EXPECT_EQ(solver.solve(), SolveResult::kSat);

  // The largest legal header with no clauses loads without creating any.
  const DimacsCnf huge = parse("p cnf 1073741824 0\n");
  EXPECT_EQ(huge.num_vars, 1 << 30);
  Solver empty;
  ASSERT_TRUE(load_into(empty, huge));
  EXPECT_EQ(empty.num_vars(), 0u);
  EXPECT_EQ(empty.solve(), SolveResult::kSat);
}

TEST(Dimacs, EmptyClauseIsReadAndUnsat) {
  const DimacsCnf cnf = parse("p cnf 1 2\n1 0\n0\n");
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_TRUE(cnf.clauses[1].empty());
  Solver solver;
  EXPECT_FALSE(load_into(solver, cnf));
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

TEST(Dimacs, SolverExportReimportsEquisatisfiably) {
  // Build a small formula (including a unit fact), export it from the
  // solver, re-import into a fresh solver, and compare verdicts.
  Solver solver;
  for (int i = 0; i < 4; ++i) solver.new_var();
  solver.add_clause(make_lit(0));                                // unit
  solver.add_clause(make_lit(1), make_lit(2));                   // binary
  solver.add_clause(make_lit(1, true), make_lit(3), make_lit(2));
  solver.add_clause(make_lit(2, true), make_lit(3, true));
  std::ostringstream out;
  solver.write_dimacs(out);

  const DimacsCnf cnf = parse(out.str());
  EXPECT_EQ(cnf.num_vars, 4);
  Solver reloaded;
  load_into(reloaded, cnf);
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_EQ(reloaded.solve(), SolveResult::kSat);

  // Force UNSAT on both and re-export: the empty clause must round-trip.
  solver.add_clause(make_lit(0, true));
  std::ostringstream out2;
  solver.write_dimacs(out2);
  Solver reloaded2;
  EXPECT_FALSE(load_into(reloaded2, parse(out2.str())));
  EXPECT_EQ(reloaded2.solve(), SolveResult::kUnsat);
}

}  // namespace
}  // namespace autolock::sat
