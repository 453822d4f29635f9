#include "attacks/sat_attack.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "sat/aig.hpp"
#include "sat/cnf.hpp"
#include "util/timer.hpp"

namespace autolock::attack {

using netlist::Key;
using netlist::Netlist;
using netlist::Simulator;
using sat::Lit;
using sat::lit_neg;
using sat::lit_var;
using sat::make_lit;
using sat::SolveResult;
using sat::Var;
using Edge = sat::Aig::Edge;

SatAttack::SatAttack(SatAttackConfig config) : config_(std::move(config)) {}

SatAttackResult SatAttack::attack(const Netlist& locked,
                                  const Netlist& oracle) const {
  util::Timer timer;
  SatAttackResult result;

  if (!oracle.key_inputs().empty()) {
    throw std::invalid_argument(
        "SatAttack: oracle has key inputs — a locked netlist is not an "
        "oracle (its simulation would run under an arbitrary key)");
  }
  if (locked.primary_inputs().size() != oracle.primary_inputs().size() ||
      locked.outputs().size() != oracle.outputs().size()) {
    throw std::invalid_argument("SatAttack: interface mismatch");
  }

  const std::size_t primary_count = locked.primary_inputs().size();
  const std::size_t key_bits = locked.key_inputs().size();
  if (key_bits == 0) {
    result.success = true;
    result.seconds = timer.elapsed_seconds();
    return result;
  }

  const Simulator oracle_sim(oracle);

  sat::Solver solver;
  if (config_.conflict_budget != 0) {
    solver.set_conflict_budget(config_.conflict_budget);
  }

  // One growing formula for the whole attack: the miter over two copies of
  // the locked circuit that share primary inputs and have independent key
  // sets K1/K2, and (appended per iteration) every DIP's IO constraints.
  // The miter is attached by ASSUMPTION, never as a clause, so the final
  // "find a consistent key" solve and the canonicalization solves reuse
  // the same solver — learnt clauses and VSIDS state survive across all of
  // it.
  //
  // Both copies go into one structurally hashed graph, so the logic that
  // does not depend on the key hashes to one node for both: the miter
  // grows by one key cone instead of one whole circuit, and an output that
  // does not depend on the key drops out of it.
  sat::Aig graph;
  std::vector<Edge> pi_edges(primary_count);
  std::vector<Edge> key1_edges(key_bits);
  std::vector<Edge> key2_edges(key_bits);
  for (Edge& e : pi_edges) e = graph.input();
  for (Edge& e : key1_edges) e = graph.input();
  for (Edge& e : key2_edges) e = graph.input();
  const auto outputs1 = graph.add_netlist(locked, pi_edges, key1_edges);
  const auto outputs2 = graph.add_netlist(locked, pi_edges, key2_edges);
  std::vector<Edge> diffs;
  for (std::size_t o = 0; o < outputs1.size(); ++o) {
    diffs.push_back(graph.make_xor(outputs1[o], outputs2[o]));
  }
  const Edge miter = graph.make_or(diffs);

  std::vector<Var> pi_vars;
  for (const Edge e : pi_edges) {
    pi_vars.push_back(lit_var(graph.encode(solver, e)));
  }
  std::vector<Var> key1_vars;
  for (const Edge e : key1_edges) {
    key1_vars.push_back(lit_var(graph.encode(solver, e)));
  }
  // A miter that folds to false has no DIP at all.
  const std::optional<Lit> miter_lit =
      miter == sat::Aig::kFalse
          ? std::nullopt
          : std::optional<Lit>(graph.encode(solver, miter));

  auto record_stats = [&] {
    const sat::Solver::Stats& stats = solver.stats();
    result.total_conflicts = stats.conflicts;
    result.total_decisions = stats.decisions;
    result.total_propagations = stats.propagations;
    result.gc_runs = stats.gc_runs;
    result.db_reductions = stats.db_reductions;
    result.peak_arena_bytes = stats.peak_arena_bytes;
    result.mean_lbd = stats.mean_lbd();
  };
  auto finish = [&](SatAttackResult&& r) {
    record_stats();
    r.seconds = timer.elapsed_seconds();
    return std::move(r);
  };

  // Both copies must map a DIP to its response. The DIP enters as
  // constants, so the key-independent logic folds away and only each
  // copy's key cone reaches the solver. A constant output that differs
  // from the response proves no key can match.
  std::vector<Edge> dip_edges(primary_count);
  const auto constrain = [&](const std::vector<bool>& response) {
    for (const auto* keys : {&key1_edges, &key2_edges}) {
      const auto outputs = graph.add_netlist(locked, dip_edges, *keys);
      for (std::size_t o = 0; o < outputs.size(); ++o) {
        if (outputs[o] == sat::Aig::kFalse || outputs[o] == sat::Aig::kTrue) {
          if ((outputs[o] == sat::Aig::kTrue) != response[o]) return false;
          continue;
        }
        const Lit out = graph.encode(solver, outputs[o]);
        if (!solver.add_clause(response[o] ? out : lit_neg(out))) return false;
      }
    }
    return solver.okay();
  };

  while (miter_lit) {
    if (config_.max_iterations != 0 &&
        result.dip_iterations >= config_.max_iterations) {
      result.budget_exhausted = true;
      return finish(std::move(result));
    }
    const std::uint64_t vars_before = solver.num_vars();
    const std::uint64_t clauses_before = solver.num_clauses();
    const std::uint64_t conflicts_before = solver.stats().conflicts;

    const SolveResult res = solver.solve({*miter_lit});
    if (res == SolveResult::kUnknown) {
      result.budget_exhausted = true;
      return finish(std::move(result));
    }
    if (res == SolveResult::kUnsat) break;  // no DIP remains

    // Extract the DIP and query the oracle.
    ++result.dip_iterations;
    std::vector<bool> dip(primary_count);
    for (std::size_t i = 0; i < primary_count; ++i) {
      dip[i] = solver.model_value(pi_vars[i]);
      dip_edges[i] = sat::Aig::constant(dip[i]);
    }
    const std::vector<bool> response = oracle_sim.run_single(dip, Key{});

    const bool consistent = constrain(response);
    result.iterations.push_back(
        {solver.num_vars() - vars_before,
         solver.num_clauses() - clauses_before, solver.stats().arena_bytes,
         solver.stats().conflicts - conflicts_before});
    if (!consistent) {
      // A response no key can produce, or IO constraints UNSAT at level
      // 0: the oracle is not a completion of this locked circuit. Stop
      // instead of looping on a dead solver.
      result.infeasible = true;
      return finish(std::move(result));
    }
  }

  // Any key consistent with all IO constraints is correct. Solve without
  // the miter assumption to obtain one.
  const SolveResult final_res = solver.solve({});
  if (final_res != SolveResult::kSat) {
    if (final_res == SolveResult::kUnknown) {
      result.budget_exhausted = true;
    } else {
      // UNSAT: no key satisfies the recorded IO pairs at all.
      result.infeasible = true;
    }
    return finish(std::move(result));
  }
  result.recovered_key.resize(key_bits);
  for (std::size_t b = 0; b < key_bits; ++b) {
    result.recovered_key[b] = solver.model_value(key1_vars[b]);
  }

  // Canonicalize: walk the key bits from bit 0 (the most significant in
  // lexicographic order), greedily forcing each to 0 when some consistent
  // key allows it. Every query is an assumption solve on the warm solver.
  // A kUnknown (conflict budget) aborts canonicalization but keeps the
  // (valid) witness key.
  std::vector<Lit> prefix;
  prefix.reserve(key_bits);
  for (std::size_t b = 0; b < key_bits; ++b) {
    if (!result.recovered_key[b]) {
      // The current witness model already has this bit at 0.
      prefix.push_back(make_lit(key1_vars[b], true));
      continue;
    }
    prefix.push_back(make_lit(key1_vars[b], true));  // try 0
    const SolveResult bit_res = solver.solve(prefix);
    if (bit_res == SolveResult::kSat) {
      // Adopt the new witness: this bit drops to 0 and the undecided
      // suffix must be re-read from the new model.
      for (std::size_t j = b; j < key_bits; ++j) {
        result.recovered_key[j] = solver.model_value(key1_vars[j]);
      }
    } else if (bit_res == SolveResult::kUnsat) {
      prefix.back() = make_lit(key1_vars[b], false);  // forced to 1
    } else {
      break;  // budget: keep the witness key as-is
    }
  }

  // Verify functional correctness of the recovered key with a fresh
  // miter.
  result.success =
      sat::check_equivalent(locked, result.recovered_key, oracle, Key{});
  return finish(std::move(result));
}

}  // namespace autolock::attack
