// Reference scoring for EvalPipeline differential tests. Plugged in as a
// pipeline's fitness_override / objectives_override, it replaces the whole
// workspace hot path after decode: the design is re-decoded from its
// (already repaired) genes with the allocating lock::apply_genotype, and
// every attack runs through a one-shot path (SCOPE by full synthesis).
// A pipeline scored this way must follow exactly the trajectory of one
// scored by its own attacks.
#pragma once

#include <string>
#include <vector>

#include "core/ga.hpp"
#include "locking/mux_lock.hpp"
#include "locking/sites.hpp"
#include "netlist/netlist.hpp"

namespace autolock::reference {

class Scorer {
 public:
  /// `attacks` are registry names; "structural" and "scope" are supported
  /// (with default configs, as EvalPipeline's default AttackOptions give).
  /// `original` must outlive the scorer.
  Scorer(const netlist::Netlist& original, std::vector<std::string> attacks);

  /// 1 - mean accuracy, like EvalPipeline::score without corruption.
  ga::Evaluation score(const lock::LockedDesign& design) const;
  /// Per-attack accuracy, like EvalPipeline::score_objectives.
  std::vector<double> objectives(const lock::LockedDesign& design) const;

 private:
  struct Report {
    double accuracy = 0.0;
    double precision = 0.0;
  };
  std::vector<Report> reports(const lock::LockedDesign& design) const;

  const netlist::Netlist* original_;
  lock::SiteContext context_;
  std::vector<std::string> attacks_;
};

}  // namespace autolock::reference
