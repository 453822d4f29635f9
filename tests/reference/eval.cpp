#include "reference/eval.hpp"

#include <stdexcept>
#include <utility>

#include "attacks/scope.hpp"
#include "attacks/structural.hpp"
#include "reference/scope.hpp"
#include "util/rng.hpp"

namespace autolock::reference {

Scorer::Scorer(const netlist::Netlist& original,
               std::vector<std::string> attacks)
    : original_(&original), context_(original), attacks_(std::move(attacks)) {
  for (const std::string& name : attacks_) {
    if (name != "structural" && name != "scope") {
      throw std::invalid_argument("reference::Scorer: unsupported attack '" +
                                  name + "'");
    }
  }
}

std::vector<Scorer::Report> Scorer::reports(
    const lock::LockedDesign& decoded) const {
  // Repaired genes are valid in order, so this decode draws nothing from
  // the repair stream and must rebuild `decoded` exactly.
  util::Rng no_repair(0);
  const lock::LockedDesign design =
      lock::apply_genotype(*original_, context_, decoded.genes, no_repair);
  std::vector<Report> result;
  for (const std::string& name : attacks_) {
    if (name == "structural") {
      const auto score = attack::StructuralLinkPredictor().run(design);
      result.push_back({score.accuracy, score.precision});
    } else {
      const auto score = attack::ScopeAttack::score(
          scope_attack(design.netlist), design.key);
      result.push_back(
          {score.expected_overall_accuracy, score.accuracy_on_decided});
    }
  }
  return result;
}

ga::Evaluation Scorer::score(const lock::LockedDesign& design) const {
  double accuracy = 0.0;
  double precision = 0.0;
  for (const Report& report : reports(design)) {
    accuracy += report.accuracy;
    precision += report.precision;
  }
  ga::Evaluation eval;
  eval.attack_accuracy = accuracy / static_cast<double>(attacks_.size());
  eval.attack_precision = precision / static_cast<double>(attacks_.size());
  eval.fitness = 1.0 - eval.attack_accuracy;
  return eval;
}

std::vector<double> Scorer::objectives(const lock::LockedDesign& design) const {
  std::vector<double> result;
  for (const Report& report : reports(design)) {
    result.push_back(report.accuracy);
  }
  return result;
}

}  // namespace autolock::reference
