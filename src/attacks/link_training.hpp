// The link-prediction task both ML attacks share around their models.
//
// MuxLink (a GNN ensemble over enclosing subgraphs) and the structural
// surrogate (pair features + logistic regression) pose the same problem:
// learn "is there a wire u -> v?" from the locked design's own wires, then
// decide each MUX key bit by which candidate wires look real. Only the
// model differs, so the two steps around it live here once:
//   1. sample_training_links — the self-supervised training set;
//   2. decide_key_bits — the per-key-bit decision from a link scorer.
// Both consume RNG draws and floating-point operations in one fixed order,
// so an attack's result is a pure function of (design, seed, model).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "attacks/attack_graph.hpp"
#include "attacks/attack_scratch.hpp"
#include "attacks/muxlink.hpp"
#include "util/rng.hpp"

namespace autolock::attack {

/// Minimum probability margin between the two key-value hypotheses for a
/// bit to count as "decided" in the thresholded (precision) metric.
inline constexpr double kDecisionThreshold = 0.05;

/// Fills `scratch.positives` and `scratch.negatives` with the training set
/// for `graph`: the known links (shuffled and cut to `max_links` when there
/// are more) as positives, and as many negatives, alternating a *hard*
/// negative — a false driver from the sink's 2..3-hop neighbourhood, the
/// shape of the wrong MUX candidate — with a uniform non-adjacent pair.
/// Returns false (both lists then unspecified) when the graph has fewer
/// than four nodes or no gate with fanins: there is nothing to learn from.
bool sample_training_links(const AttackGraph& graph, std::size_t max_links,
                           util::Rng& rng, AttackScratch& scratch);

/// Decides every MUX key bit of `graph` into `result`: each side's score is
/// the mean `link_prob(link)` over its candidate links (0.5 for none), the
/// forced decision is the likelier side (ties go to 0), the margin is the
/// score difference, the thresholded decision is -1 below
/// kDecisionThreshold, and `bit_attacked` marks the bits decided.
template <typename LinkProb>
void decide_key_bits(const AttackGraph& graph, LinkProb&& link_prob,
                     MuxLinkResult& result) {
  int max_bit = -1;
  for (const auto& problem : graph.problems()) {
    max_bit = std::max(max_bit, problem.key_bit_index);
  }
  const std::size_t bits = static_cast<std::size_t>(max_bit) + 1;
  result.predicted_bits.assign(bits, 0);
  result.margins.assign(bits, 0.0);
  result.thresholded_bits.assign(bits, -1);
  result.bit_attacked.assign(bits, 0);

  const auto mean_prob = [&](const std::vector<CandidateLink>& links) {
    double sum = 0.0;
    for (const auto& link : links) sum += link_prob(link);
    return links.empty() ? 0.5 : sum / static_cast<double>(links.size());
  };
  for (const auto& problem : graph.problems()) {
    const double p0 = mean_prob(problem.if_zero);
    const double p1 = mean_prob(problem.if_one);
    const int bit = problem.key_bit_index;
    const int decision = p1 > p0 ? 1 : 0;
    const double margin = std::abs(p1 - p0);
    result.predicted_bits[bit] = decision;
    result.margins[bit] = margin;
    result.thresholded_bits[bit] = margin >= kDecisionThreshold ? decision : -1;
    result.bit_attacked[bit] = 1;
  }
}

}  // namespace autolock::attack
