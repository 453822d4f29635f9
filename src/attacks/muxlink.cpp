#include "attacks/muxlink.hpp"

#include <algorithm>

#include "attacks/attack_scratch.hpp"
#include "attacks/link_training.hpp"
#include "util/rng.hpp"

namespace autolock::attack {

MuxLinkAttack::MuxLinkAttack(MuxLinkConfig config) : config_(config) {}

MuxLinkResult MuxLinkAttack::attack(const netlist::Netlist& locked) const {
  AttackScratch scratch;
  return attack(locked, scratch);
}

MuxLinkResult MuxLinkAttack::attack(const netlist::Netlist& locked,
                                    AttackScratch& scratch) const {
  MuxLinkResult result;
  scratch.graph.build(locked);
  const AttackGraph& graph = scratch.graph;
  if (graph.problems().empty()) return result;

  util::Rng rng(config_.seed ^ (locked.size() * 0x9E37ULL));
  if (!sample_training_links(graph, config_.max_train_links, rng, scratch)) {
    return result;
  }
  const std::vector<CandidateLink>& positives = scratch.positives;
  const std::vector<CandidateLink>& negatives = scratch.negatives;

  // Assemble training samples into the scratch arena: slots (and their
  // adjacency/feature buffers) are reused across designs and epochs instead
  // of building one fresh Subgraph per sample. Slots beyond `sample_count`
  // may hold stale data from a larger previous design; the training order
  // below never indexes them.
  std::vector<Subgraph>& samples = scratch.train_samples;
  const std::size_t sample_count = positives.size() + negatives.size();
  if (samples.size() < sample_count) samples.resize(sample_count);
  std::size_t next_sample = 0;
  for (const auto& link : positives) {
    Subgraph& sub = samples[next_sample++];
    extract_subgraph_into(graph, link.u, link.v, config_.subgraph,
                          scratch.subgraph, sub);
    sub.label = 1.0;
  }
  for (const auto& link : negatives) {
    Subgraph& sub = samples[next_sample++];
    extract_subgraph_into(graph, link.u, link.v, config_.subgraph,
                          scratch.subgraph, sub);
    sub.label = 0.0;
  }
  result.train_samples = sample_count;

  // ---- train ---------------------------------------------------------------
  const std::size_t ensemble_size = std::max<std::size_t>(config_.ensemble, 1);
  std::vector<Gnn> models;
  models.reserve(ensemble_size);
  for (std::size_t m = 0; m < ensemble_size; ++m) {
    models.emplace_back(config_.gnn, config_.seed ^ 0x517EULL ^ (m * 7919));
  }
  std::vector<std::size_t>& order = scratch.order;
  order.resize(sample_count);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    double loss = 0.0;
    for (Gnn& model : models) {
      rng.shuffle(order);
      loss += model.train_epoch(samples, order, scratch.gnn);
    }
    loss /= static_cast<double>(ensemble_size);
    if (epoch == 0) result.first_epoch_loss = loss;
    result.last_epoch_loss = loss;
  }

  // ---- decide every key bit -------------------------------------------------
  decide_key_bits(
      graph,
      [&](const CandidateLink& link) {
        Subgraph& sub = scratch.inference_subgraph;
        extract_subgraph_into(graph, link.u, link.v, config_.subgraph,
                              scratch.subgraph, sub);
        double p = 0.0;
        for (const Gnn& model : models) p += model.predict(sub, scratch.gnn);
        return p / static_cast<double>(models.size());
      },
      result);
  return result;
}

MuxLinkScore MuxLinkAttack::score(const MuxLinkResult& result,
                                  const netlist::Key& correct_key) {
  MuxLinkScore score;
  score.key_bits = correct_key.size();
  if (correct_key.empty()) return score;

  double correct = 0.0;
  std::size_t attacked = 0;
  std::size_t decided = 0;
  std::size_t decided_correct = 0;
  for (std::size_t bit = 0; bit < correct_key.size(); ++bit) {
    // A bit without a MUX-link hypothesis (non-MUX key gate, or beyond the
    // attacked range) scores as a coin flip: crediting the forced-0 default
    // would reward the attack for key bits it never examined.
    if (bit >= result.bit_attacked.size() || result.bit_attacked[bit] == 0) {
      correct += 0.5;
      continue;
    }
    ++attacked;
    const int truth = correct_key[bit] ? 1 : 0;
    const int forced =
        bit < result.predicted_bits.size() ? result.predicted_bits[bit] : 0;
    if (forced == truth) correct += 1.0;
    const int soft =
        bit < result.thresholded_bits.size() ? result.thresholded_bits[bit] : -1;
    if (soft != -1) {
      ++decided;
      if (soft == truth) ++decided_correct;
    }
  }
  score.accuracy = correct / static_cast<double>(correct_key.size());
  score.attacked_fraction =
      static_cast<double>(attacked) / static_cast<double>(correct_key.size());
  score.decided_fraction =
      static_cast<double>(decided) / static_cast<double>(correct_key.size());
  score.precision = decided == 0 ? 0.0
                                 : static_cast<double>(decided_correct) /
                                       static_cast<double>(decided);
  return score;
}

}  // namespace autolock::attack
