#include "attacks/link_training.hpp"

namespace autolock::attack {

using netlist::NodeId;

namespace {

/// One hard negative: a sink drawn uniformly, then a false driver from its
/// 2..3-hop ring (bounded BFS; epoch-stamped marks, so a warm scratch
/// allocates nothing). False when the sink has no such ring.
bool sample_hard_negative(const AttackGraph& graph, util::Rng& rng,
                          AttackScratch& scratch, CandidateLink& out) {
  const std::vector<NodeId>& sinks = scratch.present_sinks;
  const NodeId v = sinks[rng.next_below(sinks.size())];
  std::vector<NodeId>& ring = scratch.ring;
  std::vector<NodeId>& frontier = scratch.frontier;
  std::vector<NodeId>& next = scratch.next_frontier;
  ring.clear();
  frontier.clear();
  frontier.push_back(v);
  scratch.seen.begin_epoch(graph.locked().size());
  scratch.seen.mark(v);
  for (int hop = 1; hop <= 3; ++hop) {
    next.clear();
    for (const NodeId x : frontier) {
      for (const NodeId y : graph.neighbors(x)) {
        if (!scratch.seen.try_mark(y)) continue;
        next.push_back(y);
        if (hop >= 2) ring.push_back(y);  // distance 2..3: non-adjacent
      }
    }
    std::swap(frontier, next);
    if (ring.size() > 64) break;
  }
  if (ring.empty()) return false;
  out = CandidateLink{ring[rng.next_below(ring.size())], v};
  return true;
}

}  // namespace

bool sample_training_links(const AttackGraph& graph, std::size_t max_links,
                           util::Rng& rng, AttackScratch& scratch) {
  std::vector<CandidateLink>& positives = scratch.positives;
  positives = graph.known_links();
  if (positives.size() > max_links) {
    rng.shuffle(positives);
    positives.resize(max_links);
  }

  // Present nodes, split into "possible drivers" (anything present) and
  // "possible sinks" (present gates with fanins) so negatives share the
  // directional shape of positives.
  const netlist::Netlist& locked = graph.locked();
  std::vector<NodeId>& present_nodes = scratch.present_nodes;
  std::vector<NodeId>& present_sinks = scratch.present_sinks;
  present_nodes.clear();
  present_sinks.clear();
  for (NodeId v = 0; v < locked.size(); ++v) {
    if (!graph.in_graph(v)) continue;
    present_nodes.push_back(v);
    if (!locked.node(v).fanins.empty()) present_sinks.push_back(v);
  }
  if (present_nodes.size() < 4 || present_sinks.empty()) return false;

  std::vector<CandidateLink>& negatives = scratch.negatives;
  negatives.clear();
  negatives.reserve(positives.size());
  std::size_t guard = 0;
  while (negatives.size() < positives.size() &&
         guard < 100 * positives.size() + 1000) {
    ++guard;
    if (negatives.size() % 2 == 0) {
      CandidateLink hard;
      if (sample_hard_negative(graph, rng, scratch, hard)) {
        negatives.push_back(hard);
        continue;
      }
    }
    const NodeId u = present_nodes[rng.next_below(present_nodes.size())];
    const NodeId v = present_sinks[rng.next_below(present_sinks.size())];
    if (u == v) continue;
    const auto u_neighbors = graph.neighbors(u);
    if (std::binary_search(u_neighbors.begin(), u_neighbors.end(), v)) {
      continue;
    }
    negatives.push_back(CandidateLink{u, v});
  }
  return true;
}

}  // namespace autolock::attack
