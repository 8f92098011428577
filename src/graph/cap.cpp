#include "graph/cap.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "parallel/parallel_for.hpp"

namespace ir::graph {

void coalesce_edges(std::vector<Edge>& edges) {
  if (edges.size() <= 1) return;
  std::unordered_map<NodeId, std::size_t> slot;
  std::vector<Edge> merged;
  merged.reserve(edges.size());
  for (auto& e : edges) {
    auto [it, inserted] = slot.try_emplace(e.to, merged.size());
    if (inserted) {
      merged.push_back(std::move(e));
    } else {
      merged[it->second].label += e.label;
    }
  }
  edges = std::move(merged);
}

std::vector<Edge> substitute_node(const std::vector<std::vector<Edge>>& adjacency,
                                  const std::vector<bool>& is_leaf, NodeId v) {
  std::vector<Edge> next;
  next.reserve(adjacency[v].size());
  for (const auto& edge : adjacency[v]) {
    if (is_leaf[edge.to]) {
      next.push_back(edge);
      continue;
    }
    for (const auto& hop : adjacency[edge.to]) {
      next.push_back(Edge{hop.to, edge.label * hop.label});
    }
  }
  return next;
}

bool cap_converged(const std::vector<std::vector<Edge>>& adjacency,
                   const std::vector<bool>& is_leaf) {
  for (const auto& edges : adjacency) {
    for (const auto& e : edges) {
      if (!is_leaf[e.to]) return false;
    }
  }
  return true;
}

CapResult cap_closure(const LabeledDag& graph, const CapOptions& options) {
  graph.verify_acyclic();
  const std::size_t n = graph.node_count();
  IR_REQUIRE(options.active.empty() || options.active.size() == n,
             "active mask must cover every node");
  const bool restricted = !options.active.empty();
  auto is_active = [&](NodeId v) { return !restricted || options.active[v]; };
  if (restricted) {
    for (NodeId v = 0; v < n; ++v) {
      if (!options.active[v]) continue;
      for (const auto& e : graph.out_edges(v)) {
        IR_REQUIRE(options.active[e.to],
                   "active mask must be closed under reachability");
      }
    }
  }

  std::vector<bool> is_leaf(n);
  std::vector<std::vector<Edge>> adjacency(n);
  std::size_t edges_now = 0;
  for (NodeId v = 0; v < n; ++v) {
    is_leaf[v] = graph.is_leaf(v);
    if (is_active(v)) adjacency[v] = graph.out_edges(v);
    edges_now += adjacency[v].size();
  }

  CapResult result;
  result.peak_edges = edges_now;

  // Upper bound on rounds: path length halves per round, paths have at most
  // n edges, plus slack for the final no-op verification round.
  const std::size_t max_rounds = std::bit_width(n) + 2;

  while (!cap_converged(adjacency, is_leaf)) {
    IR_INVARIANT(result.rounds < max_rounds, "CAP failed to converge (graph bug)");

    std::vector<std::vector<Edge>> next(n);
    auto relax = [&](std::size_t v) {
      next[v] = substitute_node(adjacency, is_leaf, v);
      if (options.coalesce_each_round) coalesce_edges(next[v]);
    };
    if (options.pool != nullptr) {
      parallel::parallel_for(*options.pool, n, relax);
    } else {
      for (NodeId v = 0; v < n; ++v) relax(v);
    }
    adjacency = std::move(next);

    edges_now = 0;
    for (const auto& edges : adjacency) edges_now += edges.size();
    result.peak_edges = std::max(result.peak_edges, edges_now);
    ++result.rounds;
  }

  if (!options.coalesce_each_round) {
    for (auto& edges : adjacency) coalesce_edges(edges);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (is_leaf[v]) adjacency[v] = {Edge{v, PathCount{1}}};
  }
  result.counts = std::move(adjacency);
  return result;
}

std::vector<std::vector<Edge>> path_counts_reference(const LabeledDag& graph) {
  const auto order = graph.topological_order();
  IR_REQUIRE(order.has_value(), "graph contains a cycle");
  const std::size_t n = graph.node_count();
  std::vector<std::vector<Edge>> counts(n);

  // Producers come last in a consumer->producer topological order, so walk
  // it backwards: every node's successors are finished when it is reached.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId v = *it;
    if (graph.is_leaf(v)) {
      counts[v] = {Edge{v, PathCount{1}}};
      continue;
    }
    std::vector<Edge> acc;
    for (const auto& edge : graph.out_edges(v)) {
      for (const auto& leaf_count : counts[edge.to]) {
        acc.push_back(Edge{leaf_count.to, edge.label * leaf_count.label});
      }
    }
    coalesce_edges(acc);
    counts[v] = std::move(acc);
  }
  return counts;
}

namespace {
PathCount count_paths_rec(const LabeledDag& graph, NodeId from, NodeId to) {
  if (from == to) return PathCount{1};
  PathCount total;
  for (const auto& edge : graph.out_edges(from)) {
    total += edge.label * count_paths_rec(graph, edge.to, to);
  }
  return total;
}
}  // namespace

PathCount count_paths_exhaustive(const LabeledDag& graph, NodeId from, NodeId to) {
  graph.verify_acyclic();
  return count_paths_rec(graph, from, to);
}

}  // namespace ir::graph
