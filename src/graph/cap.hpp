// CAP — Counting All Paths (paper Definition 2, Figures 7-9).
//
// Given a labeled DAG whose edges point from consumers to producers,
// CAP computes, for every node v, the number of distinct paths from v to
// every *leaf* (node with no outgoing edges), where a path's multiplicity is
// the product of its edge labels.  In the GIR setting the leaves are initial
// array values and the path count is exactly the exponent of that initial
// value in v's trace (paper Lemma on powers / Fig. 5).
//
// The closure runs the paper's iterative scheme: O(log d) rounds (d = longest
// path length) where every edge pointing at a non-leaf node k is replaced by
// the composites through k ("paths multiplication", Fig. 7) and parallel
// edges are merged by summing labels ("paths addition", Fig. 8).  Replaced
// edges are dropped, which is the paper's "deleting marked edges" step.  All
// substitutions inside a round read the round's input graph, so the rounds
// are data-parallel over nodes; pass a thread pool to run them that way.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/labeled_dag.hpp"
#include "parallel/thread_pool.hpp"

namespace ir::graph {

/// Options controlling the CAP closure.
struct CapOptions {
  /// Merge parallel edges after every round (the paper's per-iteration paths
  /// addition).  Turning this off defers merging to the very end — the
  /// ablation bench measures what that costs in intermediate edge volume.
  bool coalesce_each_round = true;

  /// If non-null, rounds are executed in parallel over nodes on this pool.
  parallel::ThreadPool* pool = nullptr;

  /// If non-empty (size == node_count), restrict the closure to the marked
  /// nodes: only they are substituted and only they get counts.  The set
  /// must be closed under reachability (every node a marked node can reach
  /// must be marked) — callers use this to skip dead equations, the paper's
  /// "version which avoids spawning unnecessary processes".  Violations are
  /// detected (a marked node reading an unmarked one throws).
  std::vector<bool> active;
};

/// Result of a CAP closure.
struct CapResult {
  /// counts[v] = edges (leaf, multiplicity): the number of paths from v to
  /// each reachable leaf.  For a leaf L, counts[L] = {(L, 1)} — a leaf's
  /// trace is itself; this keeps GIR evaluation uniform.
  std::vector<std::vector<Edge>> counts;

  /// Rounds executed until closure.
  std::size_t rounds = 0;

  /// Largest intermediate edge count observed (memory high-water mark).
  std::size_t peak_edges = 0;
};

/// Run the CAP closure.  Throws ContractViolation if the graph is cyclic.
[[nodiscard]] CapResult cap_closure(const LabeledDag& graph, const CapOptions& options = {});

/// The closure's building blocks, shared with the PRAM driver
/// (core/pram_replay.hpp) so the simulated rounds run this exact code.
///
/// One CAP round for node v, "paths multiplication" (Fig. 7): every edge to a
/// non-leaf k is replaced by the composites through k; edges to leaves
/// survive unchanged.  Reads only `adjacency`, the round's input graph.
[[nodiscard]] std::vector<Edge> substitute_node(
    const std::vector<std::vector<Edge>>& adjacency, const std::vector<bool>& is_leaf,
    NodeId v);

/// "Paths addition" (Fig. 8): merge duplicate targets by summing labels, in
/// place, keeping each target's first position.
void coalesce_edges(std::vector<Edge>& edges);

/// The closure's stopping test: true once every edge points at a leaf.
[[nodiscard]] bool cap_converged(const std::vector<std::vector<Edge>>& adjacency,
                                 const std::vector<bool>& is_leaf);

/// Reference implementation: reverse-topological dynamic program (the
/// efficient sequential algorithm CAP is the parallel counterpart of).
/// Produces the same `counts` contract as cap_closure.
[[nodiscard]] std::vector<std::vector<Edge>> path_counts_reference(const LabeledDag& graph);

/// Exhaustive path enumeration from `from` to `to` (test oracle; exponential,
/// only for tiny graphs).  Multiplicity of a path = product of edge labels.
[[nodiscard]] PathCount count_paths_exhaustive(const LabeledDag& graph, NodeId from, NodeId to);

}  // namespace ir::graph
