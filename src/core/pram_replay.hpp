// Indexed recurrences on the PRAM cost simulator — the Figure-3 experiment
// and its general-IR analogue.
//
// The paper evaluates a processor-capped version of the Section-2 algorithm
// on the SimParC simulator: Figure 3 plots simulated running time in
// "assembly instructions" against the number of processors P for n = 50,000,
// with the original sequential loop as the flat baseline, giving
// T(n, P) = (n/P)·log n for the parallel curve.  Section 4 states the GIR
// costs (O(log n) rounds, powers as atomic operations) without measuring
// them.
//
// These drivers run all three programs against ir::pram::Machine so the
// curves can be regenerated (bench_fig3_pram, bench_gir_pram).  They derive
// no schedule of their own: the ordinary driver replays a compiled kJumping
// plan round by round, and the GIR driver runs graph/cap.hpp's per-node
// substitute-and-merge inside machine steps.  They are also real executions
// — outputs are checked against the host solvers in tests — and the
// machine's access audit proves the schedules CREW-clean.
//
// Cost conventions (see pram/cost_model.hpp): one value, pointer or
// adjacency-row load/store = one shared read/write; one ⊙, label multiply,
// label add or atomic power a^k = one apply_op; bookkeeping = local ops.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/general_ir.hpp"
#include "core/plan.hpp"
#include "graph/cap.hpp"
#include "pram/machine.hpp"
#include "support/contract.hpp"

namespace ir::core {

/// The original loop, run on the simulator's single-process sequential mode:
///     for i: A[g(i)] := op(A[f(i)], A[h(i)])
/// Charged per iteration: two shared reads, one ⊙, one shared write.
/// Ordinary systems pass GeneralIrSystem::from_ordinary (h = g).
template <algebra::BinaryOperation Op>
std::vector<typename Op::Value> pram_original_loop(const Op& op, const GeneralIrSystem& sys,
                                                   std::vector<typename Op::Value> values,
                                                   pram::Machine& machine) {
  sys.validate();
  IR_REQUIRE(values.size() == sys.cells, "initial array must have `cells` entries");
  machine.sequential(sys.iterations(), [&](pram::Pe& pe, std::size_t i) {
    const auto left = pe.read(values[sys.f[i]]);
    const auto right = pe.read(values[sys.h[i]]);
    pe.apply_op();
    pe.write(values[sys.g[i]], op.combine(left, right));
  });
  return values;
}

/// Replay a kJumping plan on the simulator, processor-capped to
/// machine.processors().  Returns the final array.
///
/// Step structure (each a synchronous machine step):
///   1. seed, over all n traces: load trace i's first predecessor into the
///      next-pointer array N and seed val[i] (roots fold in root_cell),
///   2. one step per schedule round, and at least one
///        val[i] ← val[N[i]] ⊙ val[i];  N[i] ← N[N[i]]
///      Round 0 covers all n traces, so completed ones (the roots) pay only
///      the pointer load; round r > 0 covers exactly round_span(r), the
///      traces still live.  Every round item also pays one local op of
///      active-list bookkeeping,
///   3. one scatter step writing the traces back to the array.
/// The first predecessors are machine input, as the paper's N array is; the
/// machine's N must agree with the plan's src on every move.
template <algebra::BinaryOperation Op>
std::vector<typename Op::Value> pram_jumping_replay(const Op& op, const Plan& plan,
                                                    std::vector<typename Op::Value> initial,
                                                    pram::Machine& machine) {
  using Value = typename Op::Value;
  IR_REQUIRE(plan.engine == PlanEngine::kJumping, "the PRAM replay needs a kJumping plan");
  IR_REQUIRE(initial.size() == plan.cells, "initial array must have `cells` entries");
  const JumpSchedule& js = plan.jump;
  const std::size_t n = plan.iterations;
  if (n == 0) return initial;

  std::vector<std::uint32_t> first_pred(n, kNoIndex32);
  if (js.rounds() > 0) {
    const auto [begin, end] = js.round_span(0);
    for (std::size_t k = begin; k < end; ++k) first_pred[js.dst[k]] = js.src[k];
  }
  std::vector<std::uint32_t> next(n);
  std::vector<Value> val(n, initial[0]);

  machine.step(n, [&](pram::Pe& pe, std::size_t i) {
    const std::uint32_t p = pe.read(first_pred[i]);
    pe.write(next[i], p);
    const std::uint32_t root = plan.root_cell[i];
    IR_INVARIANT((p == kNoIndex32) == (root != kNoIndex32),
                 "a trace is a chain root iff round 0 has no move for it");
    const Value self = pe.read(initial[plan.write_cell[i]]);
    if (root != kNoIndex32) {
      const Value left = pe.read(initial[root]);
      pe.apply_op();
      pe.write(val[i], op.combine(left, self));
    } else {
      pe.write(val[i], self);
    }
  });

  auto jump = [&](pram::Pe& pe, std::size_t i, std::uint32_t src) {
    pe.local();  // active-list bookkeeping
    const std::uint32_t p = pe.read(next[i]);
    IR_INVARIANT(p == src, "the machine's next pointer disagrees with the plan's src");
    if (p == kNoIndex32) return;  // completed trace: pays only the pointer load
    const Value left = pe.read(val[p]);
    const Value right = pe.read(val[i]);
    pe.apply_op();
    pe.write(val[i], op.combine(left, right));
    pe.write(next[i], pe.read(next[p]));
  };
  machine.step(n, [&](pram::Pe& pe, std::size_t i) { jump(pe, i, first_pred[i]); });
  for (std::size_t r = 1; r < js.rounds(); ++r) {
    const auto [begin, end] = js.round_span(r);
    machine.step(end - begin, [&, begin = begin](pram::Pe& pe, std::size_t k) {
      jump(pe, js.dst[begin + k], js.src[begin + k]);
    });
  }

  // g is injective on ordinary plans, so the scatter is EREW.
  std::vector<Value> result = std::move(initial);
  machine.step(n, [&](pram::Pe& pe, std::size_t i) {
    pe.write(result[plan.write_cell[i]], pe.read(val[i]));
  });
  return result;
}

/// Parallel GIR on the simulator: graph build (one step), CAP rounds (one
/// step each, one item per node), powered evaluation (one step, one item
/// per written cell).  Returns the final array; equals general_ir_sequential
/// for the commutative ops the GIR route requires.
///
/// Each CAP item runs cap_closure's own substitute_node + coalesce_edges and
/// is charged from the row sizes: one local op per edge examined, one
/// shared read per non-leaf row it substitutes through, one apply_op per
/// label product (Fig. 7) and per label sum (Fig. 8), one local op per edge
/// emitted, and one whole-row write.  Writes replace whole adjacency rows,
/// so the machine's buffered write phase is CAP's synchronous-round
/// semantics.
template <algebra::PowerOperation Op>
std::vector<typename Op::Value> pram_general_ir(const Op& op, const GeneralIrSystem& sys,
                                                std::vector<typename Op::Value> initial,
                                                pram::Machine& machine) {
  using Value = typename Op::Value;
  using graph::Edge;
  sys.validate();
  IR_REQUIRE(initial.size() == sys.cells, "initial array must have `cells` entries");
  const std::size_t n = sys.iterations();
  if (n == 0) return initial;

  // Materialize the dependence graph.  The host builds it; the step charges
  // each equation its edge emissions.
  const DependenceGraph dep = build_dependence_graph(sys);
  const std::size_t nodes = dep.dag.node_count();
  std::vector<std::vector<Edge>> adjacency(nodes);
  std::vector<bool> is_leaf(nodes);
  machine.step(n, [&](pram::Pe& pe, std::size_t i) {
    pe.write(adjacency[i], dep.dag.out_edges(i));
    pe.local(dep.dag.out_edges(i).size());
  });
  for (std::size_t v = 0; v < nodes; ++v) is_leaf[v] = dep.dag.is_leaf(v);

  while (!graph::cap_converged(adjacency, is_leaf)) {
    machine.step(nodes, [&](pram::Pe& pe, std::size_t v) {
      std::size_t products = 0;
      for (const Edge& e : adjacency[v]) {
        if (!is_leaf[e.to]) products += pe.read(adjacency[e.to]).size();
      }
      std::vector<Edge> row = graph::substitute_node(adjacency, is_leaf, v);
      const std::size_t composites = row.size();
      graph::coalesce_edges(row);
      pe.local(adjacency[v].size());
      pe.apply_op(products);
      pe.apply_op(composites - row.size());
      pe.local(row.size());
      pe.write(adjacency[v], std::move(row));
    });
  }

  const std::vector<std::size_t> last = final_writer(sys.g, sys.cells);
  std::vector<std::size_t> written_cells;
  for (std::size_t c = 0; c < sys.cells; ++c) {
    if (last[c] != kNone) written_cells.push_back(c);
  }
  std::vector<Value> result = initial;
  const std::vector<Value>& frozen = initial;  // leaves read pre-loop values
  machine.step(written_cells.size(), [&](pram::Pe& pe, std::size_t k) {
    const std::size_t cell = written_cells[k];
    const std::vector<Edge>& powers = pe.read(adjacency[last[cell]]);
    IR_INVARIANT(!powers.empty(), "equation node must reach a leaf");
    pe.apply_op(powers.size() - 1);  // the ⊙-fold of the terms
    pe.write(result[cell],
             detail::fold_powered_terms(
                 op, powers.size(),
                 [&](std::size_t t) {
                   pe.apply_op();  // atomic power
                   return pe.read(frozen[dep.leaf_cell[powers[t].to - dep.iterations]]);
                 },
                 [&](std::size_t t) -> const support::BigUint& { return powers[t].label; }));
  });
  return result;
}

}  // namespace ir::core
