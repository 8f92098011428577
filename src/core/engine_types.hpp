// Statistics and option structs of the ordinary engines, shared by the
// Plan/execute API (plan.hpp) and the Möbius solvers (linear_ir.hpp).  They
// live in their own header so plan.hpp can name them without an include
// cycle.
#pragma once

#include <cstddef>

#include "parallel/thread_pool.hpp"

namespace ir::core {

/// Execution statistics of a parallel Ordinary-IR run (observability for
/// tests and the ablation benches).
struct OrdinaryIrStats {
  std::size_t rounds = 0;           ///< pointer-jumping rounds executed
  std::size_t op_applications = 0;  ///< total ⊙ applications across rounds
  std::size_t peak_active = 0;      ///< widest round (active traces)
};

/// Options for the one-call solvers that run a cached jumping plan
/// (linear_ir.hpp, livermore/parallel.hpp); plan callers pass ExecOptions.
struct OrdinaryIrOptions {
  /// Thread pool for the rounds; nullptr runs them on the calling thread
  /// (still the same O(log n)-round schedule, useful for determinism).
  parallel::ThreadPool* pool = nullptr;

  /// The paper's "fork only up to P processes" cap on logical parallelism.
  /// 0 means "one block per pool thread".
  std::size_t processor_cap = 0;

  /// If non-null, filled with run statistics.
  OrdinaryIrStats* stats = nullptr;
};

/// Statistics of a blocked run.
struct BlockedIrStats {
  std::size_t blocks = 0;           ///< blocks used in phase 1
  std::size_t partials = 0;         ///< equations with cross-block predecessors
  std::size_t resolve_rounds = 0;   ///< blocks with a non-empty fix-up step
  std::size_t op_applications = 0;  ///< total ⊙ applications (work)
};

}  // namespace ir::core
