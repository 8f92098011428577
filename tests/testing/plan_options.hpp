// PlanOptions presets for the solver tests: forced engines, and the paper's
// plain general-IR algorithm.
#pragma once

#include <cstddef>

#include "core/plan.hpp"

namespace ir::testing {

/// PlanOptions forcing `engine`; `blocks` sizes the blocked partition.
inline core::PlanOptions engine_options(core::EngineChoice engine, std::size_t blocks = 0) {
  core::PlanOptions options;
  options.engine = engine;
  options.blocks = blocks;
  return options;
}

/// The paper's plain general-IR algorithm: CAP over every equation, no
/// dead-equation pruning.
inline core::PlanOptions plain_cap_options() {
  core::PlanOptions options = engine_options(core::EngineChoice::kGeneralCap);
  options.prune_dead = false;
  return options;
}

}  // namespace ir::testing
