// Cross-module integration sweeps: every solver route (host sequential, host
// parallel, PRAM-simulated, thread-pooled, GIR-via-CAP, GIR-via-DP) must
// agree on the same random systems — the strongest end-to-end statement of
// the paper's correctness claims this library can execute.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "core/pram_replay.hpp"
#include "testing/plan_options.hpp"
#include "testing/random_systems.hpp"

namespace ir {
namespace {

using algebra::AddMonoid;
using algebra::ModMulMonoid;
using core::EngineChoice;
using core::ExecOptions;
using core::GeneralIrSystem;
using core::PlanOptions;
using testing::engine_options;
using testing::plain_cap_options;

struct IntegrationParam {
  std::size_t iterations;
  std::size_t cells;
  double rewire;
  std::uint64_t seed;
};

class AllRoutesAgreeTest : public ::testing::TestWithParam<IntegrationParam> {};

TEST_P(AllRoutesAgreeTest, OrdinaryRoutes) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed);
  const auto sys = testing::random_ordinary_system(p.iterations, p.cells, rng, p.rewire);
  const auto init = testing::random_initial_u64(p.cells, rng);
  const auto op = AddMonoid<std::uint64_t>{};

  const auto sequential = ordinary_ir_sequential(op, sys, init);

  // Host parallel (no pool).
  const PlanOptions jumping = engine_options(EngineChoice::kJumping);
  EXPECT_EQ(core::execute_plan(core::compile_plan(sys, jumping), op, init), sequential);

  // Host parallel, pooled and capped.
  parallel::ThreadPool pool(3);
  ExecOptions pooled;
  pooled.pool = &pool;
  pooled.processor_cap = 2;
  EXPECT_EQ(core::execute_plan(core::compile_plan(sys, jumping), op, init, pooled), sequential);

  // The jumping plan replayed on the PRAM simulator, audited CREW.
  pram::Machine machine(5, pram::AccessMode::kCrew);
  EXPECT_EQ(core::pram_jumping_replay(op, core::compile_plan(sys, jumping), init, machine),
            sequential);

  // PRAM original loop.
  const auto gir = GeneralIrSystem::from_ordinary(sys);
  pram::Machine baseline(1);
  EXPECT_EQ(core::pram_original_loop(op, gir, init, baseline), sequential);

  // GIR embedding (h := g) through CAP.
  EXPECT_EQ(core::execute_plan(core::compile_plan(gir, plain_cap_options()), op, init), sequential);
}

TEST_P(AllRoutesAgreeTest, GeneralRoutes) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed ^ 0xf00d);
  const auto sys = testing::random_general_system(p.iterations, p.cells, rng, p.rewire);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(p.cells);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);

  const auto sequential = general_ir_sequential(op, sys, init);
  EXPECT_EQ(core::execute_plan(core::compile_plan(sys, plain_cap_options()), op, init), sequential);

  PlanOptions dp = plain_cap_options();
  dp.reference_counts = true;
  EXPECT_EQ(core::execute_plan(core::compile_plan(sys, dp), op, init), sequential);

  parallel::ThreadPool pool(3);
  PlanOptions pooled = plain_cap_options();
  pooled.pool = &pool;
  pooled.coalesce_each_round = false;
  ExecOptions exec;
  exec.pool = &pool;
  EXPECT_EQ(core::execute_plan(core::compile_plan(sys, pooled), op, init, exec), sequential);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllRoutesAgreeTest,
    ::testing::Values(IntegrationParam{1, 1, 0.0, 11}, IntegrationParam{3, 5, 0.5, 12},
                      IntegrationParam{40, 40, 1.0, 13},
                      IntegrationParam{150, 200, 0.7, 14},
                      IntegrationParam{400, 600, 0.85, 15},
                      IntegrationParam{777, 1000, 0.6, 16}));

}  // namespace
}  // namespace ir
