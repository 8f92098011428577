// The work-efficient blocked plan engine (two-level scheme: block-local
// sweeps, then a block-ordered fix-up of the cross-block partials), forced
// through compile_plan with EngineChoice::kBlocked.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "testing/plan_options.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;
using algebra::ConcatMonoid;
using testing::random_initial_u64;
using testing::random_ordinary_system;

/// Blocked plan options; blocks = 0 sizes the partition by the pool hint.
PlanOptions blocked(std::size_t blocks = 0) {
  return testing::engine_options(EngineChoice::kBlocked, blocks);
}

/// Kernel-5-style local chain: f(i) = i-1, g(i) = i.
OrdinaryIrSystem local_chain(std::size_t n) {
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  return sys;
}

TEST(BlockedIrTest, EmptyAndSingle) {
  OrdinaryIrSystem empty{3, {}, {}};
  EXPECT_EQ(execute_plan(compile_plan(empty, blocked()), AddMonoid<std::uint64_t>{}, {1, 2, 3}),
            (std::vector<std::uint64_t>{1, 2, 3}));
  OrdinaryIrSystem one{3, {0}, {1}};
  EXPECT_EQ(execute_plan(compile_plan(one, blocked()), AddMonoid<std::uint64_t>{}, {1, 2, 3}),
            (std::vector<std::uint64_t>{1, 3, 3}));
}

TEST(BlockedIrTest, LocalChainIsWorkEfficient) {
  const std::size_t n = 4096;
  const auto sys = local_chain(n);
  std::vector<std::uint64_t> init(n + 1, 1);
  const auto op = AddMonoid<std::uint64_t>{};
  const auto expect = ordinary_ir_sequential(op, sys, init);

  BlockedIrStats stats;
  ExecOptions exec;
  exec.blocked_stats = &stats;
  EXPECT_EQ(execute_plan(compile_plan(sys, blocked(8)), op, init, exec), expect);
  EXPECT_EQ(stats.blocks, 8u);
  // Blocks 1..7 are entirely downstream of the cross-block head, so every
  // equation there is partial: 7/8 of n.
  EXPECT_EQ(stats.partials, n - n / 8);
  // Work stays O(n): one ⊙ per equation (minus the 7 op-free heads) plus
  // one per partial — far below pointer jumping's ~n·log2(n) = ~49k.
  EXPECT_EQ(stats.op_applications, (n - 7) + (n - n / 8));
  EXPECT_EQ(stats.resolve_rounds, 7u);
}

TEST(BlockedIrTest, ScatteredSystemDegradesGracefully) {
  support::SplitMix64 rng(91);
  const auto sys = random_ordinary_system(2000, 3000, rng, 0.9);
  const auto init = random_initial_u64(3000, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  BlockedIrStats stats;
  ExecOptions exec;
  exec.blocked_stats = &stats;
  EXPECT_EQ(execute_plan(compile_plan(sys, blocked(16)), op, init, exec),
            ordinary_ir_sequential(op, sys, init));
  EXPECT_GT(stats.partials, 100u);  // scattered preds cross blocks often
}

TEST(BlockedIrTest, NonCommutativeOrderPreserved) {
  support::SplitMix64 rng(92);
  for (int trial = 0; trial < 6; ++trial) {
    const auto sys = random_ordinary_system(120, 200, rng, 0.8);
    std::vector<std::string> init(200);
    for (std::size_t c = 0; c < 200; ++c) init[c] = std::string(1, char('a' + c % 26));
    EXPECT_EQ(execute_plan(compile_plan(sys, blocked(1 + static_cast<std::size_t>(trial))),
                           ConcatMonoid{}, init),
              ordinary_ir_sequential(ConcatMonoid{}, sys, init))
        << "trial " << trial;
  }
}

TEST(BlockedIrTest, PooledMatches) {
  support::SplitMix64 rng(93);
  const auto sys = random_ordinary_system(3000, 4000, rng, 0.85);
  const auto init = random_initial_u64(4000, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  parallel::ThreadPool pool(4);
  PlanOptions options = blocked();
  options.pool = &pool;  // one block per pool thread
  ExecOptions exec;
  exec.pool = &pool;
  BlockedIrStats stats;
  exec.blocked_stats = &stats;
  EXPECT_EQ(execute_plan(compile_plan(sys, options), op, init, exec),
            ordinary_ir_sequential(op, sys, init));
  EXPECT_EQ(stats.blocks, 4u);
}

TEST(BlockedIrTest, SingleBlockEqualsSequentialWork) {
  const std::size_t n = 1000;
  const auto sys = local_chain(n);
  std::vector<std::uint64_t> init(n + 1, 2);
  BlockedIrStats stats;
  ExecOptions exec;
  exec.blocked_stats = &stats;
  const auto op = AddMonoid<std::uint64_t>{};
  EXPECT_EQ(execute_plan(compile_plan(sys, blocked(1)), op, init, exec),
            ordinary_ir_sequential(op, sys, init));
  EXPECT_EQ(stats.partials, 0u);
  EXPECT_EQ(stats.op_applications, n);  // exactly one ⊙ per equation
  EXPECT_EQ(stats.resolve_rounds, 0u);
}

// Sweep across sizes, aliasing and block counts.
struct BlockedSweepParam {
  std::size_t iterations;
  std::size_t cells;
  double rewire;
  std::size_t blocks;
  std::uint64_t seed;
};

class BlockedIrSweepTest : public ::testing::TestWithParam<BlockedSweepParam> {};

TEST_P(BlockedIrSweepTest, MatchesSequential) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed);
  const auto sys = random_ordinary_system(p.iterations, p.cells, rng, p.rewire);
  const auto init = random_initial_u64(p.cells, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  EXPECT_EQ(execute_plan(compile_plan(sys, blocked(p.blocks)), op, init),
            ordinary_ir_sequential(op, sys, init));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedIrSweepTest,
    ::testing::Values(BlockedSweepParam{1, 2, 0.0, 1, 1}, BlockedSweepParam{2, 3, 1.0, 2, 2},
                      BlockedSweepParam{50, 60, 0.5, 3, 3},
                      BlockedSweepParam{500, 700, 0.9, 7, 4},
                      BlockedSweepParam{1000, 1200, 0.2, 16, 5},
                      BlockedSweepParam{2048, 2048, 0.8, 64, 6},
                      BlockedSweepParam{333, 999, 1.0, 333, 7},
                      BlockedSweepParam{100, 150, 0.7, 1000, 8}));

}  // namespace
}  // namespace ir::core
