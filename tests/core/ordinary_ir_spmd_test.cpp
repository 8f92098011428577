// The SPMD plan engine (fork P persistent workers once, barrier per phase),
// forced through compile_plan with EngineChoice::kSpmd, plus the run_spmd
// region it runs on.
#include <gtest/gtest.h>

#include <atomic>
#include <type_traits>

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

/// Compile an SPMD plan for `sys` and run it on `workers` threads.
template <typename Op>
std::vector<typename Op::Value> spmd_solve(const Op& op, const OrdinaryIrSystem& sys,
                                           std::vector<typename Op::Value> init,
                                           std::size_t workers,
                                           OrdinaryIrStats* stats = nullptr) {
  ExecOptions exec;
  exec.workers = workers;
  exec.ordinary_stats = stats;
  return execute_plan(compile_plan(sys, testing::engine_options(EngineChoice::kSpmd)), op,
                      std::move(init), exec);
}

TEST(SpmdIrTest, MatchesSequentialSingleWorker) {
  support::SplitMix64 rng(101);
  const auto sys = random_ordinary_system(300, 400, rng, 0.8);
  const auto init = random_initial_u64(400, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  EXPECT_EQ(spmd_solve(op, sys, init, 1), ordinary_ir_sequential(op, sys, init));
}

TEST(SpmdIrTest, MatchesSequentialAcrossWorkerCounts) {
  support::SplitMix64 rng(102);
  const auto sys = random_ordinary_system(1000, 1400, rng, 0.9);
  const auto init = random_initial_u64(1400, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  const auto expect = ordinary_ir_sequential(op, sys, init);
  for (std::size_t workers : {2u, 3u, 4u, 7u}) {
    EXPECT_EQ(spmd_solve(op, sys, init, workers), expect) << workers;
  }
}

TEST(SpmdIrTest, NonCommutativeOrderPreserved) {
  support::SplitMix64 rng(103);
  const auto sys = random_ordinary_system(200, 300, rng, 0.8);
  std::vector<std::string> init(300);
  for (std::size_t c = 0; c < 300; ++c) init[c] = std::string(1, char('a' + c % 26));
  EXPECT_EQ(spmd_solve(ConcatMonoid{}, sys, init, 4),
            ordinary_ir_sequential(ConcatMonoid{}, sys, init));
}

TEST(SpmdIrTest, RoundsMatchOneLevelEngine) {
  support::SplitMix64 rng(104);
  const auto sys = random_ordinary_system(2000, 2600, rng, 0.9);
  const auto init = random_initial_u64(2600, rng);
  const auto op = AddMonoid<std::uint64_t>{};

  OrdinaryIrStats one_level;
  ExecOptions exec;
  exec.ordinary_stats = &one_level;
  (void)execute_plan(compile_plan(sys, testing::engine_options(EngineChoice::kJumping)), op, init,
                     exec);

  OrdinaryIrStats spmd;
  (void)spmd_solve(op, sys, init, 3, &spmd);
  EXPECT_EQ(spmd.rounds, one_level.rounds);
}

TEST(SpmdIrTest, EmptySystem) {
  OrdinaryIrSystem sys{4, {}, {}};
  EXPECT_EQ(spmd_solve(AddMonoid<std::uint64_t>{}, sys, {9, 8, 7, 6}, 4),
            (std::vector<std::uint64_t>{9, 8, 7, 6}));
}

TEST(SpmdIrTest, MoreWorkersThanEquations) {
  OrdinaryIrSystem sys{4, {0, 1}, {1, 2}};
  const std::vector<std::uint64_t> init{1, 10, 100, 1000};
  EXPECT_EQ(spmd_solve(AddMonoid<std::uint64_t>{}, sys, init, 16),
            ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, sys, init));
}

TEST(SpmdRegionTest, SliceCoversRange) {
  parallel::run_spmd(5, [](parallel::SpmdContext& ctx) {
    const auto [begin, end] = ctx.slice(23);
    EXPECT_LE(begin, end);
    EXPECT_LE(end, 23u);
  });
}

TEST(SpmdRegionTest, BarrierSynchronizes) {
  std::vector<int> stage(4, 0);
  parallel::run_spmd(4, [&](parallel::SpmdContext& ctx) {
    stage[ctx.worker()] = 1;
    ctx.barrier();
    for (int s : stage) EXPECT_EQ(s, 1);  // all workers passed stage 1
    ctx.barrier();
    stage[ctx.worker()] = 2;
  });
  for (int s : stage) EXPECT_EQ(s, 2);
}

TEST(SpmdRegionTest, ExceptionIsRethrownWithoutDeadlock) {
  EXPECT_THROW(parallel::run_spmd(3,
                                  [](parallel::SpmdContext& ctx) {
                                    if (ctx.worker() == 1) throw std::runtime_error("w1");
                                    ctx.barrier();  // others still pass
                                  }),
               std::runtime_error);
}

TEST(SpmdRegionTest, RejectsZeroWorkers) {
  EXPECT_THROW(parallel::run_spmd(0, [](parallel::SpmdContext&) {}),
               support::ContractViolation);
}

TEST(SpmdIrTest, HooksCalledExactlyOncePerIteration) {
  // Buffer construction used to fill val/new_val with self_value(0) copies:
  // n + peak_active spurious hook calls.  The hooks may be stateful (the
  // Möbius solver counts on exact call counts), so the SPMD executor must
  // call self_value exactly once per iteration and root_value once per root.
  OrdinaryIrSystem sys;
  sys.cells = 9;
  sys.g = {1, 2, 3, 4, 5, 6, 7, 8};
  sys.f = {0, 1, 2, 3, 0, 5, 6, 7};  // two chains rooted at cell 0
  std::vector<std::uint64_t> init(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) init[c] = 10 + c;

  PlanOptions options;
  options.engine = EngineChoice::kSpmd;
  const Plan plan = compile_plan(sys, options);

  std::atomic<std::size_t> root_calls{0};
  std::atomic<std::size_t> self_calls{0};
  ExecOptions exec;
  exec.workers = 3;
  const auto op = AddMonoid<std::uint64_t>{};
  const auto traces = execute_iteration_values<AddMonoid<std::uint64_t>>(
      plan, op,
      [&](std::size_t cell) {
        ++root_calls;
        return init[cell];
      },
      [&](std::size_t i) {
        ++self_calls;
        return init[sys.g[i]];
      },
      exec);

  EXPECT_EQ(self_calls.load(), sys.iterations());
  EXPECT_EQ(root_calls.load(), 2u);  // exactly the two chain roots
  ASSERT_EQ(traces.size(), sys.iterations());
  const auto expected = ordinary_ir_sequential(op, sys, init);
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    EXPECT_EQ(traces[i], expected[sys.g[i]]) << i;
  }
}

namespace {

/// A value type without a default constructor: forces the SPMD executor's
/// sequential-seed path (it cannot resize buffers, so it must construct every
/// entry from the hooks — still exactly once each).
struct Tagged {
  std::uint64_t v;
  explicit Tagged(std::uint64_t value) : v(value) {}
  friend bool operator==(const Tagged&, const Tagged&) = default;
};

struct TaggedAdd {
  using Value = Tagged;
  static constexpr bool is_commutative = true;
  Value combine(const Value& a, const Value& b) const { return Tagged(a.v + b.v); }
};

}  // namespace

TEST(SpmdIrTest, NonDefaultConstructibleValuesStillSeedOncePerIteration) {
  static_assert(!std::is_default_constructible_v<Tagged>);
  OrdinaryIrSystem sys;
  sys.cells = 6;
  sys.g = {1, 2, 3, 4, 5};
  sys.f = {0, 1, 2, 3, 4};  // one chain
  PlanOptions options;
  options.engine = EngineChoice::kSpmd;
  const Plan plan = compile_plan(sys, options);

  std::atomic<std::size_t> self_calls{0};
  ExecOptions exec;
  exec.workers = 2;
  const auto traces = execute_iteration_values<TaggedAdd>(
      plan, TaggedAdd{}, [](std::size_t cell) { return Tagged(100 + cell); },
      [&](std::size_t i) {
        ++self_calls;
        return Tagged(i + 1);
      },
      exec);
  EXPECT_EQ(self_calls.load(), sys.iterations());
  // Chain i folds root 100 + all self values 1..i+1.
  ASSERT_EQ(traces.size(), 5u);
  std::uint64_t acc = 100;
  for (std::size_t i = 0; i < 5; ++i) {
    acc += i + 1;
    EXPECT_EQ(traces[i].v, acc) << i;
  }
}

}  // namespace
}  // namespace ir::core
