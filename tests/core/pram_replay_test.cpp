#include "core/pram_replay.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "testing/plan_options.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;
using algebra::ConcatMonoid;
using algebra::ModAddMonoid;
using algebra::ModMulMonoid;
using testing::random_general_system;
using testing::random_initial_u64;
using testing::random_ordinary_system;

// ---- Ordinary IR: the Figure-3 programs -----------------------------------

/// The original loop of an ordinary system (h = g) on the simulator.
template <typename Op>
std::vector<typename Op::Value> original_loop(const Op& op, const OrdinaryIrSystem& sys,
                                              std::vector<typename Op::Value> init,
                                              pram::Machine& machine) {
  return pram_original_loop(op, GeneralIrSystem::from_ordinary(sys), std::move(init), machine);
}

/// The system's kJumping plan replayed on the simulator.
template <typename Op>
std::vector<typename Op::Value> replay(const Op& op, const OrdinaryIrSystem& sys,
                                       std::vector<typename Op::Value> init,
                                       pram::Machine& machine) {
  const Plan plan = compile_plan(sys, testing::engine_options(EngineChoice::kJumping));
  return pram_jumping_replay(op, plan, std::move(init), machine);
}

TEST(PramIrTest, OriginalLoopMatchesHostSequential) {
  support::SplitMix64 rng(1);
  const auto sys = random_ordinary_system(100, 150, rng);
  const auto init = random_initial_u64(150, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  pram::Machine machine(1);
  EXPECT_EQ(original_loop(op, sys, init, machine),
            ordinary_ir_sequential(op, sys, init));
}

TEST(PramIrTest, ParallelMatchesSequentialOnSimulator) {
  support::SplitMix64 rng(2);
  const auto op = AddMonoid<std::uint64_t>{};
  for (std::size_t p : {1u, 2u, 7u, 32u, 1000u}) {
    const auto sys = random_ordinary_system(200, 280, rng);
    const auto init = random_initial_u64(280, rng);
    pram::Machine machine(p);
    EXPECT_EQ(replay(op, sys, init, machine),
              ordinary_ir_sequential(op, sys, init))
        << "P=" << p;
  }
}

TEST(PramIrTest, ScheduleIsCrewClean) {
  // The audit throws on any write conflict (and we run in CREW mode, so
  // concurrent reads are allowed — pointer jumping needs them).
  support::SplitMix64 rng(3);
  const auto sys = random_ordinary_system(300, 400, rng, 0.9);
  const auto init = random_initial_u64(400, rng);
  pram::Machine machine(16, pram::AccessMode::kCrew);
  EXPECT_NO_THROW(
      replay(AddMonoid<std::uint64_t>{}, sys, init, machine));
}

TEST(PramIrTest, ScheduleNeedsConcurrentReads) {
  // Two equations whose predecessors coincide force a concurrent read of the
  // shared predecessor's value: EREW must reject, CREW must accept.
  OrdinaryIrSystem sys;
  sys.cells = 4;
  sys.f = {0, 1, 1};  // iterations 1 and 2 both read cell 1 (written by 0)
  sys.g = {1, 2, 3};
  const std::vector<std::uint64_t> init{1, 2, 3, 4};
  const auto op = AddMonoid<std::uint64_t>{};
  pram::Machine crew(4, pram::AccessMode::kCrew);
  EXPECT_NO_THROW(replay(op, sys, init, crew));
  pram::Machine erew(4, pram::AccessMode::kErew);
  EXPECT_THROW(replay(op, sys, init, erew), pram::AccessConflict);
}

TEST(PramIrTest, StepComplexity) {
  // Steps: 1 init + rounds + 1 scatter, rounds <= ceil(log2 n).
  const std::size_t n = 512;
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  std::vector<std::uint64_t> init(n + 1, 1);
  pram::Machine machine(64);
  replay(AddMonoid<std::uint64_t>{}, sys, init, machine);
  EXPECT_LE(machine.stats().steps, 2 + static_cast<std::size_t>(std::bit_width(n)));
  EXPECT_GE(machine.stats().steps, 2 + static_cast<std::size_t>(std::bit_width(n)) - 2);
}

TEST(PramIrTest, TimeScalesInverselyWithProcessors) {
  // T(n, P) = (n/P) log n: doubling P should roughly halve simulated time in
  // the regime P << n.
  support::SplitMix64 rng(4);
  const auto sys = random_ordinary_system(4096, 5000, rng, 0.9);
  const auto init = random_initial_u64(5000, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  std::vector<std::uint64_t> times;
  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    pram::Machine machine(p, pram::AccessMode::kCrew, pram::CostModel{}, /*audit=*/false);
    replay(op, sys, init, machine);
    times.push_back(machine.stats().time);
  }
  for (std::size_t k = 1; k < times.size(); ++k) {
    const double ratio = static_cast<double>(times[k - 1]) / static_cast<double>(times[k]);
    EXPECT_GT(ratio, 1.6) << "step " << k;
    EXPECT_LT(ratio, 2.4) << "step " << k;
  }
}

TEST(PramIrTest, ParallelBeatsSequentialOnlyWithEnoughProcessors) {
  // The Figure-3 crossover: at P = 1 the parallel algorithm pays the log n
  // factor; at large P it wins.
  support::SplitMix64 rng(5);
  const auto sys = random_ordinary_system(4096, 5000, rng, 0.9);
  const auto init = random_initial_u64(5000, rng);
  const auto op = AddMonoid<std::uint64_t>{};

  pram::Machine sequential(1, pram::AccessMode::kCrew, pram::CostModel{}, false);
  original_loop(op, sys, init, sequential);

  pram::Machine one(1, pram::AccessMode::kCrew, pram::CostModel{}, false);
  replay(op, sys, init, one);
  EXPECT_GT(one.stats().time, sequential.stats().time);

  pram::Machine many(256, pram::AccessMode::kCrew, pram::CostModel{}, false);
  replay(op, sys, init, many);
  EXPECT_LT(many.stats().time, sequential.stats().time);
}

TEST(PramIrTest, NonCommutativeMatchesOnSimulator) {
  support::SplitMix64 rng(7);
  const auto sys = random_ordinary_system(60, 90, rng);
  std::vector<std::string> init(90);
  for (std::size_t c = 0; c < 90; ++c) init[c] = std::string(1, char('a' + c % 26));
  pram::Machine machine(8);
  EXPECT_EQ(replay(ConcatMonoid{}, sys, init, machine),
            ordinary_ir_sequential(ConcatMonoid{}, sys, init));
}

TEST(PramIrTest, ReplayRejectsOtherEngines) {
  // Only the pointer-jumping schedule has rounds to replay.
  support::SplitMix64 rng(8);
  const auto sys = random_ordinary_system(50, 80, rng);
  const std::vector<std::uint64_t> init(80, 1);
  pram::Machine machine(4);
  const Plan blocked = compile_plan(sys, testing::engine_options(EngineChoice::kBlocked));
  EXPECT_THROW(pram_jumping_replay(AddMonoid<std::uint64_t>{}, blocked, init, machine),
               support::ContractViolation);
}

TEST(PramIrTest, ReplayChecksNextPointersAgainstPlan) {
  // The machine's next-pointer array evolves by its own jumps; a schedule
  // whose later-round src disagrees with it must be caught, not replayed.
  OrdinaryIrSystem sys;
  sys.cells = 9;
  for (std::size_t i = 0; i < 8; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  Plan plan = compile_plan(sys, testing::engine_options(EngineChoice::kJumping));
  ASSERT_GE(plan.jump.rounds(), 2u);
  const std::vector<std::uint64_t> init(9, 1);
  pram::Machine machine(4);
  EXPECT_EQ(pram_jumping_replay(AddMonoid<std::uint64_t>{}, plan, init, machine),
            ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, sys, init));
  const std::size_t k = plan.jump.round_span(1).first;
  plan.jump.src[k] = plan.jump.src[k] == 0 ? 1 : 0;
  pram::Machine tampered(4);
  EXPECT_THROW(pram_jumping_replay(AddMonoid<std::uint64_t>{}, plan, init, tampered),
               support::InternalError);
}

// ---- General IR: the FIG-GIR programs -------------------------------------

GeneralIrSystem fibonacci_system(std::size_t n) {
  GeneralIrSystem sys;
  sys.cells = n;
  for (std::size_t i = 2; i < n; ++i) {
    sys.f.push_back(i - 1);
    sys.g.push_back(i);
    sys.h.push_back(i - 2);
  }
  return sys;
}

TEST(GirPramTest, OriginalLoopMatchesHost) {
  support::SplitMix64 rng(121);
  const auto sys = random_general_system(150, 100, rng, 0.7);
  ModAddMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(100);
  for (auto& v : init) v = rng.below(1000);
  pram::Machine machine(1);
  EXPECT_EQ(pram_original_loop(op, sys, init, machine),
            general_ir_sequential(op, sys, init));
}

TEST(GirPramTest, ParallelMatchesAcrossProcessorCounts) {
  support::SplitMix64 rng(122);
  const auto sys = random_general_system(200, 120, rng, 0.7);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(120);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  const auto expect = general_ir_sequential(op, sys, init);
  for (std::size_t p : {1u, 4u, 64u}) {
    pram::Machine machine(p, pram::AccessMode::kCrew, pram::CostModel{}, false);
    EXPECT_EQ(pram_general_ir(op, sys, init, machine), expect) << "P=" << p;
  }
}

TEST(GirPramTest, ScheduleIsCrewClean) {
  const auto sys = fibonacci_system(40);
  ModMulMonoid op(999999937ull);
  std::vector<std::uint64_t> init(40, 3);
  pram::Machine machine(8, pram::AccessMode::kCrew);  // audit ON
  EXPECT_EQ(pram_general_ir(op, sys, init, machine),
            general_ir_sequential(op, sys, init));
}

TEST(GirPramTest, StepCountIsLogarithmic) {
  // Steps = 1 (graph) + CAP rounds (~log depth) + 1 (evaluation).
  const auto sys = fibonacci_system(130);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(130, 2);
  pram::Machine machine(64, pram::AccessMode::kCrew, pram::CostModel{}, false);
  (void)pram_general_ir(op, sys, init, machine);
  EXPECT_LE(machine.stats().steps, 2u + 9u);  // ceil(log2 128) = 7, plus slack
  EXPECT_GE(machine.stats().steps, 2u + 5u);
}

TEST(GirPramTest, TimeDecreasesWithProcessors) {
  support::SplitMix64 rng(123);
  const auto sys = random_general_system(600, 300, rng, 0.7);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(300);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  std::uint64_t previous = ~0ull;
  for (std::size_t p : {1u, 4u, 16u, 64u}) {
    pram::Machine machine(p, pram::AccessMode::kCrew, pram::CostModel{}, false);
    (void)pram_general_ir(op, sys, init, machine);
    EXPECT_LE(machine.stats().time, previous) << "P=" << p;
    previous = machine.stats().time;
  }
}

TEST(GirPramTest, EmptySystem) {
  GeneralIrSystem sys{3, {}, {}, {}};
  ModAddMonoid op(97);
  pram::Machine machine(4);
  EXPECT_EQ(pram_general_ir(op, sys, {1, 2, 3}, machine),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(machine.stats().steps, 0u);
}

}  // namespace
}  // namespace ir::core
