// The static cost & conflict analyzer pinned two ways: golden W/D/steps/
// bank-conflict numbers for each engine's schedule on small deterministic
// systems (so any drift in the model or the compiled tables is loud), and a
// ground-truth validation run on pram::Machine — the predictor's step count,
// round count, and scatter-bank occupancy must match what the simulated
// machine actually does, address trace included.
#include "verify/cost.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "core/pram_replay.hpp"
#include "support/contract.hpp"

namespace ir::verify {
namespace {

using algebra::AddMonoid;
using core::EngineChoice;
using core::OrdinaryIrSystem;
using core::Plan;
using core::PlanOptions;

/// One chain: A[i+1] := A[i] . A[i+1].
OrdinaryIrSystem chain_system(std::size_t n) {
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  return sys;
}

/// A chain whose cells sit `stride` apart: with stride == banks every
/// initial-array access of the seed and scatter steps lands on bank 0, the
/// worst case the conflict model exists to predict.
OrdinaryIrSystem strided_system(std::size_t n, std::size_t stride) {
  OrdinaryIrSystem sys;
  sys.cells = stride * n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(stride * i);
    sys.g.push_back(stride * (i + 1));
  }
  return sys;
}

Plan plan_for(const OrdinaryIrSystem& sys, EngineChoice engine,
              std::size_t blocks = 0) {
  PlanOptions options;
  options.engine = engine;
  if (blocks > 0) options.blocks = blocks;
  return core::compile_plan(sys, options);
}

CostReport cost_at(const Plan& plan, std::size_t banks,
                   BankMode mode = BankMode::kCrew) {
  CostOptions options;
  options.banks = banks;
  options.mode = mode;
  return cost_plan(plan, options);
}

// ---------------------------------------------------------------- goldens

TEST(CostGoldenTest, JumpingChain8) {
  const Plan plan = plan_for(chain_system(8), EngineChoice::kJumping);
  // Work = 1 seed ⊙ (the single root) + 17 moves; depth = 3 rounds + seed;
  // steps = seed + 3 rounds + scatter, matching the machine one-for-one.
  const CostReport r1 = cost_at(plan, 1);
  EXPECT_EQ(r1.engine, "jumping");
  EXPECT_EQ(r1.work, 18u);
  EXPECT_EQ(r1.depth, 4u);
  EXPECT_EQ(r1.steps, 5u);
  EXPECT_EQ(r1.rounds, 3u);
  EXPECT_EQ(r1.peak_footprint, 9u);
  ASSERT_EQ(r1.phases.size(), 5u);
  EXPECT_EQ(r1.phases.front().name, "seed");
  EXPECT_EQ(r1.phases.back().name, "scatter");
  // B=1: every access serializes; the ideal does too, so never any stalls.
  EXPECT_EQ(r1.peak_bank_occupancy, 9u);
  EXPECT_EQ(r1.bank_cycles, 74u);
  EXPECT_EQ(r1.stalls, 0u);
  // Consecutive cells spread perfectly over 8 and 64 banks.
  const CostReport r8 = cost_at(plan, 8);
  EXPECT_EQ(r8.peak_bank_occupancy, 2u);
  EXPECT_EQ(r8.bank_cycles, 11u);
  EXPECT_EQ(r8.stalls, 0u);
  const CostReport r64 = cost_at(plan, 64);
  EXPECT_EQ(r64.peak_bank_occupancy, 1u);
  EXPECT_EQ(r64.bank_cycles, 10u);
  EXPECT_EQ(r64.stalls, 0u);
}

TEST(CostGoldenTest, BlockedChain8ThreeBlocks) {
  const Plan plan = plan_for(chain_system(8), EngineChoice::kBlocked, 3);
  const CostReport r1 = cost_at(plan, 1);
  EXPECT_EQ(r1.engine, "blocked");
  // Work = 6 sweep ⊙ + 5 fix-ups; depth = longest block sweep (3) + the one
  // fix-up layer; steps = seed + 3 sweep sub-steps + 2 resolve rounds +
  // scatter.
  EXPECT_EQ(r1.work, 11u);
  EXPECT_EQ(r1.depth, 4u);
  EXPECT_EQ(r1.steps, 7u);
  EXPECT_EQ(r1.rounds, 2u);
  EXPECT_EQ(r1.peak_footprint, 9u);
  ASSERT_EQ(r1.phases.size(), 4u);
  EXPECT_EQ(r1.phases[1].name, "block sweep");
  EXPECT_EQ(r1.phases[1].steps, 3u);
  EXPECT_EQ(r1.phases[2].name, "resolve");
  EXPECT_EQ(r1.phases[2].steps, 2u);
  EXPECT_EQ(r1.bank_cycles, 62u);
  EXPECT_EQ(r1.stalls, 0u);
  EXPECT_EQ(cost_at(plan, 8).bank_cycles, 15u);
  EXPECT_EQ(cost_at(plan, 8).stalls, 0u);
  EXPECT_EQ(cost_at(plan, 64).bank_cycles, 14u);
  EXPECT_EQ(cost_at(plan, 64).peak_bank_occupancy, 1u);
}

TEST(CostGoldenTest, ScanChain8) {
  const Plan plan = plan_for(chain_system(8), EngineChoice::kScan);
  const CostReport r1 = cost_at(plan, 1);
  EXPECT_EQ(r1.engine, "scan");
  // One segment of 8: W = 8 (root seed + 7 folds), D = 8 — a sequential
  // chain; steps = seed + 8 fold steps + scatter.
  EXPECT_EQ(r1.work, 8u);
  EXPECT_EQ(r1.depth, 8u);
  EXPECT_EQ(r1.steps, 10u);
  EXPECT_EQ(r1.rounds, 0u);
  ASSERT_EQ(r1.phases.size(), 3u);
  EXPECT_EQ(r1.phases[1].name, "scan");
  EXPECT_TRUE(r1.phases[1].sequential);
  // The sequential fold issues one access per cycle regardless of banks —
  // its 21 cycles (14 reads + 7 writes) never count as stalls.
  EXPECT_EQ(r1.phases[1].bank_cycles, 21u);
  EXPECT_EQ(r1.phases[1].stalls, 0u);
  EXPECT_EQ(r1.bank_cycles, 54u);
  EXPECT_EQ(cost_at(plan, 8).bank_cycles, 26u);
  EXPECT_EQ(cost_at(plan, 64).bank_cycles, 25u);
  EXPECT_EQ(cost_at(plan, 64).stalls, 0u);
}

TEST(CostGoldenTest, GirChain8) {
  const Plan plan = plan_for(chain_system(8), EngineChoice::kGeneralCap);
  const CostReport r1 = cost_at(plan, 1);
  EXPECT_EQ(r1.engine, "gir-cap");
  // Entry i folds its i+1 snapshot terms: W = Σ(i) + 8 root powers = 36; the
  // widest entry folds 9 terms pairwise in ceil(log2 9) = 4 levels.
  EXPECT_EQ(r1.work, 36u);
  EXPECT_EQ(r1.depth, 4u);
  EXPECT_EQ(r1.steps, 1u);
  ASSERT_EQ(r1.phases.size(), 1u);
  EXPECT_EQ(r1.phases[0].name, "fold");
  EXPECT_EQ(r1.phases[0].reads, 9u);   // 9 distinct cells after coalescing
  EXPECT_EQ(r1.phases[0].writes, 8u);
  EXPECT_EQ(r1.bank_cycles, 17u);
  EXPECT_EQ(cost_at(plan, 8).bank_cycles, 3u);
  EXPECT_EQ(cost_at(plan, 64).bank_cycles, 2u);
}

TEST(CostGoldenTest, StridedChainConcentratesOnOneBank) {
  // Cells 8 apart: at B=8 every seed read (8 self cells + the root, all
  // ≡ 0 mod 8) and every scatter write serializes on bank 0, while the
  // trace-array traffic stays spread — the predictor must localize the
  // stalls to exactly those two phases.
  const Plan plan = plan_for(strided_system(8, 8), EngineChoice::kJumping);
  const CostReport r1 = cost_at(plan, 1);
  EXPECT_EQ(r1.stalls, 0u);  // one bank is also the ideal
  EXPECT_EQ(r1.peak_bank_occupancy, 9u);

  const CostReport r8 = cost_at(plan, 8);
  EXPECT_EQ(r8.peak_bank_occupancy, 9u);
  EXPECT_EQ(r8.bank_cycles, 25u);
  EXPECT_EQ(r8.stalls, 14u);
  ASSERT_EQ(r8.phases.size(), 5u);
  EXPECT_EQ(r8.phases.front().stalls, 7u);  // seed: 9 reads on bank 0
  EXPECT_EQ(r8.phases.back().stalls, 7u);   // scatter: 8 writes on bank 0
  for (std::size_t round = 1; round + 1 < r8.phases.size(); ++round) {
    EXPECT_EQ(r8.phases[round].stalls, 0u) << "trace array is consecutive";
  }

  // 64 banks: only cells 0 and 64 still collide (one residual stall).
  const CostReport r64 = cost_at(plan, 64);
  EXPECT_EQ(r64.peak_bank_occupancy, 2u);
  EXPECT_EQ(r64.stalls, 1u);

  // More banks never hurt: occupancy and total memory time are monotone.
  EXPECT_GE(r1.bank_cycles, r8.bank_cycles);
  EXPECT_GE(r8.bank_cycles, r64.bank_cycles);
}

TEST(CostGoldenTest, CrcwEqualsCrewOnExclusiveWritePlans) {
  // Write coalescing is the only CRCW/CREW difference, and hazard-free
  // schedules never issue duplicate writes in one step — the two modes must
  // price every certified plan identically.
  for (const EngineChoice engine :
       {EngineChoice::kJumping, EngineChoice::kBlocked, EngineChoice::kScan,
        EngineChoice::kGeneralCap}) {
    const Plan plan = plan_for(chain_system(8), engine, 3);
    const CostReport crew = cost_at(plan, 8, BankMode::kCrew);
    const CostReport crcw = cost_at(plan, 8, BankMode::kCrcw);
    EXPECT_EQ(crew.bank_cycles, crcw.bank_cycles) << crew.engine;
    EXPECT_EQ(crew.stalls, crcw.stalls) << crew.engine;
    EXPECT_EQ(crew.work, crcw.work) << crew.engine;
  }
}

TEST(CostGoldenTest, ReportSurfacesAndContracts) {
  const Plan plan = plan_for(chain_system(8), EngineChoice::kJumping);
  const CostReport report = cost_at(plan, 8);
  const std::string line = report.summary();
  EXPECT_NE(line.find("jumping: W=18 D=4 steps=5 rounds=3"), std::string::npos)
      << line;
  EXPECT_NE(line.find("banks=8/crew"), std::string::npos) << line;
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"work\": 18"), std::string::npos);
  EXPECT_NE(json.find("\"phases\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"scatter\""), std::string::npos);
  EXPECT_THROW(cost_at(plan, 0), support::ContractViolation);
}

// ------------------------------------------- ground truth: pram::Machine

/// Max per-bank occupancy of a set of addresses inside `base[0..cells)`,
/// cell → bank by (index mod banks); addresses outside the array are the
/// machine's trace/pointer traffic and are skipped.  Deduped first: the
/// model coalesces concurrent accesses to one cell.
std::size_t bank_occupancy(const std::vector<const void*>& addresses,
                           const std::uint64_t* base, std::size_t cells,
                           std::size_t banks) {
  std::set<std::size_t> touched;
  for (const void* address : addresses) {
    const auto* cell = static_cast<const std::uint64_t*>(address);
    if (cell < base || cell >= base + cells) continue;
    touched.insert(static_cast<std::size_t>(cell - base));
  }
  std::vector<std::size_t> occupancy(banks, 0);
  std::size_t peak = 0;
  for (const std::size_t index : touched) {
    peak = std::max(peak, ++occupancy[index % banks]);
  }
  return peak;
}

/// Replay the jumping plan on the simulator (every compiled round is one
/// machine step) and check the predictor against the machine's actual
/// behavior: step count, round count, each round's write count, and the bank
/// occupancy of the scatter step's writes into the result array.
void expect_predictions_match_machine(const OrdinaryIrSystem& sys,
                                      const char* context) {
  const Plan plan = plan_for(sys, EngineChoice::kJumping);

  pram::Machine machine(64, pram::AccessMode::kCrew);
  std::vector<pram::Machine::StepAccesses> trace;
  machine.set_step_observer(
      [&](const pram::Machine::StepAccesses& step) { trace.push_back(step); });
  std::vector<std::uint64_t> initial(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) initial[c] = 1 + c;
  const std::vector<std::uint64_t> result = core::pram_jumping_replay(
      AddMonoid<std::uint64_t>{}, plan, std::move(initial), machine);

  // The predictor's step structure is the machine's: seed + rounds + scatter.
  const CostReport report = cost_at(plan, 8);
  EXPECT_EQ(report.steps, machine.stats().steps) << context;
  EXPECT_EQ(report.rounds, machine.stats().steps - 2) << context;
  EXPECT_EQ(report.rounds, plan.jump.rounds()) << context;
  ASSERT_EQ(trace.size(), report.steps) << context;

  // The machine runs the plan's rounds: round r's step (after the seed step)
  // writes val and the next pointer once per move of round_span(r).
  for (std::size_t r = 0; r < plan.jump.rounds(); ++r) {
    const auto [begin, end] = plan.jump.round_span(r);
    EXPECT_EQ(trace[1 + r].writes.size(), 2 * (end - begin)) << context << " round " << r;
  }

  // Ground-truth conflicts: the scatter step's writes land in the result
  // array (whose buffer `result` still owns — vector moves keep it), and
  // their measured per-bank peak must equal the predicted scatter-phase
  // occupancy at every bank width.
  for (const std::size_t banks : {1u, 8u, 64u}) {
    const CostReport predicted = cost_at(plan, banks);
    ASSERT_FALSE(predicted.phases.empty());
    const PhaseCost& scatter = predicted.phases.back();
    const std::size_t measured =
        bank_occupancy(trace.back().writes, result.data(), sys.cells, banks);
    EXPECT_EQ(measured, scatter.peak_bank_occupancy)
        << context << " B=" << banks
        << " (scatter writes vs predicted occupancy)";
  }
}

TEST(CostPramValidationTest, ChainMatchesMachine) {
  expect_predictions_match_machine(chain_system(12), "chain12");
}

TEST(CostPramValidationTest, TreePredecessorsMatchMachine) {
  // f[i] = i/2 gives a shallow, bushy predecessor forest — a different round
  // structure than the chain's.
  OrdinaryIrSystem sys;
  sys.cells = 14;
  for (std::size_t i = 0; i < 13; ++i) {
    sys.f.push_back(i / 2);
    sys.g.push_back(i + 1);
  }
  expect_predictions_match_machine(sys, "tree13");
}

TEST(CostPramValidationTest, ScatteredCellsMatchMachine) {
  // Stride-8 cells: the system whose scatter the bank model flags; the
  // machine's real address trace must reproduce the predicted pile-up.
  expect_predictions_match_machine(strided_system(8, 8), "strided8x8");
}

TEST(CostPramValidationTest, PredictedConflictOrderingIsRealOrdering) {
  // The model's value is comparative: it must rank the scattered layout as
  // strictly worse than the dense chain at B=8, and the machine agrees.
  const Plan dense = plan_for(chain_system(8), EngineChoice::kJumping);
  const Plan sparse = plan_for(strided_system(8, 8), EngineChoice::kJumping);
  const CostReport dense_cost = cost_at(dense, 8);
  const CostReport sparse_cost = cost_at(sparse, 8);
  EXPECT_LT(dense_cost.stalls, sparse_cost.stalls);
  EXPECT_LT(dense_cost.peak_bank_occupancy, sparse_cost.peak_bank_occupancy);
}

}  // namespace
}  // namespace ir::verify
