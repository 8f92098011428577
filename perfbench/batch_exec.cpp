// batch-exec: closed loop, one caller, one ThreadPool of nproc threads.
//
// Three shapes, each with its kAuto plan compiled during set-up:
//   ord     random ordinary system, n = 200k, K = 16 value sets per
//           Solver::execute_many call (BatchView)
//   chain   f(i) = i-1 chain, n = 200k, the kScan route, K = 16 likewise
//   linear  affine chain x[i+1] = a_i x[i] + b_i, n = 100k, doubles, one
//           value set per linear_ir_parallel call (a shared-solver cache hit)
// Execute dominates: there is no decode, compile or store work in the loop.
// Every round also times the sequential loop on one value set of each
// shape, so the ratio to the loop is taken under the same machine load.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/linear_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/solver.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"
#include "verify/cost.hpp"
#include "workloads.hpp"

namespace irbench {

namespace {

using namespace ir;
using Value = std::uint64_t;
using Batch = core::BatchView<Value>;

constexpr std::size_t kLanes = 16;
constexpr std::size_t kBatches = 2;     // value-set batches cycled per u64 shape
constexpr std::size_t kLinearSets = 4;  // value sets cycled on the linear shape
constexpr double kLinearRelTol = 1e-8;  // tests/core/linear_ir_test.cpp's bound

struct U64Shape {
  const char* name = "";
  const char* execute_span = "";
  const char* seq_span = "";
  core::OrdinaryIrSystem sys;
  std::shared_ptr<const core::Plan> plan;
  std::vector<Batch> batches;
  std::vector<std::vector<std::uint64_t>> expected;  // [batch][lane] output hash
  std::vector<Value> seq_input;
};

struct LinearShape {
  core::LinearIrLoop loop;
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> expected;
};

struct State {
  std::unique_ptr<parallel::ThreadPool> pool;
  core::Solver solver;
  U64Shape ord;
  U64Shape chain;
  LinearShape linear;
};

/// FNV-1a over a value array: the oracle gate compares these for the u64
/// shapes, where keeping every expected array would cost gigabytes.
constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;
std::uint64_t hash_step(std::uint64_t h, std::uint64_t v) { return (h ^ v) * 0x100000001b3ull; }

/// Per-shape samples of one measured phase.
struct Samples {
  std::vector<double> per_set_us[3];  // route time per value set, per call
  std::vector<double> seq_us[3];      // sequential loop, one value set
};

std::vector<std::uint64_t> lane_hashes(const Batch& batch) {
  std::vector<std::uint64_t> hashes(batch.lanes(), kHashSeed);
  for (std::size_t cell = 0; cell < batch.cells(); ++cell) {
    const Value* row = batch.row(cell);
    for (std::size_t lane = 0; lane < batch.lanes(); ++lane) {
      hashes[lane] = hash_step(hashes[lane], row[lane]);
    }
  }
  return hashes;
}

void build_u64_shape(U64Shape& shape, core::OrdinaryIrSystem sys, State& state,
                     support::SplitMix64& rng, const algebra::ModMulMonoid& op) {
  shape.sys = std::move(sys);
  core::PlanOptions options;
  options.pool = state.pool.get();
  shape.plan = state.solver.compile(shape.sys, options);
  const std::size_t cells = shape.sys.cells;
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<std::vector<Value>> rows(kLanes);
    std::vector<std::uint64_t> hashes;
    for (auto& row : rows) {
      row = ir::bench::random_initial_u64(cells, rng);
      const auto out = core::ordinary_ir_sequential(op, shape.sys, row);
      std::uint64_t h = kHashSeed;
      for (const Value v : out) h = hash_step(h, v);
      hashes.push_back(h);
    }
    shape.seq_input = rows.front();
    shape.batches.push_back(Batch::from_rows(rows, cells));
    shape.expected.push_back(std::move(hashes));
  }
}

std::unique_ptr<State> set_up(const Options& options, const algebra::ModMulMonoid& op) {
  auto state = std::make_unique<State>();
  state->pool = std::make_unique<parallel::ThreadPool>(host_nproc());
  support::SplitMix64 rng(options.seed);
  state->ord.name = "ord";
  state->ord.execute_span = "core.execute.ord";
  state->ord.seq_span = "seq.ord";
  build_u64_shape(state->ord, ir::bench::random_ordinary_system(200'000, 250'000, rng),
                  *state, rng, op);
  state->chain.name = "chain";
  state->chain.execute_span = "core.execute.chain";
  state->chain.seq_span = "seq.chain";
  build_u64_shape(state->chain, chain_system(200'000), *state, rng, op);

  LinearShape& linear = state->linear;
  const std::size_t n = 100'000;
  linear.loop.system = chain_system(n);
  for (std::size_t i = 0; i < n; ++i) {
    linear.loop.mul.push_back(rng.uniform(0.5, 1.0));
    linear.loop.add.push_back(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t k = 0; k < kLinearSets; ++k) {
    std::vector<double> x(n + 1);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    linear.expected.push_back(core::linear_ir_sequential(linear.loop, x));
    linear.inputs.push_back(std::move(x));
  }
  // Warm-up: the linear route compiles its plan into the shared solver on
  // its first call; every timed call is then a cache hit.
  core::OrdinaryIrOptions exec;
  exec.pool = state->pool.get();
  (void)core::linear_ir_parallel(linear.loop, linear.inputs.front(), exec);
  return state;
}

void run_u64_round(U64Shape& shape, std::size_t index, std::size_t round, State& state,
                   const algebra::ModMulMonoid& op, Samples& samples, Ledger& ledger) {
  {
    const std::uint64_t start = now_ns();
    Span span(shape.seq_span);
    const auto out = core::ordinary_ir_sequential(op, shape.sys, shape.seq_input);
    samples.seq_us[index].push_back(static_cast<double>(now_ns() - start) * 1e-3);
    if (out.size() != shape.sys.cells) ledger.fail("sequential loop lost cells");
  }
  const std::size_t b = round % kBatches;
  Batch input = shape.batches[b];  // the call consumes its batch; copy untimed
  core::ExecOptions exec;
  exec.pool = state.pool.get();
  Batch result;
  const double us = timed_us(shape.execute_span, [&] {
    result = state.solver.execute_many(*shape.plan, op, std::move(input), exec);
  });
  samples.per_set_us[index].push_back(us / static_cast<double>(kLanes));

  ledger.attempt(kLanes);
  std::vector<std::uint64_t> hashes = lane_hashes(result);
  hashes.resize(kLanes);  // a short batch fails its missing lanes
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    if (ledger.corrupt_next()) hashes[lane] ^= 1;
    if (hashes[lane] != shape.expected[b][lane]) {
      ledger.fail(std::string(shape.name) + ": value set " + std::to_string(lane) +
                  " differs from the sequential loop");
    }
  }
}

void run_linear_round(LinearShape& linear, std::size_t round, State& state,
                      Samples& samples, Ledger& ledger) {
  const std::size_t k = round % kLinearSets;
  {
    const std::uint64_t start = now_ns();
    Span span("seq.linear");
    const auto out = core::linear_ir_sequential(linear.loop, linear.inputs[k]);
    samples.seq_us[2].push_back(static_cast<double>(now_ns() - start) * 1e-3);
    if (out.size() != linear.inputs[k].size()) ledger.fail("sequential loop lost cells");
  }
  core::OrdinaryIrOptions exec;
  exec.pool = state.pool.get();
  std::vector<double> out;
  const double us = timed_us("core.execute.linear", [&] {
    out = core::linear_ir_parallel(linear.loop, linear.inputs[k], exec);
  });
  samples.per_set_us[2].push_back(us);

  ledger.attempt();
  if (ledger.corrupt_next() && !out.empty()) out.back() += 1.0;
  const std::vector<double>& want = linear.expected[k];
  bool ok = out.size() == want.size();
  for (std::size_t i = 0; ok && i < want.size(); ++i) {
    ok = std::fabs(out[i] - want[i]) <= kLinearRelTol * std::max(1.0, std::fabs(want[i]));
  }
  if (!ok) ledger.fail("linear: value set differs from the sequential loop");
}

Samples measure(State& state, double seconds, const algebra::ModMulMonoid& op,
                Ledger& ledger) {
  Samples samples;
  const double end = now_s() + seconds;
  std::size_t round = 0;
  do {  // at least one round, so every shape has a sample
    Span span("batch.round");
    run_u64_round(state.ord, 0, round, state, op, samples, ledger);
    run_u64_round(state.chain, 1, round, state, op, samples, ledger);
    run_linear_round(state.linear, round, state, samples, ledger);
    ++round;
  } while (now_s() < end);
  return samples;
}

/// Geometric mean over shapes of quantile q of the time per value set, in
/// ms (q = 0.5 is the headline latency).
double geomean_quantile_ms(const Samples& s, double q) {
  std::vector<double> per_shape;
  for (const auto& per_set : s.per_set_us) per_shape.push_back(quantile(per_set, q) * 1e-3);
  return geomean(per_shape);
}

/// Bytes a schedule moves per value set, computed (not measured): each op
/// application reads two values and writes one, and names two 4-byte
/// indices.
double computed_bytes(std::size_t ops, std::size_t value_bytes) {
  return static_cast<double>(ops) * static_cast<double>(3 * value_bytes + 2 * 4);
}

void record_execute_counts(const char* name, std::size_t n, std::size_t ops,
                           std::size_t rounds, std::size_t value_bytes, Ledger& ledger) {
  const std::string prefix = std::string("core.execute.") + name;
  ledger.metric(prefix + ".ops", static_cast<double>(ops), 1);
  ledger.metric(prefix + ".work_ratio", static_cast<double>(ops) / static_cast<double>(n), 1);
  ledger.metric(prefix + ".rounds", static_cast<double>(rounds), 1);
  ledger.metric(prefix + ".bytes", computed_bytes(ops, value_bytes), 1);
}

void record_u64_layers(const U64Shape& shape, const algebra::ModMulMonoid& op,
                       Ledger& ledger) {
  // One scalar execute with the engine's counters attached (the wide
  // executor reports the same schedule counts for jumping and scan plans).
  core::OrdinaryIrStats ordinary;
  core::BlockedIrStats blocked;
  core::ExecOptions exec;
  exec.ordinary_stats = &ordinary;
  exec.blocked_stats = &blocked;
  (void)core::execute_plan(*shape.plan, op, shape.seq_input, exec);
  const bool is_blocked = shape.plan->engine == core::PlanEngine::kBlocked;
  record_execute_counts(shape.name, shape.sys.iterations(),
                        is_blocked ? blocked.op_applications : ordinary.op_applications,
                        is_blocked ? blocked.resolve_rounds : ordinary.rounds, sizeof(Value),
                        ledger);
  const verify::CostReport cost = verify::cost_plan(*shape.plan);
  ledger.metric(std::string("verify.cost.") + shape.name + ".work",
                static_cast<double>(cost.work), 1);
  ledger.metric(std::string("verify.cost.") + shape.name + ".depth",
                static_cast<double>(cost.depth), 1);
  std::printf("plan %s: %s\n", shape.name, shape.plan->describe().c_str());
}

}  // namespace

void run_batch_exec(const Options& options, Ledger& ledger) {
  const algebra::ModMulMonoid op(kModulus);
  std::vector<double> setup_s;
  const std::unique_ptr<State> state =
      repeat_set_up([&] { return set_up(options, op); }, setup_s);
  std::printf("setup: %zu threads in the pool; set-up median %.4f s over %zu\n",
              state->pool->size(), median(setup_s), setup_s.size());

  const char* names[3] = {"ord", "chain", "linear"};
  if (!options.trace) {
    const Samples s = measure(*state, options.seconds, op, ledger);
    std::vector<double> rate, speedup;
    for (int i = 0; i < 3; ++i) {
      const double med_us = median(s.per_set_us[i]);
      std::vector<double> per_set_s;
      for (const double us : s.per_set_us[i]) per_set_s.push_back(us * 1e-6);
      rate.push_back(chunked_rate(per_set_s, 8));
      speedup.push_back(median(s.seq_us[i]) / med_us);
      std::printf("shape %-6s calls=%zu per_set p50=%.4f p90=%.4f ms seq=%.4f ms "
                  "speedup=%.4f sets/s=%.1f\n",
                  names[i], s.per_set_us[i].size(), med_us * 1e-3,
                  quantile(s.per_set_us[i], 0.9) * 1e-3, median(s.seq_us[i]) * 1e-3,
                  speedup.back(), rate.back());
    }
    const std::uint64_t calls = s.per_set_us[0].size();
    ledger.metric("setup_s", median(setup_s), setup_s.size());
    ledger.metric("latency_p50_ms", geomean_quantile_ms(s, 0.5), calls);
    ledger.metric("throughput_per_s", geomean(rate), calls);
    ledger.metric("speedup_vs_sequential", geomean(speedup), calls);
    ledger.metric("peak_rss_mb", peak_rss_mb(), 1);
    return;
  }

  // Traced: an untraced half, then a traced half; the overhead share is
  // taken on the headline time per value set.
  const Samples plain = measure(*state, options.seconds / 2, op, ledger);
  Tracer::instance().enable(true);
  const Samples traced = measure(*state, options.seconds / 2, op, ledger);
  const double plain_ms = geomean_quantile_ms(plain, 0.5);
  ledger.metric("trace.overhead_share",
                (geomean_quantile_ms(traced, 0.5) - plain_ms) / plain_ms,
                traced.per_set_us[0].size());
  ledger.metric("e2e.latency_tail_ms", geomean_quantile_ms(plain, 0.9),
                plain.per_set_us[0].size());
  for (int i = 0; i < 3; ++i) {
    ledger.metric(std::string("core.execute.") + names[i] + "_us",
                  median(traced.per_set_us[i]), traced.per_set_us[i].size());
    ledger.metric(std::string("seq.") + names[i] + "_us", median(traced.seq_us[i]),
                  traced.seq_us[i].size());
  }
  Tracer::instance().enable(false);
  record_u64_layers(state->ord, op, ledger);
  record_u64_layers(state->chain, op, ledger);
  core::OrdinaryIrStats linear_stats;
  core::OrdinaryIrOptions exec;
  exec.stats = &linear_stats;
  (void)core::linear_ir_parallel(state->linear.loop, state->linear.inputs.front(), exec);
  record_execute_counts("linear", state->linear.loop.system.iterations(),
                        linear_stats.op_applications, linear_stats.rounds,
                        sizeof(algebra::MoebiusMap), ledger);
}

}  // namespace irbench
