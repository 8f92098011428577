// compile-cold: closed loop, one caller, a stream of never-seen systems in
// equal shares of four shapes:
//   ord    random ordinary system, n = 50k
//   chain  f(i) = i-1 chain, n = 50k, at a random offset (so chains differ)
//   gir    random general system, n = 2,000, the CAP route
//   fib    A[i+2] := A[i+1]·A[i], n drawn from 150–250, at a random offset
// Each system is compiled by Solver::compile with no store attached (and
// the ThreadPool passed as PlanOptions::pool), executed once for the oracle
// check, PlanStore::put into a scratch store, and loaded back by a fresh
// Solver reading through that store.  Compile, the CAP closure, verify and
// plan-file load dominate; the plan cache sees only misses.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/analyze.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan_io.hpp"
#include "core/serialize.hpp"
#include "core/solver.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"
#include "verify/verify.hpp"
#include "workloads.hpp"

namespace irbench {

namespace {

using namespace ir;
using Value = std::uint64_t;

constexpr int kShapes = 4;
const char* const kShapeNames[kShapes] = {"ord", "chain", "gir", "fib"};

/// One generated system: ordinary shapes keep their ordinary form (the
/// Solver compiles them through the ordinary overload), general ones not.
struct Input {
  bool ordinary = false;
  core::OrdinaryIrSystem ord;
  core::GeneralIrSystem general;  // the GIR view of either
};

struct Generator {
  explicit Generator(std::uint64_t seed) : rng(seed) {}

  Input next(int shape, const core::PlanOptions& options) {
    for (;;) {
      Input in = draw(shape);
      const std::uint64_t key = in.ordinary ? core::plan_cache_key(in.ord, options)
                                            : core::plan_cache_key(in.general, options);
      if (seen.insert(key).second) return in;  // never-seen: a fresh key
    }
  }

  Input draw(int shape) {
    Input in;
    switch (shape) {
      case 0:
        in.ordinary = true;
        in.ord = ir::bench::random_ordinary_system(50'000, 62'500, rng);
        break;
      case 1: {
        in.ordinary = true;
        const std::size_t offset = rng.below(4096);
        in.ord = chain_system(50'000);
        in.ord.cells += offset;
        for (auto& f : in.ord.f) f += offset;
        for (auto& g : in.ord.g) g += offset;
        break;
      }
      case 2:
        in.general = ir::bench::random_general_system(2'000, 2'500, rng);
        break;
      default:
        in.general = fib_system(150 + rng.below(101), rng.below(64));
        break;
    }
    if (in.ordinary) in.general = core::GeneralIrSystem::from_ordinary(in.ord);
    return in;
  }

  support::SplitMix64 rng;
  std::unordered_set<std::uint64_t> seen;
};

/// Per-shape samples of one measured phase.
struct Samples {
  std::vector<double> compile_ms[kShapes];  // Solver::compile
  std::vector<double> cycle_s;             // compile + execute + put + warm load
  std::vector<double> cold_ms[kShapes];    // compile + one execute
  std::vector<double> seq_ms[kShapes];     // the sequential loop
  std::vector<double> warm_load_ms[kShapes];
  // Layer replays (traced phase only).
  std::vector<double> compile_plan_ms[kShapes];
  std::vector<double> analyze_ms[kShapes];
  std::vector<double> cap_rounds[kShapes];
  std::vector<double> cap_peak_edges[kShapes];
  std::vector<double> cap_live[kShapes];
  std::vector<double> load_ms, decode_ms, verify_ms, file_bytes;
};

struct State {
  std::unique_ptr<parallel::ThreadPool> pool;
  core::PlanOptions options;
  std::unique_ptr<core::Solver> solver;  // no store: every compile is cold
  std::unique_ptr<core::PlanStore> store;
  std::unique_ptr<Generator> gen;
};

template <typename Fn>
double timed_ms(const char* name, Fn&& fn) {
  return timed_us(name, std::forward<Fn>(fn)) * 1e-3;
}

std::vector<Value> solve_sequential(const algebra::ModMulMonoid& op, const Input& in,
                                    std::vector<Value> values) {
  return in.ordinary ? core::ordinary_ir_sequential(op, in.ord, std::move(values))
                     : core::general_ir_sequential(op, in.general, std::move(values));
}

std::shared_ptr<const core::Plan> compile_with(core::Solver& solver, const Input& in,
                                               const core::PlanOptions& options) {
  return in.ordinary ? solver.compile(in.ord, options) : solver.compile(in.general, options);
}

/// Compile, check, store and reload one never-seen system.
void run_system(State& state, int shape, const algebra::ModMulMonoid& op, bool replay,
                Samples& samples, Ledger& ledger) {
  Span cycle_span("cold.system");
  const Input in = state.gen->next(shape, state.options);
  const std::vector<Value> initial = ir::bench::random_initial_u64(in.general.cells,
                                                                   state.gen->rng);
  std::vector<Value> expected;
  samples.seq_ms[shape].push_back(
      timed_ms("seq.solve", [&] { expected = solve_sequential(op, in, initial); }));

  // Cold solve: compile a never-seen system, execute it once.
  const std::uint64_t compiles_before = state.solver->plan_compiles();
  std::shared_ptr<const core::Plan> plan;
  const double compile_ms =
      timed_ms("core.compile", [&] { plan = compile_with(*state.solver, in, state.options); });
  core::ExecOptions exec;
  exec.pool = state.pool.get();
  std::vector<Value> out;
  const double execute_ms =
      timed_ms("core.execute", [&] { out = core::execute_plan(*plan, op, initial, exec); });
  ledger.attempt();
  if (ledger.corrupt_next() && !out.empty()) out.back() ^= 1;
  if (state.solver->plan_compiles() != compiles_before + 1) {
    ledger.fail(std::string(kShapeNames[shape]) + ": compile of a never-seen system hit");
  } else if (out != expected) {
    ledger.fail(std::string(kShapeNames[shape]) + ": solve differs from the sequential loop");
  }

  // Store round trip: put, then a fresh Solver loads it on its first compile.
  const double put_ms = timed_ms("core.plan_io.put", [&] {
    const core::PlanKeyWords words = in.ordinary
                                         ? core::plan_key_words(in.ord, state.options)
                                         : core::plan_key_words(in.general, state.options);
    state.store->put(words, *plan, in.general);
  });
  core::SolverConfig config;
  config.plan_store = state.store.get();
  config.store_writes = false;
  core::Solver fresh(config);
  std::shared_ptr<const core::Plan> loaded;
  const double warm_ms =
      timed_ms("core.plan_io.warm_load", [&] { loaded = compile_with(fresh, in, state.options); });
  ledger.attempt();
  if (ledger.corrupt_next()) expected.back() ^= 1;
  if (fresh.plan_compiles() != 0) {
    ledger.fail(std::string(kShapeNames[shape]) + ": the store rejected a plan it just stored");
  } else if (core::execute_plan(*loaded, op, initial, exec) != expected) {
    ledger.fail(std::string(kShapeNames[shape]) + ": loaded plan differs from the loop");
  }

  samples.compile_ms[shape].push_back(compile_ms);
  samples.cold_ms[shape].push_back(compile_ms + execute_ms);
  samples.warm_load_ms[shape].push_back(warm_ms);
  samples.cycle_s.push_back((compile_ms + execute_ms + put_ms + warm_ms) * 1e-3);

  if (replay) {
    // The layer functions the compile and the load are made of, one by one.
    core::SystemReport report;
    samples.analyze_ms[shape].push_back(timed_ms("core.analyze", [&] {
      report = in.ordinary ? core::analyze(in.ord) : core::analyze(in.general);
    }));
    core::Plan direct;
    samples.compile_plan_ms[shape].push_back(timed_ms("core.compile_plan", [&] {
      direct = in.ordinary ? core::compile_plan(in.ord, state.options)
                           : core::compile_plan(in.general, state.options);
    }));
    if (direct.engine == core::PlanEngine::kGeneralCap) {
      samples.cap_rounds[shape].push_back(static_cast<double>(direct.gir.cap_rounds));
      samples.cap_peak_edges[shape].push_back(static_cast<double>(direct.gir.cap_peak_edges));
      samples.cap_live[shape].push_back(static_cast<double>(direct.gir.live_equations));
    }
    const core::PlanKeyWords words = in.ordinary
                                         ? core::plan_key_words(in.ord, state.options)
                                         : core::plan_key_words(in.general, state.options);
    auto bytes = std::make_shared<const std::string>(core::serialize_plan(*plan, in.general,
                                                                          words));
    samples.file_bytes.push_back(static_cast<double>(bytes->size()));
    samples.load_ms.push_back(
        timed_ms("core.plan_io.load", [&] { (void)core::load_plan(bytes); }));
    const std::string text = core::to_text(in.general);
    samples.decode_ms.push_back(
        timed_ms("core.plan_io.decode", [&] { (void)core::system_from_text(text); }));
    samples.verify_ms.push_back(timed_ms("verify.plan", [&] {
      const verify::VerifyReport report_v = verify::verify_plan(*plan, in.general);
      if (!report_v.ok()) ledger.fail("verify_plan rejected a compiled plan");
    }));
  }
  std::filesystem::remove(state.store->entry_path(core::plan_cache_key(in.general,
                                                                       state.options)));
}

Samples measure(State& state, double seconds, const algebra::ModMulMonoid& op, bool replay,
                Ledger& ledger) {
  Samples samples;
  const double end = now_s() + seconds;
  // Whole rounds only, so the four shapes keep equal shares.
  for (std::size_t i = 0; now_s() < end || i % kShapes != 0; ++i) {
    run_system(state, static_cast<int>(i % kShapes), op, replay, samples, ledger);
  }
  return samples;
}

/// Geometric mean over shapes of quantile q of per-shape samples (q = 0.5
/// of the compile time is the headline latency).  The shapes' times differ
/// by up to 5x, so a quantile of the pooled samples would jump between
/// shapes from run to run.
double geomean_quantile(const std::vector<double> (&per_shape)[kShapes], double q) {
  std::vector<double> quantiles;
  for (const auto& samples : per_shape) quantiles.push_back(quantile(samples, q));
  return geomean(quantiles);
}

std::unique_ptr<State> set_up(const Options& options, const std::string& store_dir,
                              const algebra::ModMulMonoid& op, Ledger& ledger) {
  auto state = std::make_unique<State>();
  state->pool = std::make_unique<parallel::ThreadPool>(host_nproc());
  state->options.pool = state->pool.get();
  state->solver = std::make_unique<core::Solver>();
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);
  state->store = std::make_unique<core::PlanStore>(store_dir);
  state->gen = std::make_unique<Generator>(options.seed);
  // Warm-up: one system of each shape, so first-touch costs (code pages,
  // allocator arenas, the pool's threads) are not charged to the first
  // timed compile.
  Samples discard;
  for (int shape = 0; shape < kShapes; ++shape) {
    run_system(*state, shape, op, false, discard, ledger);
  }
  return state;
}

}  // namespace

void run_compile_cold(const Options& options, Ledger& ledger) {
  const algebra::ModMulMonoid op(kModulus);
  // The scratch store lives in the checkout's build tree and is removed on
  // every exit path.
  const std::string store_dir =
      ".bench_build/irbench-store-" + std::to_string(static_cast<long>(::getpid()));
  struct RemoveStore {
    std::string dir;
    ~RemoveStore() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } remove_store{store_dir};
  std::vector<double> setup_s;
  const std::unique_ptr<State> state =
      repeat_set_up([&] { return set_up(options, store_dir, op, ledger); }, setup_s);

  if (!options.trace) {
    const Samples s = measure(*state, options.seconds, op, false, ledger);
    std::vector<double> speedup;
    for (int shape = 0; shape < kShapes; ++shape) {
      speedup.push_back(median(s.seq_ms[shape]) / median(s.cold_ms[shape]));
      std::printf("shape %-6s systems=%zu compile p50=%.4f p90=%.4f ms, compile+execute "
                  "p50=%.4f ms, sequential loop %.4f ms\n",
                  kShapeNames[shape], s.cold_ms[shape].size(), median(s.compile_ms[shape]),
                  quantile(s.compile_ms[shape], 0.9), median(s.cold_ms[shape]),
                  median(s.seq_ms[shape]));
    }
    std::printf("warm load p50 %.4f ms (geometric mean over shapes) over %zu loads\n",
                geomean_quantile(s.warm_load_ms, 0.5), s.cycle_s.size());
    const std::uint64_t n = s.cycle_s.size();
    ledger.metric("setup_s", median(setup_s), setup_s.size());
    ledger.metric("latency_p50_ms", geomean_quantile(s.compile_ms, 0.5), n);
    ledger.metric("throughput_per_s", chunked_rate(s.cycle_s, 8), n);
    ledger.metric("speedup_vs_sequential", geomean(speedup), n);
    ledger.metric("peak_rss_mb", peak_rss_mb(), 1);
    return;
  }

  const Samples plain = measure(*state, options.seconds / 2, op, false, ledger);
  Tracer::instance().enable(true);
  const Samples traced = measure(*state, options.seconds / 2, op, true, ledger);
  Tracer::instance().enable(false);
  const double plain_ms = geomean_quantile(plain.compile_ms, 0.5);
  ledger.metric("trace.overhead_share",
                (geomean_quantile(traced.compile_ms, 0.5) - plain_ms) / plain_ms,
                traced.cycle_s.size());
  ledger.metric("e2e.latency_tail_ms", geomean_quantile(plain.compile_ms, 0.9),
                plain.cycle_s.size());
  for (int shape = 0; shape < kShapes; ++shape) {
    const std::string name = kShapeNames[shape];
    ledger.metric("core.compile." + name + "_ms", median(traced.compile_plan_ms[shape]),
                  traced.compile_plan_ms[shape].size());
    ledger.metric("core.analyze." + name + "_ms", median(traced.analyze_ms[shape]),
                  traced.analyze_ms[shape].size());
    if (name == "gir" || name == "fib") {
      ledger.metric("graph.cap." + name + ".rounds", median(traced.cap_rounds[shape]),
                    traced.cap_rounds[shape].size());
      ledger.metric("graph.cap." + name + ".peak_edges", median(traced.cap_peak_edges[shape]),
                    traced.cap_peak_edges[shape].size());
      ledger.metric("graph.cap." + name + ".live_equations", median(traced.cap_live[shape]),
                    traced.cap_live[shape].size());
    }
  }
  ledger.metric("core.plan_io.load_ms", median(traced.load_ms), traced.load_ms.size());
  ledger.metric("core.plan_io.decode_ms", median(traced.decode_ms), traced.decode_ms.size());
  ledger.metric("core.plan_io.warm_load_ms", geomean_quantile(traced.warm_load_ms, 0.5),
                traced.cycle_s.size());
  ledger.metric("verify.plan_ms", median(traced.verify_ms), traced.verify_ms.size());
  ledger.metric("core.plan_io.file_bytes", median(traced.file_bytes),
                traced.file_bytes.size());
  ledger.metric("core.plan_io.rejects", static_cast<double>(state->store->rejects()), 1);
  const core::PlanCache& cache = state->solver->plan_cache();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  ledger.metric("core.plan_cache.hit_ratio",
                lookups == 0 ? 0.0 : static_cast<double>(cache.hits()) / lookups,
                cache.hits() + cache.misses());
}

}  // namespace irbench
