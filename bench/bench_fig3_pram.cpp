// FIG3 — the paper's Figure 3: simulated running time (in assembly
// instructions) of the parallel Ordinary-IR algorithm versus the original
// sequential loop, for n = 50,000 and P processors, P << n.
//
// The paper ran this on the SimParC simulator and reported
// T(n, P) = (n/P)·log n for the processor-capped parallel version, with the
// sequential loop a flat line that the parallel curve crosses once P grows
// past the log n overhead.  Absolute instruction counts depend on the cost
// model (ours is not SimParC's); the reproduction targets are the SHAPE:
//   * the parallel curve falls ~1/P,
//   * it starts ABOVE the sequential line at P = 1 (the log n factor),
//   * it crosses below around P ≈ c·log n,
//   * it matches the (n/P)·log n model closely (fit column).
//
// Machine-readable output: `bench_fig3_pram --metrics=FILE` writes the flat
// JSON metrics document (pram.* registry counters plus the P→time series)
// for the bench trajectory; see docs/observability.md.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "algebra/monoids.hpp"
#include "bench_report.hpp"
#include "core/plan.hpp"
#include "core/pram_replay.hpp"
#include "obs/metrics_export.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "testing_workloads.hpp"

int main(int argc, char** argv) {
  using namespace ir;

  std::string metrics_file;
  std::string report_file;
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--metrics=", 0) == 0) {
      metrics_file = arg.substr(10);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_file = arg.substr(9);
    } else if (arg == "--smoke") {
      // CI quick mode: small n, few processor counts — exercises the
      // measurement and report paths without the full simulation cost.
      smoke = true;
    }
  }

  const std::size_t n = smoke ? 2000 : 50000;
  const std::size_t max_p = smoke ? 64 : 1024;
  const std::size_t cells = n + n / 2;
  support::SplitMix64 rng(1997);
  const auto sys = bench::random_ordinary_system(n, cells, rng, 0.9);
  const auto init = bench::random_initial_u64(cells, rng);
  const auto op = algebra::AddMonoid<std::uint64_t>{};

  // The sequential baseline ("Original IR Loop"): independent of P.
  pram::Machine baseline(1, pram::AccessMode::kCrew, pram::CostModel{}, /*audit=*/false);
  const auto expected = core::pram_original_loop(op, core::GeneralIrSystem::from_ordinary(sys),
                                                 init, baseline);
  const auto original_time = baseline.stats().time;

  std::printf("FIG3: Ordinary IR on the PRAM simulator, n = %zu\n", n);
  std::printf("Y axis = simulated time in instructions (cost model: see "
              "src/pram/cost_model.hpp)\n\n");

  support::TextTable table;
  table.set_header({"P", "Parallel IR Solution", "Original IR Loop", "parallel/model",
                    "speedup vs P=1"});

  // The parallel program is the compiled pointer-jumping schedule.
  core::PlanOptions jumping;
  jumping.engine = core::EngineChoice::kJumping;
  const core::Plan plan = core::compile_plan(sys, jumping);

  double time_at_p1 = 0.0;
  std::size_t crossover = 0;
  std::string series;  // JSON [[P, simulated_time], ...] for the metrics dump
  std::vector<std::pair<std::size_t, std::uint64_t>> timings;  // P -> instructions
  for (std::size_t p = 1; p <= max_p; p *= 2) {
    pram::Machine machine(p, pram::AccessMode::kCrew, pram::CostModel{}, false);
    const auto out = core::pram_jumping_replay(op, plan, init, machine);
    if (out != expected) {
      std::printf("ERROR: parallel result mismatch at P = %zu\n", p);
      return 1;
    }
    const auto t = machine.stats().time;
    if (p == 1) time_at_p1 = static_cast<double>(t);
    if (crossover == 0 && t < original_time) crossover = p;
    series += (series.empty() ? "[" : ", ");
    series += "[" + std::to_string(p) + ", " + std::to_string(t) + "]";
    timings.emplace_back(p, t);

    // The paper's model: T(n, P) = (n/P) * log2 n, up to the per-item
    // instruction constant; report the ratio so the fit is visible.
    const double model = (static_cast<double>(n) / static_cast<double>(p)) *
                         std::log2(static_cast<double>(n));
    table.add_row({std::to_string(p), std::to_string(t), std::to_string(original_time),
                   support::fmt_f(static_cast<double>(t) / model, 2),
                   support::fmt_f(time_at_p1 / static_cast<double>(t), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("crossover (parallel beats original loop) at P = %zu\n", crossover);
  std::printf("paper shape check: parallel above sequential at P = 1, ~1/P decay, "
              "single crossover — see EXPERIMENTS.md [FIG3]\n");

  if (!metrics_file.empty()) {
    obs::write_metrics_file(
        metrics_file,
        {{"bench", obs::json_quote("fig3_pram")},
         {"n", std::to_string(n)},
         {"original_time", std::to_string(original_time)},
         {"crossover_p", std::to_string(crossover)},
         {"parallel_time_by_p", series + "]"}});
    std::fprintf(stderr, "metrics written to %s\n", metrics_file.c_str());
  }
  if (!report_file.empty()) {
    // The PRAM simulation is deterministic — one sample per variant, in
    // cost-model instructions rather than wall-clock.
    bench::BenchReport report("fig3_pram");
    report.set_config("n", n);
    report.set_config("max_p", max_p);
    report.add_variant("original_loop",
                       {static_cast<double>(original_time)}, "instructions");
    for (const auto& [p, t] : timings) {
      report.add_variant("parallel/P=" + std::to_string(p),
                         {static_cast<double>(t)}, "instructions");
    }
    report.write(report_file);
    std::fprintf(stderr, "bench report written to %s\n", report_file.c_str());
  }
  return 0;
}
