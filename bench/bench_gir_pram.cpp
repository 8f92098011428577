// FIG-GIR (ours) — the Section-4 analogue of the paper's Figure 3: simulated
// running time of the parallel GIR algorithm (dependence graph -> CAP ->
// powered evaluation) versus the original sequential loop, across P.
//
// The paper states the GIR complexity (O(log n) time, up to O(n^3)
// processors) without measuring it; this harness produces the missing curve
// on the same cost model as FIG3.  Expect the same qualitative shape — a
// ~1/P parallel curve crossing the flat sequential line — but with a much
// larger constant (CAP moves labeled edges, not scalars) and a much later
// crossover: exactly the paper's point that general IR is only worth it
// when processors are plentiful.
//
// Machine-readable output: `bench_gir_pram --report=FILE` writes a
// BENCH_*.json report in cost-model instructions (docs/benchmarking.md).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "algebra/monoids.hpp"
#include "bench_report.hpp"
#include "core/pram_replay.hpp"
#include "support/table.hpp"
#include "testing_workloads.hpp"

int main(int argc, char** argv) {
  using namespace ir;

  std::string report_file;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--report=", 0) == 0) report_file = arg.substr(9);
  }

  const std::size_t n = 4000;
  const std::size_t max_p = 16384;
  support::SplitMix64 rng(1997);
  const auto sys = bench::random_general_system(n, n / 2, rng, 0.7);
  algebra::ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(n / 2);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);

  pram::Machine baseline(1, pram::AccessMode::kCrew, pram::CostModel{}, false);
  const auto expected = core::pram_original_loop(op, sys, init, baseline);
  const auto original_time = baseline.stats().time;

  std::printf("FIG-GIR: general IR on the PRAM simulator, n = %zu (ours — the paper\n", n);
  std::printf("states the Section-4 complexity but measures only the ordinary case)\n\n");

  support::TextTable table;
  table.set_header({"P", "Parallel GIR", "Original loop", "steps", "speedup vs P=1"});
  double at_p1 = 0.0;
  std::size_t crossover = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> timings;  // P -> instructions
  for (std::size_t p = 1; p <= max_p; p *= 4) {
    pram::Machine machine(p, pram::AccessMode::kCrew, pram::CostModel{}, false);
    const auto out = core::pram_general_ir(op, sys, init, machine);
    if (out != expected) {
      std::printf("ERROR: mismatch at P = %zu\n", p);
      return 1;
    }
    const auto t = machine.stats().time;
    if (p == 1) at_p1 = static_cast<double>(t);
    if (crossover == 0 && t < original_time) crossover = p;
    timings.emplace_back(p, t);
    table.add_row({std::to_string(p), std::to_string(t), std::to_string(original_time),
                   std::to_string(machine.stats().steps),
                   support::fmt_f(at_p1 / static_cast<double>(t), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  if (crossover != 0) {
    std::printf("crossover (parallel GIR beats original loop) at P = %zu\n", crossover);
  } else {
    std::printf("no crossover up to P = %zu: GIR's constant dominates at this n\n", max_p);
  }
  std::printf("compare with FIG3's crossover at single-digit P — the gap is the price "
              "of tree traces\n");

  if (!report_file.empty()) {
    // Deterministic cost-model counts: one sample per variant.
    bench::BenchReport report("gir_pram");
    report.set_config("n", n);
    report.set_config("max_p", max_p);
    report.add_variant("original_loop", {static_cast<double>(original_time)},
                       "instructions");
    for (const auto& [p, t] : timings) {
      report.add_variant("parallel/P=" + std::to_string(p), {static_cast<double>(t)},
                         "instructions");
    }
    report.write(report_file);
    std::fprintf(stderr, "bench report written to %s\n", report_file.c_str());
  }
  return 0;
}
