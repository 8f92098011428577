// irbench — the repository benchmark (perfbench/README.md).
//
//   irbench --workload {serve-hot|batch-exec|compile-cold} --seed N
//           --seconds S --trace {0|1} [--trace-file PATH] [--corrupt N]
//
// Generates the workload's inputs from the seed, drives the library and the
// HTTP tier from outside, checks every answer against the sequential loop,
// and prints one metric per line followed by a one-line JSON result.  With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 it holds
// the per-layer metrics and the spans go to --trace-file as Chrome
// trace_event JSON.  --corrupt N corrupts the N-th checked answer, so the
// self-test can show that the oracle gate counts it and fails the run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: irbench --workload {serve-hot|batch-exec|compile-cold} --seed N\n"
               "               --seconds S --trace {0|1} [--trace-file PATH] [--corrupt N]\n");
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace irbench;
  Options options;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (a + 1 < argc) {
      value = argv[++a];
    } else {
      return usage();
    }
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-file") {
      options.trace_file = value;
    } else if (arg == "--corrupt") {
      options.corrupt = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || !(options.seconds > 0.0)) return usage();

  const std::size_t nproc = host_nproc();
  std::printf(
      "host {\"nproc\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"IR_TELEMETRY\": %d, \"IR_SIMD\": %d, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      nproc, compiler().c_str(), IRBENCH_BUILD_TYPE, IRBENCH_TELEMETRY, IRBENCH_SIMD,
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  Ledger ledger;
  ledger.set_corrupt_at(options.corrupt);
  Tracer::instance().name_track("irbench-main");
  try {
    if (options.workload == "serve-hot") {
      run_serve_hot(options, ledger);
    } else if (options.workload == "batch-exec") {
      run_batch_exec(options, ledger);
    } else if (options.workload == "compile-cold") {
      run_compile_cold(options, ledger);
    } else {
      std::fprintf(stderr, "irbench: unknown workload '%s'\n", options.workload.c_str());
      return usage();
    }
    if (options.trace) {
      Tracer::instance().enable(false);
      Tracer::instance().print_self_times();
      if (!options.trace_file.empty()) {
        Tracer::instance().write_chrome_json(options.trace_file);
        std::printf("trace written to %s\n", options.trace_file.c_str());
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "irbench: %s\n", error.what());
    return 3;
  }
  return ledger.finish(options.workload, options.trace);
}
