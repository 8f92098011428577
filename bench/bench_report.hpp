// BENCH_*.json emitter — the schema-versioned benchmark telemetry every bench
// binary writes behind --report=FILE (docs/benchmarking.md).
//
// One report = one bench run on one machine:
//
//   {
//     "schema": "ir-bench-report", "version": 1,
//     "bench": "plan_reuse",
//     "machine": {"hardware_concurrency": 8, "compiler": "...",
//                 "pointer_bits": 64},
//     "config": {"n": 50000, "k": 16, ...},
//     "variants": [
//       {"name": "jumping/warm", "unit": "ns", "samples": 16,
//        "per_op": 81234.5, "p50": 80211.0, "p90": ..., "p99": ...,
//        "p999": ..., "min": ..., "max": ...},
//       ...
//     ]
//   }
//
// Variants carry raw per-operation samples ("ns" wall-clock, or
// "instructions" for the PRAM cost-model benches); percentiles are exact
// (sorted samples, nearest-rank with interpolation), not histogram
// estimates — a bench owns its samples, unlike a live server.
// tools/check_bench_json.py validates the schema; tools/bench_compare.py
// diffs per_op against the committed baseline in bench/baseline/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics_export.hpp"

namespace ir::bench {

inline constexpr int kBenchReportVersion = 1;

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void set_config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, obs::json_quote(value));
  }
  void set_config(const std::string& key, std::uint64_t value) {
    config_.emplace_back(key, std::to_string(value));
  }

  /// Add one measured variant from raw per-op samples.  `unit` is what one
  /// sample measures: "ns" (wall-clock per operation) or "instructions"
  /// (PRAM cost-model time).  Empty sample sets are rejected — a bench that
  /// measured nothing has no business in the report.
  void add_variant(const std::string& name, std::vector<double> samples,
                   const std::string& unit = "ns") {
    if (samples.empty()) {
      throw std::invalid_argument("bench variant '" + name + "' has no samples");
    }
    std::sort(samples.begin(), samples.end());
    Variant v;
    v.name = name;
    v.unit = unit;
    v.count = samples.size();
    double sum = 0.0;
    for (const double s : samples) sum += s;
    v.per_op = sum / static_cast<double>(samples.size());
    v.p50 = percentile(samples, 0.50);
    v.p90 = percentile(samples, 0.90);
    v.p99 = percentile(samples, 0.99);
    v.p999 = percentile(samples, 0.999);
    v.min = samples.front();
    v.max = samples.back();
    variants_.push_back(std::move(v));
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{\n";
    out += "  \"schema\": \"ir-bench-report\",\n";
    out += "  \"version\": " + std::to_string(kBenchReportVersion) + ",\n";
    out += "  \"bench\": " + obs::json_quote(bench_) + ",\n";
    out += "  \"machine\": {\n";
    out += "    \"hardware_concurrency\": " +
           std::to_string(std::thread::hardware_concurrency()) + ",\n";
    out += "    \"compiler\": " + obs::json_quote(compiler()) + ",\n";
    out += "    \"pointer_bits\": " + std::to_string(sizeof(void*) * 8) + "\n";
    out += "  },\n";
    out += "  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n");
      out += "    " + obs::json_quote(config_[i].first) + ": " + config_[i].second;
    }
    out += config_.empty() ? "},\n" : "\n  },\n";
    out += "  \"variants\": [";
    for (std::size_t i = 0; i < variants_.size(); ++i) {
      const Variant& v = variants_[i];
      out += (i == 0 ? "\n" : ",\n");
      out += "    {\"name\": " + obs::json_quote(v.name) +
             ", \"unit\": " + obs::json_quote(v.unit) +
             ", \"samples\": " + std::to_string(v.count) +
             ", \"per_op\": " + number(v.per_op) + ", \"p50\": " + number(v.p50) +
             ", \"p90\": " + number(v.p90) + ", \"p99\": " + number(v.p99) +
             ", \"p999\": " + number(v.p999) + ", \"min\": " + number(v.min) +
             ", \"max\": " + number(v.max) + "}";
    }
    out += variants_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
  }

  /// Write the report; throws on I/O failure so benches fail loudly in CI.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out.good()) {
      throw std::runtime_error("cannot open bench report file '" + path + "'");
    }
    out << json();
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("failed writing bench report file '" + path + "'");
    }
  }

 private:
  struct Variant {
    std::string name;
    std::string unit;
    std::size_t count = 0;
    double per_op = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0, min = 0.0,
           max = 0.0;
  };

  /// Exact percentile of sorted samples: linear interpolation between the
  /// two nearest ranks (the numpy default).
  static double percentile(const std::vector<double>& sorted, double q) {
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }

  /// JSON-safe number: finite doubles only (NaN/Inf are not JSON).  Whole
  /// numbers up to 2^53 print every digit, so instruction counts round-trip
  /// exactly (bench_compare.py compares them exactly); the rest keep six
  /// significant digits.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buffer[64];
    const bool whole = v == std::floor(v) && std::fabs(v) < 9007199254740992.0;
    std::snprintf(buffer, sizeof(buffer), whole ? "%.0f" : "%.6g", v);
    return buffer;
  }

  static std::string compiler() {
#if defined(__VERSION__)
    return __VERSION__;
#else
    return "unknown";
#endif
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Variant> variants_;
};

}  // namespace ir::bench
