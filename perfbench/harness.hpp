// Shared plumbing of the irbench program: options, sample statistics, the
// result ledger that prints every metric, and the in-memory span recorder
// behind the traced mode (perfbench/README.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace irbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the program started.
[[nodiscard]] std::uint64_t now_ns();

/// Seconds on the steady clock since the program started.
[[nodiscard]] inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Logical CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t host_nproc();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;     ///< Chrome trace_event JSON written at exit
  std::uint64_t corrupt = 0;  ///< corrupt the N-th checked answer (self-test)
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Geometric mean of positive values; 0 when empty.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Operations per second, robust to host stalls: the median over chunks of
/// `chunk` consecutive operations of chunk / (their summed seconds).
[[nodiscard]] double chunked_rate(const std::vector<double>& seconds_per_op, std::size_t chunk);

/// Runs `set_up` kSetUps times and returns the last state, freeing each
/// earlier one before the next set-up starts; appends every set-up's
/// seconds to `seconds`.  `setup_s` is their median, so that work moved
/// into set-up shows and one slow set-up does not move the figure.
inline constexpr int kSetUps = 5;
template <typename SetUp>
auto repeat_set_up(SetUp&& set_up, std::vector<double>& seconds) {
  decltype(set_up()) state;
  for (int rep = 0; rep < kSetUps; ++rep) {
    state.reset();
    const double start = now_s();
    state = set_up();
    seconds.push_back(now_s() - start);
  }
  return state;
}

/// Peak resident set of this process, in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// One metric of the benchmark, as BENCHMARK.json lists it.  `owners` names
/// the workloads that measure it (space-separated); on any other workload a
/// per-layer metric reads 0, because its layer is idle there.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* owners;
};

/// Every end-to-end metric (printed by untraced runs of every workload).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric (printed by traced runs of every workload).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// The answer ledger and metric sheet of one run.  Every operation the
/// workload attempts is counted once; every failed or wrong one once more
/// in `failed`.  Thread-safe.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1);
  /// Count one failed operation; the first few reasons go to stderr.
  void fail(const std::string& why);
  /// True when the self-test asked for this checked answer to be corrupted
  /// (counts checked answers; see Options::corrupt).
  [[nodiscard]] bool corrupt_next();
  void set_corrupt_at(std::uint64_t n) { corrupt_at_ = n; }

  /// Record a metric listed in end_to_end_metrics() or per_layer_metrics();
  /// `samples` is the number of measurements behind it.
  void metric(const std::string& name, double value, std::uint64_t samples);

  /// Print the metric lines and the final one-line JSON result: the
  /// end-to-end sheet, or with `traced` the per-layer sheet.  Returns the
  /// process exit code: 0 when nothing failed and every metric `workload`
  /// owns was recorded with a finite value.
  int finish(const std::string& workload, bool traced) const;

 private:
  struct Measured {
    double value;
    std::uint64_t samples;
  };
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t corrupt_at_ = 0;
  std::map<std::string, Measured> metrics_;
};

/// In-memory span recorder (traced mode only).  A span is recorded around a
/// call into one layer's public function from the benchmark's own code; its
/// parent is the span open on the same thread when it began.  Spans are kept
/// per thread and written out once, at exit.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
    std::uint64_t request;  ///< request id the span belongs to (0 = none)
    std::uint32_t track;
  };

  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Name the calling thread's track (thread_name metadata).
  void name_track(const std::string& name);

  /// Self time per span name: the span's duration minus its children's,
  /// summed, with the span count.  Printed as `self` lines.
  void print_self_times() const;
  /// Chrome trace_event JSON (object form), accepted by
  /// tools/check_trace_json.py --validate.
  void write_chrome_json(const std::string& path) const;

  /// All records so far.  A track's records are appended by its own thread
  /// only, so call this after every other recording thread has been joined.
  [[nodiscard]] std::vector<Record> records() const;

 private:
  friend class Span;
  struct Track {
    std::uint32_t index;
    std::string name;
    std::vector<Record> records;
    std::vector<std::uint64_t> open;  ///< ids of the spans open on the thread
  };
  Track& track();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards tracks_ (the list, not a track's records)
  std::vector<std::unique_ptr<Track>> tracks_;
};

/// RAII span; a no-op unless the tracer is enabled.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Track* track_ = nullptr;
  Tracer::Record record_{};
};

/// Time one call in microseconds, inside a span of the same name.
template <typename Fn>
double timed_us(const char* name, Fn&& fn, std::uint64_t request = 0) {
  Span span(name, request);
  const std::uint64_t start = now_ns();
  fn();
  return static_cast<double>(now_ns() - start) * 1e-3;
}

/// The workloads.  Each records its operations and metrics in `ledger`;
/// a set-up failure throws.
void run_serve_hot(const Options& options, Ledger& ledger);
void run_batch_exec(const Options& options, Ledger& ledger);
void run_compile_cold(const Options& options, Ledger& ledger);

}  // namespace irbench
