#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

namespace irbench {

namespace {

const Clock::time_point kStart = Clock::now();

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "serve-hot batch-exec compile-cold"},
      {"peak_rss_mb", "MB", "serve-hot batch-exec compile-cold"},
      {"latency_p50_ms", "ms", "serve-hot batch-exec compile-cold"},
      {"throughput_per_s", "1/s", "serve-hot batch-exec compile-cold"},
      {"speedup_vs_sequential", "ratio", "serve-hot batch-exec compile-cold"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out = {
        {"net.parse_us", "us", "serve-hot"},
        {"net.req_bytes", "bytes", "serve-hot"},
        {"net.resp_bytes", "bytes", "serve-hot"},
        {"service.decode_us", "us", "serve-hot"},
        {"service.format_us", "us", "serve-hot"},
        {"service.queue_wait_p50_us", "us", "serve-hot"},
        {"service.queue_wait_p99_us", "us", "serve-hot"},
        {"service.execute_p50_us", "us", "serve-hot"},
        {"service.batch_size_mean", "count", "serve-hot"},
        {"service.qos_peak_depth", "count", "serve-hot"},
        {"service.rejected", "count", "serve-hot"},
        {"core.plan_key_us", "us", "serve-hot"},
        {"core.plan_cache.hit_us", "us", "serve-hot"},
        {"core.plan_cache.hit_ratio", "ratio", "serve-hot compile-cold"},
        {"core.execute.request_us", "us", "serve-hot"},
    };
    // Name strings must outlive the specs: keep them in a static pool.
    static std::deque<std::string> names;
    const auto add = [&out](const std::string& name, const char* unit, const char* owners) {
      names.push_back(name);
      out.push_back({names.back().c_str(), unit, owners});
    };
    for (const char* s : {"ord", "chain", "linear"}) {
      const std::string shape = s;
      add("core.execute." + shape + "_us", "us", "batch-exec");
      add("core.execute." + shape + ".ops", "count", "batch-exec");
      add("core.execute." + shape + ".work_ratio", "ratio", "batch-exec");
      add("core.execute." + shape + ".rounds", "count", "batch-exec");
      add("core.execute." + shape + ".bytes", "bytes_computed", "batch-exec");
      add("seq." + shape + "_us", "us", "batch-exec");
    }
    for (const char* s : {"ord", "chain"}) {
      add("verify.cost." + std::string(s) + ".work", "count", "batch-exec");
      add("verify.cost." + std::string(s) + ".depth", "count", "batch-exec");
    }
    for (const char* s : {"ord", "chain", "gir", "fib"}) {
      add("core.compile." + std::string(s) + "_ms", "ms", "compile-cold");
      add("core.analyze." + std::string(s) + "_ms", "ms", "compile-cold");
    }
    for (const char* s : {"gir", "fib"}) {
      add("graph.cap." + std::string(s) + ".rounds", "count", "compile-cold");
      add("graph.cap." + std::string(s) + ".peak_edges", "count", "compile-cold");
      add("graph.cap." + std::string(s) + ".live_equations", "count", "compile-cold");
    }
    out.insert(out.end(), {
        {"core.plan_io.load_ms", "ms", "compile-cold"},
        {"core.plan_io.decode_ms", "ms", "compile-cold"},
        {"core.plan_io.warm_load_ms", "ms", "compile-cold"},
        {"verify.plan_ms", "ms", "compile-cold"},
        {"core.plan_io.file_bytes", "bytes", "compile-cold"},
        {"core.plan_io.rejects", "count", "compile-cold"},
        {"loadgen.lag_p99_ms", "ms", "serve-hot"},
        {"serve.unattributed_share", "ratio", "serve-hot"},
        {"serve.max_rate_rps", "1/s", "serve-hot"},
        {"trace.overhead_share", "ratio", "serve-hot batch-exec compile-cold"},
        {"e2e.latency_tail_ms", "ms", "serve-hot batch-exec compile-cold"},
    });
    return out;
  }();
  return specs;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kStart).count());
}

std::size_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double chunked_rate(const std::vector<double>& seconds_per_op, std::size_t chunk) {
  std::vector<double> rates;
  for (std::size_t begin = 0; begin + chunk <= seconds_per_op.size(); begin += chunk) {
    double seconds = 0;
    for (std::size_t i = begin; i < begin + chunk; ++i) seconds += seconds_per_op[i];
    rates.push_back(static_cast<double>(chunk) / seconds);
  }
  return median(rates);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Ledger -----------------------------------------------------------------

void Ledger::attempt(std::uint64_t n) {
  std::lock_guard lock(mutex_);
  attempted_ += n;
}

void Ledger::fail(const std::string& why) {
  std::lock_guard lock(mutex_);
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "irbench: FAILED: %s\n", why.c_str());
}

bool Ledger::corrupt_next() {
  std::lock_guard lock(mutex_);
  return ++checked_ == corrupt_at_;
}

void Ledger::metric(const std::string& name, double value, std::uint64_t samples) {
  const auto known = [&name](const std::vector<MetricSpec>& specs) {
    return std::any_of(specs.begin(), specs.end(),
                       [&name](const MetricSpec& spec) { return name == spec.name; });
  };
  if (!known(end_to_end_metrics()) && !known(per_layer_metrics())) {
    throw std::logic_error("metric '" + name + "' is not in the benchmark's metric list");
  }
  std::lock_guard lock(mutex_);
  metrics_[name] = {value, samples};
}

int Ledger::finish(const std::string& workload, bool traced) const {
  std::lock_guard lock(mutex_);
  bool complete = true;
  std::string json_metrics;
  for (const MetricSpec& spec : traced ? per_layer_metrics() : end_to_end_metrics()) {
    const bool owned = (" " + std::string(spec.owners) + " ").find(" " + workload + " ") !=
                       std::string::npos;
    const auto it = metrics_.find(spec.name);
    Measured m{0.0, 0};
    if (it != metrics_.end()) {
      m = it->second;
    } else if (owned) {
      m.value = std::nan("");
      std::fprintf(stderr, "irbench: metric %s was not measured\n", spec.name);
    }
    complete = complete && std::isfinite(m.value);
    std::printf("metric %-34s %14.6g %-14s samples=%llu%s\n", spec.name, m.value, spec.unit,
                static_cast<unsigned long long>(m.samples), owned ? "" : " (idle)");
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += "\"" + std::string(spec.name) + "\": {\"value\": " + json_number(m.value) +
                    ", \"unit\": \"" + spec.unit + "\"}";
  }
  const double error_share =
      attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  std::printf("error_share %.6g (%llu failed of %llu attempted)\n", error_share,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  const bool correct = failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), json_metrics.c_str());
  std::fflush(stdout);
  return correct && complete ? 0 : 1;
}

// --- Tracer -----------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Track& Tracer::track() {
  thread_local Track* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard lock(mutex_);
    tracks_.push_back(std::make_unique<Track>());
    mine = tracks_.back().get();
    mine->index = static_cast<std::uint32_t>(tracks_.size());
    mine->name = "thread-" + std::to_string(mine->index);
  }
  return *mine;
}

void Tracer::name_track(const std::string& name) { track().name = name; }

std::vector<Tracer::Record> Tracer::records() const {
  std::lock_guard lock(mutex_);
  std::vector<Record> all;
  for (const auto& t : tracks_) all.insert(all.end(), t->records.begin(), t->records.end());
  return all;
}

void Tracer::print_self_times() const {
  const std::vector<Record> all = records();
  std::map<std::uint64_t, std::uint64_t> child_ns;  // parent id -> children's time
  for (const Record& r : all) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  struct Self {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Self> by_name;
  std::map<std::string, std::uint64_t> by_layer;
  for (const Record& r : all) {
    const std::uint64_t total = r.end_ns - r.start_ns;
    const auto it = child_ns.find(r.id);
    const std::uint64_t children = it == child_ns.end() ? 0 : it->second;
    const std::uint64_t self = total > children ? total - children : 0;
    Self& s = by_name[r.name];
    s.ns += self;
    ++s.count;
    const std::string name = r.name;
    by_layer[name.substr(0, name.find('.'))] += self;
  }
  for (const auto& [name, s] : by_name) {
    std::printf("self span %-30s %12.3f ms  spans=%llu\n", name.c_str(),
                static_cast<double>(s.ns) * 1e-6, static_cast<unsigned long long>(s.count));
  }
  for (const auto& [layer, ns] : by_layer) {
    std::printf("self layer %-29s %12.3f ms\n", layer.c_str(), static_cast<double>(ns) * 1e-6);
  }
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& t : tracks_) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << t->index
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"" << t->name << "\"}}";
  }
  for (const auto& t : tracks_) {
    std::vector<Record> sorted = t->records;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Record& a, const Record& b) { return a.start_ns < b.start_ns; });
    for (const Record& r : sorted) {
      sep();
      out << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << t->index << ", \"name\": \""
          << r.name << "\", \"ts\": " << json_number(static_cast<double>(r.start_ns) * 1e-3)
          << ", \"dur\": " << json_number(static_cast<double>(r.end_ns - r.start_ns) * 1e-3)
          << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
          << ", \"request\": " << r.request << "}}";
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

Span::Span(const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  track_ = &tracer.track();
  record_.name = name;
  record_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = track_->open.empty() ? 0 : track_->open.back();
  record_.request = request;
  record_.track = track_->index;
  track_->open.push_back(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (track_ == nullptr) return;
  record_.end_ns = now_ns();
  track_->open.pop_back();
  track_->records.push_back(record_);
}

}  // namespace irbench
