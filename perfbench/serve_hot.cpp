// serve-hot: the HTTP serving path with a hot plan cache.
//
// The tier runs in-process with irserve's defaults (1 shard, 2 HTTP
// workers, 2 dispatchers, ServeOp = ModMul over irserve's modulus, one
// API-key tenant with no rate limit).  An open loop sends at a fixed rate
// over min(4, nproc) keep-alive connections, one per client thread; each
// request is timed from its scheduled send time to its last reply byte.
// Each POST /v1/solve?values=inline carries one of 8 random ordinary
// systems (n = 4,096, cells = 5,120), picked uniformly, with a seeded value
// array.  Decode, identity hash, HTTP framing, queueing, coalescing and
// reply formatting dominate; compile is idle after warm-up.
//
// The untraced run measures latency at the fixed rate R for 60% of its time
// and the closed-loop saturation throughput of the connections for the
// rest.  The traced run measures R untraced, then traced; then ramps the
// offered rate to find the highest one that keeps p99 <= L without a
// growing backlog; then replays a seeded sample of the served requests
// single-threaded through the layer functions.  The max-rate search lives
// in the traced run because on a shared host its figure spreads too widely
// between runs to serve as a gated end-to-end metric (perfbench/README.md).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ordinary_ir.hpp"
#include "core/serialize.hpp"
#include "core/solver.hpp"
#include "harness.hpp"
#include "net/http_client.hpp"
#include "net/http_parser.hpp"
#include "obs/registry.hpp"
#include "service/http_tier.hpp"
#include "service/line_protocol.hpp"
#include "service/serve_op.hpp"
#include "service/shard_router.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace irbench {

namespace {

using namespace ir;
namespace lp = service::line_protocol;
using Router = service::ShardRouter<service::ServeOp>;
using Tier = service::HttpTier<Router>;

constexpr std::size_t kSystems = 8;
constexpr std::size_t kIterations = 4'096;
constexpr std::size_t kCells = 5'120;
constexpr std::size_t kValueSets = 32;     // seeded value arrays per system
constexpr double kRate = 400.0;            // offered rate R, requests/s (see README)
constexpr double kLatencyLimitMs = 10.0;   // L, at p99
constexpr double kSearchHigh = 4.0;        // the max-rate ramp runs from R to 4R
constexpr std::size_t kReplaySample = 256;  // requests replayed per traced run
const char* const kApiKey = "irbench-key";
const char* const kTarget = "/v1/solve?values=inline";

/// One request body with its oracle answer.
struct Body {
  std::string text;            // system doc "." values doc "."
  std::string expected;        // the `values` line the sequential loop gives
};

struct Inputs {
  std::vector<Body> bodies;  // kSystems * kValueSets
  std::vector<core::OrdinaryIrSystem> systems;
  std::vector<std::vector<std::uint64_t>> seq_values;  // one value array per system
};

Inputs make_inputs(std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  const service::ServeOp op{algebra::ModMulMonoid(kModulus), 0};
  Inputs inputs;
  for (std::size_t s = 0; s < kSystems; ++s) {
    inputs.systems.push_back(ir::bench::random_ordinary_system(kIterations, kCells, rng));
    const core::OrdinaryIrSystem& sys = inputs.systems.back();
    const std::string sys_doc = core::to_text(sys) + ".\n";
    for (std::size_t k = 0; k < kValueSets; ++k) {
      const std::vector<std::uint64_t> values = ir::bench::random_initial_u64(kCells, rng);
      Body body;
      body.text = sys_doc + core::to_text(std::vector<double>(values.begin(), values.end())) +
                  ".\n";
      body.expected = lp::values_line(core::ordinary_ir_sequential(op, sys, values));
      inputs.bodies.push_back(std::move(body));
      if (k == 0) inputs.seq_values.push_back(values);
    }
  }
  return inputs;
}

/// The serving tier as irserve builds it with no flags but --http and one
/// --tenant.
struct Service {
  Service()
      : router(service::ServeOp{algebra::ModMulMonoid(kModulus), 0}, service_config(), 1) {
    service::HttpTierConfig config;
    config.http.backlog = 128;
    config.http.workers = 2;
    config.qos.max_inflight = 8;
    config.qos.tenant_queue_cap = 256;
    config.tenants.push_back({"bench", kApiKey, 1, 0.0, 0.0});
    tier = std::make_unique<Tier>(router, std::move(config), window,
                                  [] { return obs::registry().snapshot(); });
    if (!tier->start()) throw std::runtime_error("http tier: " + tier->error());
  }
  ~Service() {
    tier->stop();
    router.shutdown();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  static service::ServiceConfig service_config() {
    service::ServiceConfig config;
    config.ticker_interval_ms = 20;  // irserve's --ticker-ms default
    return config;
  }

  Router router;
  obs::ScrapeWindow window;
  std::unique_ptr<Tier> tier;
};

/// One answered request.
struct Sample {
  double due_s = 0;       // scheduled send, seconds after the phase opened
  double latency_ms = 0;  // scheduled send -> last reply byte
  double lag_ms = 0;      // scheduled send -> actual send
  std::size_t body = 0;
};

/// An open-loop schedule whose offered rate ramps linearly from `from` to
/// `to` requests/s over `seconds` (a fixed rate when they are equal).
struct Schedule {
  double from = kRate;
  double to = kRate;
  double seconds = 1;

  [[nodiscard]] double slope() const { return (to - from) / seconds; }
  [[nodiscard]] double rate_at(double t) const { return from + slope() * t; }
  /// Requests due in the whole phase.
  [[nodiscard]] std::uint64_t count() const {
    return static_cast<std::uint64_t>(std::floor(seconds * (from + to) / 2));
  }
  /// When request k is due: the k-th unit of the integrated rate.
  [[nodiscard]] double due(std::uint64_t k) const {
    const double a = slope();
    const double x = static_cast<double>(k);
    if (std::fabs(a) < 1e-12) return x / from;
    return (-from + std::sqrt(from * from + 2 * a * x)) / a;
  }
};

struct PhaseResult {
  Schedule schedule;
  std::vector<Sample> samples;  // answered requests, any order

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Sample& s : samples) out.push_back(s.latency_ms);
    return out;
  }
  /// Latencies of the requests due in [begin, end), and how many were due.
  [[nodiscard]] std::vector<double> window(double begin, double end,
                                           std::uint64_t* due) const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (s.due_s >= begin && s.due_s < end) out.push_back(s.latency_ms);
    }
    *due = 0;
    for (std::uint64_t k = 0; k < schedule.count(); ++k) {
      const double t = schedule.due(k);
      if (t >= begin && t < end) ++*due;
    }
    return out;
  }
};

/// Check one reply against the oracle; counts the attempt and any failure.
void check_reply(bool sent, const net::HttpClientResponse& response, const Body& body,
                 const std::string& transport_error, Ledger& ledger) {
  ledger.attempt();
  if (!sent) {
    ledger.fail("transport: " + transport_error);
    return;
  }
  if (response.status != 200) {
    ledger.fail("status " + std::to_string(response.status) + ": " + response.body);
    return;
  }
  const std::size_t eol = response.body.find('\n');
  std::string values = eol == std::string::npos ? std::string() : response.body.substr(eol + 1);
  if (!values.empty() && values.back() == '\n') values.pop_back();
  if (ledger.corrupt_next() && !values.empty()) values.back() ^= 1;
  if (values != body.expected) ledger.fail("reply differs from the sequential loop");
}

/// Run one open-loop phase: client thread j sends requests j, j + C,
/// j + 2C, ... of `schedule`, each timed from when it was due.  On a ramp,
/// when any client falls `kGiveUpLagS` behind the schedule the tier is past
/// its capacity, and every client stops; requests never sent stay
/// unanswered.  A fixed-rate phase always runs to its end.
///
/// While the clients run, the calling thread times the sequential loop on
/// one system every 20 ms into `seq_us` (when given), so the ratio to the
/// loop is taken under the same machine load as the latencies.
PhaseResult run_phase(std::vector<std::unique_ptr<net::HttpClient>>& clients,
                      const Inputs& inputs, const Schedule& schedule, std::uint64_t seed,
                      Ledger& ledger, std::vector<double>* seq_us = nullptr) {
  constexpr double kGiveUpLagS = 0.25;
  const bool ramp = schedule.from != schedule.to;
  const std::size_t c = clients.size();
  const std::uint64_t n_due = schedule.count();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::atomic<bool> give_up{false};
  std::atomic<std::size_t> finished{0};
  std::vector<std::vector<Sample>> per_client(c);
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < c; ++j) {
    threads.emplace_back([&, j] {
      Tracer::instance().name_track("client-" + std::to_string(j));
      support::SplitMix64 rng(seed * 1'000'003 + j);
      net::HttpClient& client = *clients[j];
      net::HttpClientResponse response;
      const std::vector<std::pair<std::string, std::string>> headers = {{"X-API-Key", kApiKey}};
      for (std::uint64_t k = j; k < n_due && !give_up.load(std::memory_order_relaxed);
           k += c) {
        const double due_s = schedule.due(k);
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(due);
        const std::size_t b = rng.below(inputs.bodies.size());
        const Clock::time_point sent_at = Clock::now();
        const double lag_s = std::chrono::duration<double>(sent_at - due).count();
        if (ramp && lag_s > kGiveUpLagS) {
          give_up.store(true, std::memory_order_relaxed);
          break;
        }
        bool sent = false;
        {
          Span span("client.request", k + 1);
          sent = client.post(kTarget, inputs.bodies[b].text, &response, headers);
        }
        const Clock::time_point done = Clock::now();
        check_reply(sent, response, inputs.bodies[b], client.error(), ledger);
        per_client[j].push_back({due_s,
                                 std::chrono::duration<double, std::milli>(done - due).count(),
                                 lag_s * 1e3, b});
      }
      finished.fetch_add(1);
    });
  }
  if (seq_us != nullptr) {
    const service::ServeOp op{algebra::ModMulMonoid(kModulus), 0};
    for (std::size_t i = 0; finished.load() < c; ++i) {
      const std::size_t s = i % inputs.systems.size();
      const std::uint64_t start = now_ns();
      const auto out = core::ordinary_ir_sequential(op, inputs.systems[s], inputs.seq_values[s]);
      seq_us->push_back(static_cast<double>(now_ns() - start) * 1e-3);
      if (out.size() != kCells) ledger.fail("sequential loop lost cells");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  for (auto& t : threads) t.join();
  PhaseResult result;
  result.schedule = schedule;
  for (const auto& samples : per_client) {
    result.samples.insert(result.samples.end(), samples.begin(), samples.end());
  }
  return result;
}

/// True when the requests due in [begin, end) meet the limit: at least 98%
/// of them answered (no backlog is growing) and their p99 within L.
bool window_meets_limit(const PhaseResult& phase, double begin, double end) {
  std::uint64_t due = 0;
  const std::vector<double> latency = phase.window(begin, end, &due);
  return due > 0 &&
         static_cast<double>(latency.size()) >= 0.98 * static_cast<double>(due) &&
         quantile(latency, 0.99) <= kLatencyLimitMs;
}

struct Fixture {
  Inputs inputs;
  std::unique_ptr<Service> service;
  std::vector<std::unique_ptr<net::HttpClient>> clients;
};

std::unique_ptr<Fixture> set_up(const Options& options, Ledger& ledger) {
  auto fx = std::make_unique<Fixture>();
  fx->inputs = make_inputs(options.seed);
  fx->service = std::make_unique<Service>();
  // One connection per client thread, never more threads than nproc.
  const std::size_t clients = std::min<std::size_t>(4, host_nproc());
  for (std::size_t j = 0; j < clients; ++j) {
    fx->clients.push_back(
        std::make_unique<net::HttpClient>("127.0.0.1", fx->service->tier->port()));
  }
  // Warm-up: every system once per connection, so all 8 plans are compiled
  // and every connection is open, then a short burst at the offered rate.
  net::HttpClientResponse response;
  for (std::size_t j = 0; j < fx->clients.size(); ++j) {
    for (std::size_t s = 0; s < kSystems; ++s) {
      const Body& body = fx->inputs.bodies[s * kValueSets + j % kValueSets];
      const bool sent = fx->clients[j]->post(kTarget, body.text, &response,
                                             {{"X-API-Key", kApiKey}});
      check_reply(sent, response, body, fx->clients[j]->error(), ledger);
    }
  }
  (void)run_phase(fx->clients, fx->inputs, Schedule{kRate, kRate, 0.3}, options.seed + 7,
                  ledger);
  return fx;
}

/// Histogram of one registry histogram between two snapshots.
obs::MetricsSnapshot::Histogram delta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      const std::string& name) {
  obs::MetricsSnapshot::Histogram out = after.histogram(name);
  const obs::MetricsSnapshot::Histogram base = before.histogram(name);
  for (std::size_t i = 0; i < out.buckets.size(); ++i) out.buckets[i] -= base.buckets[i];
  out.sum -= base.sum;
  return out;
}

/// The highest rate that meets the limit: one open-loop ramp from R to
/// kSearchHigh * R, judged in 0.5 s windows slid by 0.05 s.  Each window's
/// offered rate is the ramp's rate at its middle; the answer is the highest
/// such rate whose window meets the limit.  Past the tier's capacity the
/// backlog grows and every later window fails, so a window failed by a
/// transient stall costs one window, not the search.
double search_max_rate(Fixture& fx, double seconds, std::uint64_t seed, Ledger& ledger) {
  constexpr double kWindow = 0.5;
  constexpr double kSlide = 0.05;
  const Schedule ramp{kRate, kRate * kSearchHigh, seconds};
  const PhaseResult phase = run_phase(fx.clients, fx.inputs, ramp, seed + 100, ledger);
  double best = 0;
  for (double begin = 0; begin + kWindow <= seconds + 1e-9; begin += kSlide) {
    if (window_meets_limit(phase, begin, begin + kWindow)) {
      best = std::max(best, ramp.rate_at(begin + kWindow / 2));
    }
  }
  std::printf("ramp %.0f -> %.0f req/s over %.1f s: %zu answered, max rate %.1f\n", ramp.from,
              ramp.to, seconds, phase.samples.size(), best);
  return best;
}

/// Saturation throughput: every client sends back-to-back for `seconds`.
/// Returns the median over 0.5 s windows of the requests answered in each,
/// per second, so a stall of the host shifts one window, not the figure;
/// `*windows_out` receives the number of windows.
double closed_loop_rate(Fixture& fx, double seconds, std::uint64_t seed, Ledger& ledger,
                        std::size_t* windows_out) {
  constexpr double kWindow = 0.5;
  const auto windows = static_cast<std::size_t>(seconds / kWindow);
  std::vector<std::vector<std::uint64_t>> answered(fx.clients.size(),
                                                   std::vector<std::uint64_t>(windows, 0));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < fx.clients.size(); ++j) {
    threads.emplace_back([&, j] {
      support::SplitMix64 rng(seed * 7919 + j);
      net::HttpClientResponse response;
      for (;;) {
        const Body& body = fx.inputs.bodies[rng.below(fx.inputs.bodies.size())];
        const bool sent = fx.clients[j]->post(kTarget, body.text, &response,
                                              {{"X-API-Key", kApiKey}});
        check_reply(sent, response, body, fx.clients[j]->error(), ledger);
        const auto w = static_cast<std::size_t>(
            std::chrono::duration<double>(Clock::now() - start).count() / kWindow);
        if (w >= windows) break;
        ++answered[j][w];
      }
    });
  }
  for (auto& t : threads) t.join();
  *windows_out = windows;
  std::vector<double> rates(windows, 0.0);
  for (const auto& per_client : answered) {
    for (std::size_t w = 0; w < windows; ++w) {
      rates[w] += static_cast<double>(per_client[w]) / kWindow;
    }
  }
  return median(rates);
}

/// Replays a seeded sample of served requests single-threaded through the
/// layer functions a request crosses; records each layer's median.
double replay_layers(const Fixture& fx, const std::vector<Sample>& served, std::uint64_t seed,
                     Ledger& ledger) {
  const service::ServeOp op{algebra::ModMulMonoid(kModulus), 0};
  core::Solver solver;  // warmed below, so every replayed compile is a hit
  support::SplitMix64 rng(seed ^ 0x5eedull);
  std::vector<double> parse_us, decode_us, key_us, hit_us, execute_us, format_us;
  for (std::size_t i = 0; i < kReplaySample + kSystems && !served.empty(); ++i) {
    const bool warm = i < kSystems;
    const Body& body = warm ? fx.inputs.bodies[i * kValueSets]
                            : fx.inputs.bodies[served[rng.below(served.size())].body];
    const std::uint64_t rid = 1'000'000 + i;
    Span request_span("replay.request", rid);
    const std::string wire = std::string("POST ") + kTarget +
                             " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-API-Key: " + kApiKey +
                             "\r\nContent-Length: " + std::to_string(body.text.size()) +
                             "\r\n\r\n" + body.text;
    net::HttpParser parser;
    const double t_parse = timed_us("net.parse", [&] { (void)parser.feed(wire); }, rid);
    if (!parser.complete()) throw std::runtime_error("replay: request did not parse");
    const net::HttpRequest request = parser.take_request();

    Router::Request solve;
    const double t_decode = timed_us("service.decode", [&] {
      lp::SolveArgs args;
      args.inline_values = true;
      std::string_view rest = request.body;
      std::string sys_doc;
      std::string values_doc;
      if (!lp::take_document(rest, sys_doc) || !lp::take_document(rest, values_doc)) {
        throw std::runtime_error("replay: body lost its terminator");
      }
      lp::fill_request(args, sys_doc, values_doc, &solve);
    }, rid);
    core::PlanKey key;
    const double t_key =
        timed_us("core.plan_key", [&] { key = core::plan_key(solve.sys, solve.plan); }, rid);
    std::shared_ptr<const core::Plan> plan;
    const double t_hit =
        timed_us("core.plan_cache.hit", [&] { plan = solver.compile(solve.sys, solve.plan); },
                 rid);
    Router::Response response;
    const double t_execute = timed_us("core.execute", [&] {
      response.values = core::execute_plan(*plan, op, solve.initial);
    }, rid);
    response.status = service::Status::kOk;
    std::string values;
    const double t_format = timed_us("service.format", [&] {
      const std::string ok = lp::ok_line(0, response);
      values = lp::values_line(response.values);
    }, rid);
    if (warm) continue;
    ledger.attempt();
    if (ledger.corrupt_next() && !values.empty()) values.back() ^= 1;
    if (values != body.expected) ledger.fail("replayed request differs from the loop");
    parse_us.push_back(t_parse);
    decode_us.push_back(t_decode);
    key_us.push_back(t_key);
    hit_us.push_back(t_hit);
    execute_us.push_back(t_execute);
    format_us.push_back(t_format);
  }
  if (solver.plan_compiles() != kSystems) ledger.fail("replay: a plan-cache lookup missed");
  const std::uint64_t n = parse_us.size();
  ledger.metric("net.parse_us", median(parse_us), n);
  ledger.metric("service.decode_us", median(decode_us), n);
  ledger.metric("core.plan_key_us", median(key_us), n);
  ledger.metric("core.plan_cache.hit_us", median(hit_us), n);
  ledger.metric("core.execute.request_us", median(execute_us), n);
  ledger.metric("service.format_us", median(format_us), n);
  return median(parse_us) + median(decode_us) + median(key_us) + median(hit_us) +
         median(execute_us) + median(format_us);
}

}  // namespace

void run_serve_hot(const Options& options, Ledger& ledger) {
  std::vector<double> setup_s;
  const std::unique_ptr<Fixture> fx =
      repeat_set_up([&] { return set_up(options, ledger); }, setup_s);
  const Service& svc = *fx->service;
  const service::ServiceStats warm_stats = svc.router.stats();
  std::printf("setup: %zu clients, %zu bodies; set-up median %.4f s over %zu\n",
              fx->clients.size(), fx->inputs.bodies.size(), median(setup_s), setup_s.size());
  // Every measured request must be a plan-cache hit: the 8 plans were
  // compiled during warm-up and nothing after it may miss.
  const auto check_hot = [&](const service::ServiceStats& now) {
    if (now.plan_cache_misses != warm_stats.plan_cache_misses ||
        now.plan_compiles != warm_stats.plan_compiles) {
      ledger.fail("plan cache missed after warm-up");
    }
  };

  if (!options.trace) {
    // 60% of the time at the fixed rate R, 40% closed-loop at saturation.
    std::vector<double> seq_us;
    const PhaseResult fixed = run_phase(fx->clients, fx->inputs,
                                        Schedule{kRate, kRate, options.seconds * 0.6},
                                        options.seed, ledger, &seq_us);
    const std::vector<double> latency = fixed.latencies();
    const double p50 = median(latency);
    std::printf("fixed rate=%.0f: %zu answered, p50=%.4f p90=%.4f p99=%.4f ms, "
                "sequential loop %.2f us\n",
                kRate, latency.size(), p50, quantile(latency, 0.9), quantile(latency, 0.99),
                median(seq_us));
    std::size_t windows = 0;
    const double capacity =
        closed_loop_rate(*fx, options.seconds * 0.4, options.seed, ledger, &windows);
    std::printf("closed loop over %zu connections: %.1f req/s\n", fx->clients.size(), capacity);
    check_hot(svc.router.stats());
    ledger.metric("setup_s", median(setup_s), setup_s.size());
    ledger.metric("latency_p50_ms", p50, latency.size());
    ledger.metric("throughput_per_s", capacity, windows);
    ledger.metric("speedup_vs_sequential", median(seq_us) * 1e-3 / p50, seq_us.size());
    ledger.metric("peak_rss_mb", peak_rss_mb(), 1);
    return;
  }

  // Traced: the rate untraced, then traced with client spans and the
  // tier's counters bracketed, then the max-rate ramp, then the
  // single-threaded replay.
  const double phase_s = options.seconds / 3;
  const Schedule fixed{kRate, kRate, phase_s};
  const PhaseResult plain = run_phase(fx->clients, fx->inputs, fixed, options.seed, ledger);
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  const service::ServiceStats stats_before = svc.router.stats();
  const net::HttpServerStats http_before = svc.tier->http_stats();
  Tracer::instance().enable(true);
  const PhaseResult traced = run_phase(fx->clients, fx->inputs, fixed, options.seed + 1, ledger);
  Tracer::instance().enable(false);
  const net::HttpServerStats http_after = svc.tier->http_stats();
  const service::ServiceStats stats_after = svc.router.stats();
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  const auto qos = svc.tier->qos().counters();

  const double plain_p50 = median(plain.latencies());
  const double traced_p50 = median(traced.latencies());
  ledger.metric("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50,
                traced.samples.size());
  ledger.metric("e2e.latency_tail_ms", quantile(plain.latencies(), 0.99), plain.samples.size());
  std::vector<double> lag;
  for (const Sample& s : traced.samples) lag.push_back(s.lag_ms);
  ledger.metric("loadgen.lag_p99_ms", quantile(lag, 0.99), lag.size());

  const double requests = static_cast<double>(http_after.requests - http_before.requests);
  const double responses = static_cast<double>(http_after.responses - http_before.responses);
  ledger.metric("net.req_bytes",
                static_cast<double>(http_after.bytes_in - http_before.bytes_in) / requests,
                http_after.requests - http_before.requests);
  ledger.metric("net.resp_bytes",
                static_cast<double>(http_after.bytes_out - http_before.bytes_out) / responses,
                http_after.responses - http_before.responses);
  const auto queue = delta(before, after, "service.latency.queue_us");
  const auto execute = delta(before, after, "service.latency.execute_us");
  ledger.metric("service.queue_wait_p50_us", queue.quantile(0.5), queue.count());
  ledger.metric("service.queue_wait_p99_us", queue.quantile(0.99), queue.count());
  ledger.metric("service.execute_p50_us", execute.quantile(0.5), execute.count());
  const std::uint64_t batches = stats_after.batches - stats_before.batches;
  ledger.metric("service.batch_size_mean",
                static_cast<double>(stats_after.dispatched - stats_before.dispatched) /
                    static_cast<double>(batches),
                batches);
  ledger.metric("service.qos_peak_depth",
                qos.empty() ? 0.0 : static_cast<double>(qos[0].peak_depth), 1);
  ledger.metric("service.rejected",
                static_cast<double>(stats_after.rejected() - stats_before.rejected()), 1);
  const std::uint64_t hits = stats_after.plan_cache_hits - warm_stats.plan_cache_hits;
  const std::uint64_t lookups =
      hits + stats_after.plan_cache_misses - warm_stats.plan_cache_misses;
  ledger.metric("core.plan_cache.hit_ratio",
                lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
                lookups);

  ledger.metric("serve.max_rate_rps", search_max_rate(*fx, phase_s, options.seed, ledger), 1);
  check_hot(svc.router.stats());

  Tracer::instance().enable(true);
  const double layers_us = replay_layers(*fx, traced.samples, options.seed, ledger);
  Tracer::instance().enable(false);
  ledger.metric("serve.unattributed_share", 1.0 - layers_us * 1e-3 / traced_p50,
                traced.samples.size());
}

}  // namespace irbench
