/// \file stream.cpp
/// The quote-stream workload: an open loop against net::Server +
/// service::PricingService over two unix-socket connections (two tenants,
/// one cpu-vec lane each).
///
/// Load generator: one sender thread sends Poisson arrivals, alternating
/// tenants; one reader thread per connection reads the replies (3 threads,
/// 2 connections). A request is 64 options from a standard-tenor book
/// (1/3/5/7/10y, so 5 grids); every 16 requests a tenant also sends a
/// hazard quote update, so grid-invalidating writes sit beside the reads.
/// The kernel does little here: socket I/O, framing, admission,
/// micro-batching and the tick-driven harvest dominate.
///
/// Phases:
///   paced       4,000 req/s. Latency is timed from each request's
///               *intended* send time, so a stalled generator or server
///               cannot hide queueing. A reply later than the tenants'
///               deadline (the service's "batch" class, 2 s) counts as
///               failed; replies later than 5 ms and 50 ms are counted on
///               their own.
///   saturation  offered 30,000 req/s, far above capacity; reports the
///               completed requests per second. The sender blocks on the
///               full socket, so this phase becomes closed-loop through
///               backpressure: its lateness is reported, not gated.
/// Rejects, sheds and missing replies count as failed in both phases.
///
/// A run is a sequence of rounds of about 10 s, each on fresh services: a
/// paced phase of 5 s (two of 2.5 s, untraced and traced, in a traced
/// run), then a saturation phase offered 2.5 s worth of requests. The
/// service's cost per tick grows with the results it has retained, so a
/// longer phase would measure a different, slower workload; rounds keep
/// every phase the same length whatever the run length.
///
/// Gate, checked after each round: each tenant's replies are bit-identical
/// to a directly driven runtime::StreamRuntime over the same event
/// sequence.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/prctl.h>
#include <unistd.h>

#include "cds/stream_pricer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/stream_runtime.hpp"
#include "service/service.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"

namespace cdsbench {
namespace {

using namespace cdsflow;

constexpr std::uint32_t kTenants = 2;
constexpr std::size_t kRequestOptions = 64;
constexpr std::size_t kQuoteEveryRequests = 16;
/// Requests per tenant in the cycled request pool.
constexpr std::size_t kPoolRequests = 1024;
/// At this rate the service's 500 us poll tick, not queueing, sets the
/// latency, so a slower host moves it little: in interleaved 30-s runs
/// (six at this rate, five at 8,000 req/s) p50 and p90 spread 5.5 % and
/// 3.4 % here against 8.8 % and 8.6 % at 8,000 req/s.
constexpr double kPacedRate = 4000.0;
constexpr double kSaturationRate = 30000.0;
/// The tenants' deadline class. A paced reply later than its deadline
/// counts as failed. Host stalls of 5-60 ms occur on shared virtual
/// machines a few times a minute, so the 5 ms and 50 ms counts below are
/// reported, not gated: a tighter limit would fail a run-dependent handful
/// of requests for reasons outside the code.
const service::DeadlineClass kTenantDeadline{"batch", 2.0, 8.0};
constexpr double kSlowReplySeconds = 5e-3;
constexpr double kVerySlowReplySeconds = 50e-3;
constexpr std::size_t kWarmupRequests = 256;
/// Length of one round of a run (paced phase, then saturation).
constexpr double kRoundSeconds = 10.0;
constexpr double kDrainSeconds = 10.0;
constexpr int kSetupRepeats = 7;

runtime::StreamConfig lane_config() {
  runtime::StreamConfig config;
  config.engine = "cpu-vec";
  config.lanes = 1;
  config.max_batch = 256;
  config.max_wait_us = 200;
  return config;
}

std::uint64_t trace_id(std::uint32_t tenant, std::uint32_t request) {
  return (static_cast<std::uint64_t>(tenant) << 32) | request;
}

/// One element of a tenant's cycled event sequence, with its wire frame
/// encoded up front so the sender's own CPU cost stays small next to the
/// server's (the generator shares the host with it).
struct Step {
  bool quote = false;
  std::uint32_t knot = 0;
  double rate = 0.0;
  std::vector<cds::CdsOption> options;
  std::vector<std::uint8_t> frame;
};

/// Writes `request` into an encoded frame's header (docs/PROTOCOL.md: the
/// request id is the little-endian u32 at offset 12).
void set_request_id(std::vector<std::uint8_t>& frame, std::uint32_t request) {
  for (int b = 0; b < 4; ++b) {
    frame[12 + b] = static_cast<std::uint8_t>(request >> (8 * b));
  }
}

/// Slices a quote feed into 64-option requests; a hazard update closes the
/// open request first, so both sides of the gate see one event order.
std::vector<Step> slice_feed(const std::vector<workload::QuoteFeedEvent>& feed) {
  std::vector<Step> steps;
  Step open;
  for (const auto& event : feed) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      if (!open.options.empty()) steps.push_back(std::move(open));
      open = {};
      Step quote;
      quote.quote = true;
      quote.knot = static_cast<std::uint32_t>(event.knot);
      quote.rate = event.rate;
      steps.push_back(std::move(quote));
    } else {
      open.options.push_back(event.option);
      if (open.options.size() == kRequestOptions) {
        steps.push_back(std::move(open));
        open = {};
      }
    }
  }
  if (!open.options.empty()) steps.push_back(std::move(open));
  return steps;
}

/// Times every PricingService callback on the loop thread while enabled
/// (traced phases only) and records one service.on_frame span per price
/// request. All recorded data sits behind one mutex: the loop keeps
/// ticking while the main thread collects it between phases.
class TimedHandler : public net::ServerHandler {
 public:
  explicit TimedHandler(service::PricingService& inner) : inner_(inner) {}

  void set_enabled(bool enabled) { enabled_.store(enabled); }

  void on_frame(net::Server& server, int conn, net::Frame frame) override {
    if (!enabled_.load(std::memory_order_relaxed)) {
      inner_.on_frame(server, conn, std::move(frame));
      return;
    }
    const bool request = frame.type == net::FrameType::kPriceRequest;
    const std::uint64_t trace = trace_id(frame.tenant, frame.request);
    const std::int64_t t0 = now_ns();
    inner_.on_frame(server, conn, std::move(frame));
    const std::int64_t t1 = now_ns();
    MutexLock lock(mutex_);
    frame_us_.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (request) spans_.push_back({trace, "service.on_frame", "request", t0, t1});
  }

  void on_malformed(net::Server& server, int conn,
                    const std::string& error) override {
    inner_.on_malformed(server, conn, error);
  }

  void on_tick(net::Server& server) override {
    if (!enabled_.load(std::memory_order_relaxed)) {
      inner_.on_tick(server);
      return;
    }
    const std::uint64_t before = inner_.stats().responses;
    const std::int64_t t0 = now_ns();
    inner_.on_tick(server);
    const std::int64_t t1 = now_ns();
    const bool useful = inner_.stats().responses > before;
    MutexLock lock(mutex_);
    tick_us_.push_back(static_cast<double>(t1 - t0) * 1e-3);
    useful_ticks_ += useful ? 1 : 0;
  }

  void on_disconnect(int conn) override { inner_.on_disconnect(conn); }

  struct Recorded {
    std::vector<double> frame_us;
    std::vector<double> tick_us;
    std::uint64_t useful_ticks = 0;
    std::vector<Span> spans;
  };

  Recorded take() CDSFLOW_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    Recorded out{std::move(frame_us_), std::move(tick_us_), useful_ticks_,
                 std::move(spans_)};
    frame_us_.clear();
    tick_us_.clear();
    spans_.clear();
    useful_ticks_ = 0;
    return out;
  }

 private:
  service::PricingService& inner_;
  std::atomic<bool> enabled_{false};
  Mutex mutex_;
  std::vector<double> frame_us_ CDSFLOW_GUARDED_BY(mutex_);
  std::vector<double> tick_us_ CDSFLOW_GUARDED_BY(mutex_);
  std::uint64_t useful_ticks_ CDSFLOW_GUARDED_BY(mutex_) = 0;
  std::vector<Span> spans_ CDSFLOW_GUARDED_BY(mutex_);
};

/// One request as the load generator saw it (ns on the harness clock).
struct RequestRecord {
  std::int64_t intended = 0;
  std::int64_t send_start = 0;
  std::int64_t send_end = 0;
  std::int64_t reply = 0;
  std::uint32_t request = 0;
  bool ok = false;  ///< a result arrived (not a reject)
};

struct PhaseResult {
  /// Per tenant, in request order.
  std::vector<std::vector<RequestRecord>> records;
  std::int64_t start_ns = 0;
  std::int64_t last_reply_ns = 0;
  std::vector<Span> spans;
  std::uint64_t request_bytes = 0;
  std::uint64_t requests_sent = 0;

  std::size_t completed() const {
    std::size_t n = 0;
    for (const auto& tenant : records) {
      for (const auto& r : tenant) n += r.ok ? 1 : 0;
    }
    return n;
  }
};

struct StreamState {
  cds::TermStructure interest;
  cds::TermStructure hazard;
  std::vector<std::vector<Step>> steps;  ///< per tenant, cycled
  double gen_seconds = 0.0;

  std::unique_ptr<service::PricingService> service;
  std::unique_ptr<TimedHandler> timed;  ///< traced runs only
  std::unique_ptr<net::Server> server;
  std::unique_ptr<JoinedThread> loop;
  std::vector<net::Client> clients;

  /// Per tenant: steps consumed so far, next request id, replies received.
  std::vector<std::size_t> cursor;
  std::vector<std::uint32_t> next_request;
  std::vector<std::vector<cds::SpreadResult>> replies;

  StreamState() = default;
  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;
  ~StreamState() {
    for (auto& client : clients) client.close();
    if (loop) server->stop();  // `loop` is destroyed first and joins
  }

  /// Closes the connections and stops the server loop; rethrows what the
  /// loop threw.
  void stop() {
    for (auto& client : clients) client.close();
    if (loop) {
      server->stop();
      loop->join();
      loop.reset();
    }
  }
};

std::size_t paced_requests(const Options& options) {
  return static_cast<std::size_t>(kPacedRate * options.seconds *
                                  (options.trace ? 0.25 : 0.5));
}

std::size_t saturation_requests(const Options& options) {
  return static_cast<std::size_t>(kSaturationRate * options.seconds * 0.25);
}

std::unique_ptr<StreamState> build_state(const Options& options) {
  auto s = std::make_unique<StreamState>();
  const std::int64_t t0 = now_ns();
  s->interest = workload::paper_interest_curve(1024, derive_seed(options.seed, 1));
  s->hazard = workload::paper_hazard_curve(1024, derive_seed(options.seed, 2));
  for (std::uint32_t t = 1; t <= kTenants; ++t) {
    workload::QuoteFeedSpec spec;
    // Every 17th step is a hazard quote: 16 requests, then one update.
    spec.hazard_update_every = kQuoteEveryRequests * kRequestOptions + 1;
    spec.events = kPoolRequests / kQuoteEveryRequests * spec.hazard_update_every;
    spec.book.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
    spec.seed = derive_seed(options.seed, 5);
    spec.tenant = t;
    s->steps.push_back(slice_feed(workload::make_quote_feed(spec, s->hazard)));
  }
  s->gen_seconds = seconds_between(t0, now_ns());
  for (std::uint32_t t = 1; t <= kTenants; ++t) {
    for (auto& step : s->steps[t - 1]) {
      step.frame = step.quote
                       ? net::encode_quote_update(t, step.knot, step.rate)
                       : net::encode_price_request(t, 0, step.options);
    }
  }

  service::ServiceConfig config;
  for (std::uint32_t t = 1; t <= kTenants; ++t) {
    service::TenantSpec spec;
    spec.id = t;
    spec.name = "tenant-" + std::to_string(t);
    spec.deadline = kTenantDeadline;
    spec.stream = lane_config();
    spec.fit.engine_name = spec.stream.engine;
    spec.fit.watts = 1.0;
    spec.fit.options_per_second = 1e12;  // admission never sheds
    config.tenants.push_back(std::move(spec));
  }
  s->service = std::make_unique<service::PricingService>(config, s->interest,
                                                         s->hazard);
  net::ServerHandler* handler = s->service.get();
  if (options.trace) {
    s->timed = std::make_unique<TimedHandler>(*s->service);
    handler = s->timed.get();
  }
  // Relative path: the socket lives in the working directory.
  net::ServerConfig server_config;
  server_config.unix_path = "stream-" + std::to_string(::getpid()) + ".sock";
  s->server = std::make_unique<net::Server>(server_config);
  s->loop = std::make_unique<JoinedThread>(
      [server = s->server.get(), handler] { server->run(*handler); });
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    s->clients.push_back(net::Client::connect_unix(server_config.unix_path));
  }
  s->cursor.assign(kTenants, 0);
  s->next_request.assign(kTenants, 1);
  // Reply storage for every phase, reserved once: growing it mid-phase
  // would copy it inside a reader (a stall that reads as server latency).
  const std::size_t requests = kWarmupRequests + paced_requests(options) +
                               saturation_requests(options);
  s->replies.resize(kTenants);
  for (auto& replies : s->replies) {
    replies.reserve((requests / kTenants + 1) * kRequestOptions);
  }
  return s;
}

/// Sends `n` requests at Poisson `rate` (alternating tenants) and reads
/// every reply. With `traced`, records spans and the per-layer timings.
PhaseResult run_phase(StreamState& s, double rate, std::size_t n,
                      std::uint64_t arrival_seed, bool traced) {
  PhaseResult phase;
  phase.records.resize(kTenants);
  std::vector<std::int64_t> offsets(n);
  Rng rng(arrival_seed);
  double at = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = static_cast<std::int64_t>(at * 1e9);
    at += -std::log(1.0 - rng.uniform01()) / rate;
  }
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    phase.records[t].resize(n / kTenants + (t < n % kTenants ? 1 : 0));
  }
  phase.start_ns = now_ns() + 1'000'000;  // 1 ms to start the threads
  for (std::size_t i = 0; i < n; ++i) {
    auto& record = phase.records[i % kTenants][i / kTenants];
    record.intended = phase.start_ns + offsets[i];
    record.request = s.next_request[i % kTenants] +
                     static_cast<std::uint32_t>(i / kTenants);
  }

  std::vector<std::vector<Span>> reader_spans(kTenants);
  std::atomic<bool> sender_done{false};
  std::vector<std::int64_t> last_reply(kTenants, 0);

  std::vector<std::unique_ptr<JoinedThread>> readers;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    readers.push_back(std::make_unique<JoinedThread>([&, t] {
      auto& records = phase.records[t];
      const std::uint32_t first = s.next_request[t];
      std::size_t received = 0;
      std::optional<std::int64_t> drain_deadline;
      while (received < records.size()) {
        auto frame = s.clients[t].read_frame_for(20'000);
        if (!frame) {
          if (!drain_deadline && sender_done.load()) {
            drain_deadline = now_ns() + static_cast<std::int64_t>(kDrainSeconds * 1e9);
          }
          if (drain_deadline && now_ns() > *drain_deadline) break;
          continue;
        }
        const std::int64_t now = now_ns();
        const std::size_t k = frame->request - first;
        if (k >= records.size()) continue;
        auto& record = records[k];
        record.reply = now;
        if (frame->type == net::FrameType::kResult) {
          record.ok = true;
          s.replies[t].insert(s.replies[t].end(), frame->results.begin(),
                              frame->results.end());
        }
        ++received;
        last_reply[t] = now;
        if (traced) {
          reader_spans[t].push_back({trace_id(t + 1, record.request), "request",
                                     nullptr, record.intended, now});
        }
      }
    }));
  }

  JoinedThread sender([&] {
    struct DoneFlag {
      std::atomic<bool>& done;
      ~DoneFlag() { done.store(true); }  // also when a send throws
    } done_flag{sender_done};
    ::prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us: wake close to the schedule
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t t = static_cast<std::uint32_t>(i % kTenants);
      auto& record = phase.records[t][i / kTenants];
      const std::int64_t wait = record.intended - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      record.send_start = now_ns();
      auto& steps = s.steps[t];
      if (steps[s.cursor[t] % steps.size()].quote) {
        s.clients[t].send(steps[s.cursor[t]++ % steps.size()].frame);
      }
      auto& frame = steps[s.cursor[t]++ % steps.size()].frame;
      set_request_id(frame, record.request);
      s.clients[t].send(frame);
      record.send_end = now_ns();
      phase.request_bytes += frame.size();
      if (traced) {
        const std::uint64_t trace = trace_id(t + 1, record.request);
        phase.spans.push_back({trace, "gen.lag", "request", record.intended,
                               record.send_start});
        phase.spans.push_back({trace, "net.send", "request",
                               record.send_start, record.send_end});
      }
    }
    phase.requests_sent = n;
  });
  sender.join();
  for (auto& reader : readers) reader->join();

  for (std::uint32_t t = 0; t < kTenants; ++t) {
    s.next_request[t] += static_cast<std::uint32_t>(phase.records[t].size());
    phase.last_reply_ns = std::max(phase.last_reply_ns, last_reply[t]);
    phase.spans.insert(phase.spans.end(), reader_spans[t].begin(),
                       reader_spans[t].end());
  }
  return phase;
}

std::vector<double> latencies_us(const PhaseResult& phase) {
  std::vector<double> out;
  for (const auto& tenant : phase.records) {
    for (const auto& r : tenant) {
      if (r.ok) out.push_back(static_cast<double>(r.reply - r.intended) * 1e-3);
    }
  }
  return out;
}

/// The `q` latency quantile of each 0.5-second window of intended send
/// times (windows with fewer than 1,000 replies are skipped). Their median
/// is the tail of a typical half second, which a host stall in a few
/// windows cannot move on its own.
std::vector<double> window_quantiles_us(const PhaseResult& phase, double q) {
  std::vector<std::vector<double>> windows;
  for (const auto& tenant : phase.records) {
    for (const auto& r : tenant) {
      if (!r.ok) continue;
      const auto w = static_cast<std::size_t>(
          2.0 * seconds_between(phase.start_ns, r.intended));
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(static_cast<double>(r.reply - r.intended) * 1e-3);
    }
  }
  std::vector<double> out;
  for (auto& window : windows) {
    if (window.size() >= 1000) out.push_back(quantile(std::move(window), q));
  }
  return out;
}

std::size_t replies_slower_than(const PhaseResult& phase, double seconds) {
  std::size_t n = 0;
  for (const auto& tenant : phase.records) {
    for (const auto& r : tenant) {
      n += r.ok && seconds_between(r.intended, r.reply) > seconds ? 1 : 0;
    }
  }
  return n;
}

std::vector<double> lateness_us(const PhaseResult& phase) {
  std::vector<double> out;
  for (const auto& tenant : phase.records) {
    for (const auto& r : tenant) {
      out.push_back(static_cast<double>(r.send_start - r.intended) * 1e-3);
    }
  }
  return out;
}

/// Failed operations of a phase: rejects, missing replies and, when
/// `late_limit` is set, replies later than the tenants' deadline after the
/// intended send.
std::uint64_t failures(const PhaseResult& phase, bool late_limit) {
  std::uint64_t failed = phase.requests_sent - phase.completed();
  if (late_limit) {
    failed += replies_slower_than(phase, kTenantDeadline.deadline_seconds);
  }
  return failed;
}

void print_phase(const char* name, const PhaseResult& phase, double rate) {
  const auto lat = latencies_us(phase);
  const auto lag = lateness_us(phase);
  std::cout << "quote-stream " << name << ": " << phase.requests_sent
            << " requests offered at " << rate << "/s, " << phase.completed()
            << " completed; latency p50 " << median(lat) << " us, p90 "
            << quantile(lat, 0.9) << " us, p99 " << quantile(lat, 0.99)
            << " us (median of 0.5-s windows: p90 "
            << median(window_quantiles_us(phase, 0.9)) << " us, p99 "
            << median(window_quantiles_us(phase, 0.99)) << " us), max "
            << quantile(lat, 1.0) << " us, " << replies_slower_than(phase, kSlowReplySeconds)
            << " over 5 ms, "
            << replies_slower_than(phase, kVerySlowReplySeconds)
            << " over 50 ms; generator lateness p50 "
            << median(lag) << " us, p99 " << quantile(lag, 0.99)
            << " us, max " << quantile(lag, 1.0) << " us\n";
}

/// Completed requests per second in each 0.5-second window of reply times,
/// without the first window (start-up) and the last (partial): the rate
/// the server sustained while the backlog kept it busy. Their median is
/// the capacity of a typical half second, which a host slowdown in a few
/// windows cannot move on its own. A phase too short for a full window
/// gives its mean rate instead.
std::vector<double> window_rates_rps(const PhaseResult& phase) {
  std::vector<double> replies;
  for (const auto& tenant : phase.records) {
    for (const auto& r : tenant) {
      if (!r.ok) continue;
      const auto w = static_cast<std::size_t>(
          2.0 * seconds_between(phase.start_ns, r.reply));
      if (w >= replies.size()) replies.resize(w + 1);
      replies[w] += 1.0;
    }
  }
  std::vector<double> out;
  for (std::size_t w = 1; w + 1 < replies.size(); ++w) {
    out.push_back(replies[w] * 2.0);
  }
  if (out.empty()) {
    out.push_back(static_cast<double>(phase.completed()) /
                  seconds_between(phase.start_ns, phase.last_reply_ns));
  }
  return out;
}

/// Bit-identity gate: each tenant's replies, in each of `states`, against a
/// StreamRuntime driven directly with the same events in the same order.
bool replies_match_direct_runtime(
    std::initializer_list<const StreamState*> states) {
  // The replays share nothing, so they run side by side.
  std::vector<std::pair<const StreamState*, std::uint32_t>> replays;
  for (const StreamState* s : states) {
    for (std::uint32_t t = 0; t < kTenants; ++t) replays.emplace_back(s, t);
  }
  std::vector<char> match(replays.size(), 0);
  std::vector<std::unique_ptr<JoinedThread>> threads;
  for (std::size_t k = 0; k < replays.size(); ++k) {
    threads.push_back(std::make_unique<JoinedThread>([&, k] {
      const auto& [s, t] = replays[k];
      runtime::StreamRuntime direct(s->interest, s->hazard, lane_config());
      const auto& steps = s->steps[t];
      for (std::size_t i = 0; i < s->cursor[t]; ++i) {
        const auto& step = steps[i % steps.size()];
        if (step.quote) {
          direct.push_hazard_quote(step.knot, step.rate);
        } else {
          for (const auto& option : step.options) direct.push(option);
        }
      }
      match[k] = same_spreads(s->replies[t], direct.finish().run.results);
    }));
  }
  for (auto& thread : threads) thread->join();
  for (std::size_t k = 0; k < replays.size(); ++k) {
    if (!match[k]) {
      std::cout << "quote-stream: tenant " << replays[k].second + 1
                << " replies differ from the direct StreamRuntime\n";
      return false;
    }
  }
  return true;
}

/// Mean hazard-quote re-tabulations on a StreamPricer replaying tenant 1's
/// sent events.
double retab_grids_per_quote(const StreamState& s) {
  cds::StreamPricerConfig config;
  config.kernel_level = cds::simd::active_level();
  cds::StreamPricer pricer(s.interest, s.hazard, config);
  const auto& steps = s.steps[0];
  std::vector<cds::SpreadResult> out;
  std::size_t quotes = 0;
  std::size_t retabulated = 0;
  for (std::size_t i = 0; i < std::min(s.cursor[0], steps.size()); ++i) {
    const auto& step = steps[i];
    if (step.quote) {
      ++quotes;
      retabulated += pricer.update_hazard_quote(step.knot, step.rate);
    } else {
      out.resize(step.options.size());
      pricer.price(step.options, out);
    }
  }
  return quotes == 0 ? 0.0
                     : static_cast<double>(retabulated) /
                           static_cast<double>(quotes);
}

/// net::encode_price_request over tenant 1's request pool, median ns.
double encode_ns_per_frame(const StreamState& s) {
  std::vector<double> ns;
  for (const auto& step : s.steps[0]) {
    if (step.quote) continue;
    const std::int64_t t0 = now_ns();
    const auto frame = net::encode_price_request(1, 1, step.options);
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(ns);
}

/// net::FrameReader feed + next over tenant 1's request frames, fed in
/// 64 KiB reads like the server's; median ns per frame over 5 replays.
double decode_ns_per_frame(const StreamState& s) {
  std::vector<std::uint8_t> bytes;
  std::size_t n_frames = 0;
  for (const auto& step : s.steps[0]) {
    if (step.quote) continue;
    bytes.insert(bytes.end(), step.frame.begin(), step.frame.end());
    ++n_frames;
  }
  std::vector<double> per_frame;
  constexpr std::size_t kChunk = 65536;
  for (int rep = 0; rep < 5; ++rep) {
    net::FrameReader reader;
    std::size_t frames = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
      reader.feed(bytes.data() + at, std::min(kChunk, bytes.size() - at));
      while (reader.next()) ++frames;
    }
    const std::int64_t t1 = now_ns();
    CDSFLOW_EXPECT(frames == n_frames && !reader.failed(),
                   "decode replay lost frames");
    per_frame.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(frames));
  }
  return median(per_frame);
}

}  // namespace

Result run_quote_stream(const Options& options) {
  Result result;
  // The run is split into rounds of about kRoundSeconds, each on fresh
  // services, so that no phase outlives the length the workload was sized
  // for (see the file comment). End-to-end metrics pool the rounds; the
  // per-layer metrics come from the last one.
  const int rounds = std::max(
      1, static_cast<int>(std::lround(options.seconds / kRoundSeconds)));
  Options round_options = options;
  round_options.seconds = options.seconds / rounds;
  const std::function<std::unique_ptr<StreamState>()> build = [&] {
    auto s = build_state(round_options);
    run_phase(*s, kPacedRate, kWarmupRequests, derive_seed(options.seed, 10),
              false);
    return s;
  };
  auto [first, setup_seconds] = timed_setup<StreamState>(kSetupRepeats, build);

  std::vector<double> paced_latency;
  std::vector<double> paced_window_p50;
  std::vector<double> paced_window_p90;
  std::vector<double> capacity;
  double peak_rss = 0.0;
  // The last round's traced and saturation phases, its state and what its
  // service recorded: the per-layer metrics come from them.
  std::optional<PhaseResult> traced_paced;
  PhaseResult saturation;
  std::unique_ptr<StreamState> second;
  TimedHandler::Recorded handler_data;
  std::vector<std::vector<double>> service_latency_us;
  service::ServiceStats stats;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t stream = 11 + 16 * static_cast<std::uint64_t>(round);
    second.reset();  // one round's services at a time
    auto paced_state = round == 0 ? std::move(first) : build();
    const auto paced = run_phase(*paced_state, kPacedRate,
                                 paced_requests(round_options),
                                 derive_seed(options.seed, stream), false);
    paced_state->stop();
    // Memory at the stated load: set-up plus the paced phase. Under the
    // saturation phase's overload the server's outbound buffers grow with
    // how far the readers lag, which varies from run to run.
    if (round == 0) peak_rss = peak_rss_mb();
    paced_state->timed.reset();
    paced_state->service.reset();  // its replies and events stay for the gate

    // The later phases run on a fresh service: the service's cost per tick
    // grows with the results it has retained, so a phase run after another
    // would depend on that one's length and micro-batch boundaries. The two
    // paced phases thus start from the same point, and their difference is
    // the tracing overhead.
    second = build();
    auto& s = *second;
    if (options.trace) {
      s.timed->set_enabled(true);
      traced_paced = run_phase(s, kPacedRate, paced_requests(round_options),
                               derive_seed(options.seed, stream + 1), true);
    }
    saturation = run_phase(s, kSaturationRate,
                           saturation_requests(round_options),
                           derive_seed(options.seed, stream + 2),
                           options.trace);
    if (options.trace) {
      s.timed->set_enabled(false);
      handler_data = s.timed->take();
    }
    s.stop();  // the service's sessions and stats are now safe to read
    // Copy what the report needs, then free the results the service
    // retains before the gate builds runtimes of its own.
    service_latency_us.clear();
    for (std::uint32_t t = 1; t <= kTenants; ++t) {
      service_latency_us.push_back(s.service->session(t)->latency_us());
    }
    stats = s.service->stats();
    s.timed.reset();
    s.service.reset();

    print_phase("paced", paced, kPacedRate);
    if (traced_paced) print_phase("paced (traced)", *traced_paced, kPacedRate);
    print_phase("saturation", saturation, kSaturationRate);

    result.attempted += paced.requests_sent + saturation.requests_sent +
                        (traced_paced ? traced_paced->requests_sent : 0);
    result.failed += failures(paced, true) + failures(saturation, false) +
                     (traced_paced ? failures(*traced_paced, true) : 0);
    result.correct = result.correct &&
                     replies_match_direct_runtime({paced_state.get(), &s});
    const auto latency = latencies_us(paced);
    paced_latency.insert(paced_latency.end(), latency.begin(), latency.end());
    const auto p50 = window_quantiles_us(paced, 0.5);
    paced_window_p50.insert(paced_window_p50.end(), p50.begin(), p50.end());
    const auto p90 = window_quantiles_us(paced, 0.9);
    paced_window_p90.insert(paced_window_p90.end(), p90.begin(), p90.end());
    const auto rates = window_rates_rps(saturation);
    capacity.insert(capacity.end(), rates.begin(), rates.end());
  }

  if (!options.trace) {
    result.set("setup_s", setup_seconds, "s");
    result.set("peak_rss_mb", peak_rss, "MB");
    result.set("throughput_per_s", median(capacity), "1/s");
    result.set("latency_p50_us", median(paced_window_p50), "us");
    result.set("latency_p90_us", median(paced_window_p90), "us");
    return result;
  }

  const auto& s = *second;
  // The paced phase the per-layer metrics come from.
  const auto& layer_paced = *traced_paced;
  // ---- per-layer metrics from the traced phases ----
  const auto traced_latency = latencies_us(layer_paced);
  result.set("trace.overhead_pct",
             (median(traced_latency) / median(paced_latency) - 1.0) * 100.0,
             "%");
  result.set("workload.gen_s", s.gen_seconds, "s");
  const auto paced_lag = lateness_us(layer_paced);
  result.set("gen.paced_lag_us.p50", median(paced_lag), "us");
  result.set("gen.paced_lag_us.p99", quantile(paced_lag, 0.99), "us");
  result.set("gen.paced_lag_us.max", quantile(paced_lag, 1.0), "us");
  const auto sat_lag = lateness_us(saturation);
  result.set("gen.saturation_lag_us.p50", median(sat_lag), "us");
  result.set("gen.saturation_lag_us.p99", quantile(sat_lag, 0.99), "us");
  result.set("gen.saturation_lag_us.max", quantile(sat_lag, 1.0), "us");

  // Send times cover both traced phases (saturation is where a full socket
  // blocks the sender); service latency and transit the paced one, where
  // they are not dominated by queueing.
  std::vector<double> send_us, transit_us, service_us;
  for (const PhaseResult* phase :
       std::array<const PhaseResult*, 2>{&layer_paced, &saturation}) {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      const auto& latency = service_latency_us[t];
      for (const auto& r : phase->records[t]) {
        send_us.push_back(static_cast<double>(r.send_end - r.send_start) *
                          1e-3);
        // Request ids start at 1 and every request completes in order, so
        // request r is the session's (r - 1)-th latency sample.
        if (phase != &layer_paced || !r.ok ||
            r.request - 1 >= latency.size()) {
          continue;
        }
        const double service = latency[r.request - 1];
        service_us.push_back(service);
        transit_us.push_back(
            static_cast<double>(r.reply - r.send_start) * 1e-3 - service);
      }
    }
  }
  result.set("net.send_us.p50", median(send_us), "us");
  result.set("net.send_us.p99", quantile(send_us, 0.99), "us");
  result.set("net.encode_ns_per_frame", encode_ns_per_frame(s), "ns");
  result.set("net.decode_ns_per_frame", decode_ns_per_frame(s), "ns");
  result.set("net.transit_us.p50", median(transit_us), "us");
  result.set("net.transit_us.p99", quantile(transit_us, 0.99), "us");
  const std::vector<cds::SpreadResult> reply_rows(kRequestOptions);
  const double reply_bytes = static_cast<double>(
      net::encode_result(1, 1, net::kResultOnTime, reply_rows).size());
  result.set("net.bytes_per_request",
             static_cast<double>(layer_paced.request_bytes) /
                     static_cast<double>(layer_paced.requests_sent) +
                 reply_bytes,
             "B");

  result.set("service.on_frame_us.p50", median(handler_data.frame_us), "us");
  result.set("service.on_frame_us.p99", quantile(handler_data.frame_us, 0.99),
             "us");
  result.set("service.on_frame_us.count",
             static_cast<double>(handler_data.frame_us.size()), "count");
  result.set("service.on_tick_us.p50", median(handler_data.tick_us), "us");
  result.set("service.on_tick_us.p99", quantile(handler_data.tick_us, 0.99),
             "us");
  result.set("service.on_tick_us.count",
             static_cast<double>(handler_data.tick_us.size()), "count");
  result.set("service.tick_useful_share",
             handler_data.tick_us.empty()
                 ? 0.0
                 : static_cast<double>(handler_data.useful_ticks) /
                       static_cast<double>(handler_data.tick_us.size()),
             "ratio");
  result.set("service.latency_us.p50", median(service_us), "us");
  result.set("service.latency_us.p99", quantile(service_us, 0.99), "us");
  result.set("service.admitted", static_cast<double>(stats.admitted), "count");
  result.set("service.deferred", static_cast<double>(stats.deferred), "count");
  result.set("service.shed", static_cast<double>(stats.shed), "count");
  result.set("service.rejects",
             static_cast<double>(stats.rejects_malformed +
                                 stats.rejects_unknown_tenant +
                                 stats.rejects_wrong_mode),
             "count");

  // A micro-batch's worth of options from tenant 1's request pool.
  std::vector<cds::CdsOption> batch;
  for (const auto& step : s.steps[0]) {
    if (batch.size() >= lane_config().max_batch) break;
    batch.insert(batch.end(), step.options.begin(), step.options.end());
  }
  report_cds_kernel(result, s.interest, s.hazard, batch);
  result.set("cds.retab_grids_per_quote", retab_grids_per_quote(s), "count");

  std::vector<Span> spans = layer_paced.spans;
  spans.insert(spans.end(), saturation.spans.begin(), saturation.spans.end());
  spans.insert(spans.end(), handler_data.spans.begin(), handler_data.spans.end());
  // Shares come from the paced phase; saturated requests mostly queue.
  const auto is_paced = [&](std::uint64_t trace) {
    const auto tenant = static_cast<std::uint32_t>(trace >> 32) - 1;
    const auto request = static_cast<std::uint32_t>(trace);
    const auto& records = layer_paced.records[tenant];
    return !records.empty() && request >= records.front().request &&
           request <= records.back().request;
  };
  const auto layers = analyse_layers(spans, is_paced);
  report_layers(result, layers);
  result.set("trace.request_p99_us",
             median(window_quantiles_us(layer_paced, 0.99)), "us");
  result.set("trace.replies_over_5ms",
             static_cast<double>(
                 replies_slower_than(layer_paced, kSlowReplySeconds)),
             "count");
  result.set("trace.share.gen_lag", layers.share("gen.lag"), "ratio");
  result.set("trace.share.net_send", layers.share("net.send"), "ratio");
  result.set("trace.share.service_on_frame", layers.share("service.on_frame"),
             "ratio");
  write_spans("spans-quote-stream.csv", spans);
  return result;
}

}  // namespace cdsbench
