#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>

#include <sys/resource.h>

#include "cds/batch_pricer.hpp"
#include "cds/vector_kernel.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace cdsbench {

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  return cdsflow::percentile(std::move(samples), q * 100.0);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_spreads(const std::vector<cdsflow::cds::SpreadResult>& a,
                  const std::vector<cdsflow::cds::SpreadResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::bit_cast<std::uint64_t>(a[i].spread_bps) !=
            std::bit_cast<std::uint64_t>(b[i].spread_bps)) {
      return false;
    }
  }
  return true;
}

namespace {

std::vector<double> closed_loop(double seconds,
                                const std::function<double(std::size_t)>& op) {
  std::vector<double> timed;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    timed.push_back(op(timed.size()));
  } while (now_ns() < end);
  return timed;
}

}  // namespace

ClosedLoopTimes measure_closed_loop(
    const Options& options,
    const std::function<double(std::size_t, SpanLog*)>& op, SpanLog& spans) {
  ClosedLoopTimes times;
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  times.untraced = closed_loop(
      untraced_seconds, [&](std::size_t i) { return op(i, nullptr); });
  if (options.trace) {
    const std::size_t offset = times.untraced.size();
    times.traced = closed_loop(options.seconds / 2, [&](std::size_t i) {
      return op(offset + i, &spans);
    });
  }
  return times;
}

void report_closed_loop(Result& result, const Options& options,
                        const ClosedLoopTimes& times, const char* item,
                        double items_per_call, double setup_seconds) {
  const auto& sample = options.trace ? times.traced : times.untraced;
  std::cout << options.workload << ": " << sample.size() << " calls of "
            << items_per_call << ' ' << item << ", median "
            << median(sample) * 1e3 << " ms, p90 "
            << quantile(sample, 0.9) * 1e3 << " ms, p99 "
            << quantile(sample, 0.99) * 1e3 << " ms\n";
  if (options.trace) {
    result.set("trace.overhead_pct",
               (median(times.traced) / median(times.untraced) - 1.0) * 100.0,
               "%");
    return;
  }
  result.set("setup_s", setup_seconds, "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set("throughput_per_s", items_per_call / median(times.untraced),
             "1/s");
  result.set("latency_p50_us", median(times.untraced) * 1e6, "us");
  result.set("latency_p90_us", quantile(times.untraced, 0.9) * 1e6, "us");
}

void report_cds_kernel(Result& result,
                       const cdsflow::cds::TermStructure& interest,
                       const cdsflow::cds::TermStructure& hazard,
                       std::span<const cdsflow::cds::CdsOption> batch) {
  using cdsflow::cds::BatchPricer;
  const BatchPricer pricer(interest, hazard,
                           cdsflow::cds::simd::active_level());
  std::vector<cdsflow::cds::SpreadResult> out(batch.size());
  BatchPricer::Workspace ws;
  std::vector<double> build_s;
  std::vector<double> price_s;
  cdsflow::cds::BatchStats stats;
  for (int i = 0; i < 21; ++i) {
    ws.clear();  // as price() does before its own build_grids()
    std::int64_t t0 = now_ns();
    stats = pricer.build_grids(batch, ws);
    build_s.push_back(seconds_between(t0, now_ns()));
    t0 = now_ns();
    pricer.price(batch, out, ws);
    price_s.push_back(seconds_between(t0, now_ns()));
  }
  const double n = static_cast<double>(batch.size());
  result.set("cds.tabulate_ns_per_point",
             median(build_s) * 1e9 / static_cast<double>(stats.grid_points),
             "ns");
  result.set("cds.combine_ns_per_option",
             (median(price_s) - median(build_s)) * 1e9 / n, "ns");
  result.set("cds.grid_points_per_option",
             static_cast<double>(stats.grid_points) / n, "count");
}

JoinedThread::JoinedThread(std::function<void()> body)
    : thread_([this, body = std::move(body)] {
        try {
          body();
        } catch (...) {
          error_ = std::current_exception();
        }
      }) {}

JoinedThread::~JoinedThread() {
  if (thread_.joinable()) thread_.join();
}

void JoinedThread::join() {
  if (thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void SpanLog::add(const Span& span) {
  cdsflow::MutexLock lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::take() {
  cdsflow::MutexLock lock(mutex_);
  return std::move(spans_);
}

double LayerBreakdown::share(const std::string& name) const {
  if (root_seconds <= 0.0) return 0.0;
  for (const auto& [layer, seconds] : attributed_seconds) {
    if (layer == name) return seconds / root_seconds;
  }
  return 0.0;
}

LayerBreakdown analyse_layers(
    const std::vector<Span>& spans,
    const std::function<bool(std::uint64_t)>& root_filter) {
  std::map<std::uint64_t, const Span*> roots;
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& span : spans) {
    if (span.parent == nullptr) {
      roots[span.trace] = &span;
    } else {
      children[span.trace].push_back(&span);
    }
  }

  LayerBreakdown out;
  std::map<std::string, double> attributed;
  for (const auto& [trace, root] : roots) {
    auto& kids = children[trace];
    std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    const std::int64_t duration = root->end_ns - root->start_ns;
    std::int64_t covered_until = root->start_ns;
    std::int64_t attributed_total = 0;
    std::int64_t inside_total = 0;  // children's time within the root
    std::int64_t outside_total = 0;  // children's time outside the root
    std::vector<std::pair<const char*, std::int64_t>> parts;
    for (const Span* kid : kids) {
      const std::int64_t start =
          std::clamp(kid->start_ns, root->start_ns, root->end_ns);
      const std::int64_t end =
          std::clamp(kid->end_ns, root->start_ns, root->end_ns);
      const std::int64_t inside = std::max<std::int64_t>(0, end - start);
      if (inside != kid->end_ns - kid->start_ns) {
        ++out.children_clipped;
        outside_total += kid->end_ns - kid->start_ns - inside;
      }
      inside_total += inside;
      const std::int64_t own =
          std::max<std::int64_t>(0, end - std::max(start, covered_until));
      covered_until = std::max(covered_until, end);
      attributed_total += own;
      parts.emplace_back(kid->name, own);
    }
    const std::int64_t self = duration - attributed_total;
    out.closure_max_err_ns = std::max(
        out.closure_max_err_ns,
        std::abs(attributed_total + self - duration) + outside_total);
    out.overlap_max_ns =
        std::max(out.overlap_max_ns, inside_total - attributed_total);
    if (root_filter && !root_filter(trace)) continue;
    ++out.roots;
    out.root_seconds += static_cast<double>(duration) * 1e-9;
    for (const auto& [name, ns] : parts) {
      attributed[name] += static_cast<double>(ns) * 1e-9;
    }
    attributed["self"] += static_cast<double>(self) * 1e-9;
  }
  out.attributed_seconds.assign(attributed.begin(), attributed.end());
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  CDSFLOW_EXPECT(out.good(), "cannot write span file " + path);
  out << "trace,name,parent,start_ns,end_ns\n";
  for (const auto& span : spans) {
    out << span.trace << ',' << span.name << ','
        << (span.parent ? span.parent : "") << ',' << span.start_ns << ','
        << span.end_ns << '\n';
  }
}

void report_layers(Result& result, const LayerBreakdown& layers) {
  result.set("trace.roots", static_cast<double>(layers.roots), "count");
  result.set("trace.children_clipped",
             static_cast<double>(layers.children_clipped), "count");
  result.set("trace.closure_max_err_ns",
             static_cast<double>(layers.closure_max_err_ns), "ns");
  result.set("trace.overlap_max_ns",
             static_cast<double>(layers.overlap_max_ns), "ns");
  result.set("trace.share.self", layers.share("self"), "ratio");
}

}  // namespace cdsbench
