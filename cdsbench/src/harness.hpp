/// \file harness.hpp
/// Shared plumbing of the cdsbench workloads: clocks, seeds, set-up timing,
/// the result record cdsbench prints, and the in-memory span log of a
/// traced run.
///
/// Every workload follows the same shape: build its state several times
/// (set-up time is the median), then measure for the requested number of
/// seconds, then check every output against a reference computed outside
/// the timed region. Untraced runs fill the end-to-end metrics; traced
/// runs fill the per-layer metrics from spans recorded around the
/// benchmark's own calls into each layer.

#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cds/curve.hpp"
#include "cds/types.hpp"
#include "common/thread_annotations.hpp"

namespace cdsbench {

class SpanLog;

/// Nanoseconds on the steady clock since the process's first call.
std::int64_t now_ns();

double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

/// Independent 64-bit seed for input stream `stream` of run seed `seed`
/// (splitmix64 finaliser, so nearby run seeds give unrelated inputs).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics (untraced
/// run) or the per-layer metrics (traced run), in print order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Peak resident set of this process so far, MB.
double peak_rss_mb();

/// True when both result streams hold the same ids and bit-identical
/// spreads, in the same order.
bool same_spreads(const std::vector<cdsflow::cds::SpreadResult>& a,
                  const std::vector<cdsflow::cds::SpreadResult>& b);

/// Closed-loop timings (one caller, calls back to back): untraced runs
/// measure for the full time; traced runs measure an untraced half, then a
/// traced half, and report the difference as the tracing overhead.
struct ClosedLoopTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// `op(i, spans)` runs operation i and returns the seconds of the region it
/// timed, so checks it runs after its timed call stay outside the figure;
/// `spans` is null in the untraced part. Each part calls `op` at least once.
ClosedLoopTimes measure_closed_loop(
    const Options& options,
    const std::function<double(std::size_t, SpanLog*)>& op,
    SpanLog& spans);

/// End-to-end metrics of a closed loop (untraced run), or its tracing
/// overhead (traced run); prints a summary line either way.
void report_closed_loop(Result& result, const Options& options,
                        const ClosedLoopTimes& times, const char* item,
                        double items_per_call, double setup_seconds);

/// Per-layer cds metrics of one batch priced by a fresh single-threaded
/// BatchPricer at the active SIMD level: grid build time per grid point,
/// combine time per option, grid points per option.
void report_cds_kernel(Result& result,
                       const cdsflow::cds::TermStructure& interest,
                       const cdsflow::cds::TermStructure& hazard,
                       std::span<const cdsflow::cds::CdsOption> batch);

/// A thread whose body's exception is kept and rethrown by join(), so a
/// failing load-generator or server thread fails the run instead of
/// terminating the process. The destructor joins a thread not yet joined.
class JoinedThread {
 public:
  explicit JoinedThread(std::function<void()> body);
  ~JoinedThread();
  JoinedThread(const JoinedThread&) = delete;
  JoinedThread& operator=(const JoinedThread&) = delete;

  /// Joins, then rethrows the body's exception, if any.
  void join();

 private:
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after error_ exists
};

/// Builds a workload's state `repeats` times and returns the last one with
/// the median build time. The previous state is destroyed before each
/// rebuild, so peak memory holds one state, not two.
template <class State>
std::pair<std::unique_ptr<State>, double> timed_setup(
    int repeats, const std::function<std::unique_ptr<State>()>& build) {
  std::unique_ptr<State> state;
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    state.reset();
    const std::int64_t t0 = now_ns();
    state = build();
    seconds.push_back(seconds_between(t0, now_ns()));
  }
  return {std::move(state), median(seconds)};
}

// ------------------------------------------------------------ tracing ------

/// One timed interval. Spans of one operation share `trace`; `parent` is
/// the name of the enclosing span in the same trace (nullptr for the root).
struct Span {
  std::uint64_t trace = 0;
  const char* name = "";
  const char* parent = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe append-only span store; spans stay in memory until the run
/// ends and are written out once.
class SpanLog {
 public:
  void add(const Span& span) CDSFLOW_EXCLUDES(mutex_);
  /// Moves the spans out (call after every recording thread is joined).
  std::vector<Span> take() CDSFLOW_EXCLUDES(mutex_);

 private:
  cdsflow::Mutex mutex_;
  std::vector<Span> spans_ CDSFLOW_GUARDED_BY(mutex_);
};

/// Self-time breakdown of every root span and its direct children.
///
/// Each child's time is attributed to its layer once: clipped to its root,
/// and time two children cover at once (concurrent layers, e.g. a client
/// send still returning while the server already handles the frame) goes
/// to the child that started first. Root self time is the root's duration
/// minus its children's attributed time. The closure check is that, per
/// root, attributed child time + self time == duration with no child time
/// outside the root; `closure_max_err_ns` is the largest violation (0 when
/// it holds), `children_clipped` counts children that left their root, and
/// `overlap_max_ns` is the most time two children of one root overlapped.
struct LayerBreakdown {
  std::size_t roots = 0;
  std::size_t children_clipped = 0;
  std::int64_t closure_max_err_ns = 0;
  std::int64_t overlap_max_ns = 0;
  double root_seconds = 0.0;
  /// Attributed seconds per child span name, plus "self" for root self
  /// time, summed over the roots.
  std::vector<std::pair<std::string, double>> attributed_seconds;

  /// Share of the summed root duration attributed to `name` (0 if absent).
  double share(const std::string& name) const;
};

/// Runs `call` as one operation. With `spans`, records a root span named
/// `root` and the call itself as its child `child`, both under `trace`.
/// Returns the call's seconds.
template <class Call>
double traced_call(SpanLog* spans, std::uint64_t trace, const char* root,
                   const char* child, const Call& call) {
  const std::int64_t r0 = now_ns();
  const std::int64_t t0 = spans ? now_ns() : r0;
  call();
  const std::int64_t t1 = now_ns();
  if (spans) {
    const std::int64_t r1 = now_ns();
    spans->add({trace, child, root, t0, t1});
    spans->add({trace, root, nullptr, r0, r1});
  }
  return seconds_between(t0, t1);
}

/// `root_filter`, when set, selects which roots (by trace id) enter the
/// breakdown; every root still counts towards the closure check.
LayerBreakdown analyse_layers(
    const std::vector<Span>& spans,
    const std::function<bool(std::uint64_t)>& root_filter = {});

/// Writes spans as CSV (trace,name,parent,start_ns,end_ns) to `path`.
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// Adds the trace.* per-layer metrics common to every workload.
void report_layers(Result& result, const LayerBreakdown& layers);

// ---------------------------------------------------------- workloads ------

Result run_book_batch(const Options& options);
Result run_quote_stream(const Options& options);
Result run_scenario_sweep(const Options& options);

}  // namespace cdsbench
