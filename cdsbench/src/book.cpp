/// \file book.cpp
/// The book-batch workload: one caller prices a 65,536-option book back to
/// back with runtime::PortfolioRuntime (cpu-vec, min(4, nproc) workers).
///
/// The book has continuous maturities (workload::make_portfolio defaults),
/// so almost every option has its own schedule grid: grid tabulation in
/// cds and shard/dispatch/merge in runtime do nearly all the work. A traced
/// run spends half its time on a second phase: the same book through
/// cluster::ClusterCoordinator over 2 in-process loopback nodes, each a
/// cpu-vec runtime with 1 worker, for the cluster layer's metrics. Gates,
/// checked on every priced book outside the timed call: runtime spreads are
/// bit-identical to a 1-worker PortfolioRuntime, and cluster spreads to the
/// same reference.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/coordinator.hpp"
#include "cluster/worker.hpp"
#include "harness.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"

namespace cdsbench {
namespace {

using namespace cdsflow;

constexpr std::size_t kBookSize = 65536;
constexpr std::size_t kClusterNodes = 2;
/// The wire bound on options per shard frame.
constexpr std::size_t kClusterShardSize = net::kMaxOptionsPerRequest;
constexpr int kSetupRepeats = 7;

unsigned book_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct BookInputs {
  cds::TermStructure interest;
  cds::TermStructure hazard;
  std::vector<cds::CdsOption> book;
  double gen_seconds = 0.0;
};

BookInputs make_inputs(std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  BookInputs in;
  in.interest = workload::paper_interest_curve(1024, derive_seed(seed, 1));
  in.hazard = workload::paper_hazard_curve(1024, derive_seed(seed, 2));
  workload::PortfolioSpec spec;
  spec.count = kBookSize;
  spec.seed = derive_seed(seed, 3);
  in.book = workload::make_portfolio(spec);
  in.gen_seconds = seconds_between(t0, now_ns());
  return in;
}

runtime::RuntimeConfig vec_runtime(unsigned workers) {
  runtime::RuntimeConfig config;
  config.engine = "cpu-vec";
  config.workers = workers;
  return config;
}

// --------------------------------------------------------- cluster phase ---

/// Trace ids of cluster-phase books start here, after the runtime phase's.
constexpr std::uint64_t kClusterTraceBase = std::uint64_t{1} << 32;

/// One in-process cluster node: a pinned-fit ClusterWorker behind its own
/// socket server thread.
struct ClusterNode {
  std::unique_ptr<cluster::ClusterWorker> worker;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<JoinedThread> loop;

  ClusterNode(const BookInputs& in, const std::string& path) {
    cluster::WorkerConfig config;
    config.runtime = vec_runtime(1);
    // Equal pinned fits: the plan is the same on every run.
    config.fit.options_per_second = 1e6;
    config.fit.setup_seconds = 1e-4;
    config.fit.watts = 60.0;
    worker = std::make_unique<cluster::ClusterWorker>(in.interest, in.hazard,
                                                      std::move(config));
    net::ServerConfig server_config;
    server_config.unix_path = path;
    server = std::make_unique<net::Server>(server_config);
    loop = std::make_unique<JoinedThread>([this] { server->run(*worker); });
  }

  ~ClusterNode() {
    server->stop();
    loop.reset();
  }

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;
};

/// The traced run's second phase: prices the book through a
/// ClusterCoordinator over kClusterNodes loopback nodes for `seconds`,
/// gates every book against `expected`, records one root span per book and
/// sets the cluster metrics.
void run_cluster_phase(Result& result, const BookInputs& in,
                       const std::vector<cds::SpreadResult>& expected,
                       double seconds, SpanLog& spans) {
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  cluster::CoordinatorConfig config;
  config.shard_size = kClusterShardSize;
  for (std::size_t i = 0; i < kClusterNodes; ++i) {
    // Relative path: the socket lives in the working directory.
    const std::string path = "node-" + std::to_string(::getpid()) + "-" +
                             std::to_string(i) + ".sock";
    nodes.push_back(std::make_unique<ClusterNode>(in, path));
    cluster::NodeSpec node;
    node.unix_path = path;
    node.measure_latency = false;
    config.nodes.push_back(node);
  }
  // Declared after the nodes: its connections close first.
  cluster::ClusterCoordinator coordinator(std::move(config));
  coordinator.price(in.book);  // warm-up pass

  std::vector<double> book_seconds, engine_share;
  std::size_t resubmissions = 0;
  std::size_t wire_bytes = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    cluster::ClusterRun run;
    book_seconds.push_back(
        traced_call(&spans, kClusterTraceBase + book_seconds.size(), "book",
                    "cluster.price", [&] { run = coordinator.price(in.book); }));
    ++result.attempted;
    if (!same_spreads(run.run.results, expected)) {
      ++result.failed;
      result.correct = false;
    }
    double engine = 0.0;
    wire_bytes = 0;
    for (const auto& shard : run.shards) {
      const std::size_t n = shard.end - shard.begin;
      engine += shard.engine_seconds;
      wire_bytes += net::shard_price_frame_bytes(n) +
                    net::shard_result_frame_bytes(n, false);
    }
    engine_share.push_back(
        engine / (run.wall_seconds * static_cast<double>(run.n_nodes)));
    resubmissions += run.resubmissions;
  } while (now_ns() < end);

  std::cout << "book-batch cluster phase: " << book_seconds.size()
            << " books over " << kClusterNodes << " nodes, median "
            << median(book_seconds) * 1e3 << " ms ("
            << static_cast<double>(kBookSize) / median(book_seconds)
            << " options/s)\n";
  result.set("cluster.engine_share", median(engine_share), "ratio");
  result.set("cluster.wire_bytes_per_book", static_cast<double>(wire_bytes),
             "B");
  result.set("cluster.resubmissions", static_cast<double>(resubmissions),
             "count");
}

// ------------------------------------------------------------ book-batch ---

struct BatchState {
  BookInputs in;
  std::unique_ptr<runtime::PortfolioRuntime> runtime;
};

}  // namespace

Result run_book_batch(const Options& options) {
  Result result;
  auto [state, setup_seconds] = timed_setup<BatchState>(kSetupRepeats, [&] {
    auto s = std::make_unique<BatchState>();
    s->in = make_inputs(options.seed);
    s->runtime = std::make_unique<runtime::PortfolioRuntime>(
        s->in.interest, s->in.hazard, vec_runtime(book_workers()));
    s->runtime->price(s->in.book);  // warm-up pass
    return s;
  });
  const auto& book = state->in.book;

  // Reference: the same shard plan on one worker. Its shard times are also
  // the "alone" side of runtime.shard_slowdown.
  auto reference_config = vec_runtime(1);
  reference_config.shard_size = state->runtime->price(book).shard_size;
  runtime::PortfolioRuntime reference(state->in.interest, state->in.hazard,
                                      reference_config);
  std::vector<double> alone_seconds;
  runtime::RuntimeRun expected;
  for (int i = 0; i < 3; ++i) {
    expected = reference.price(book);
    double sum = 0.0;
    for (const auto& shard : expected.shards) sum += shard.engine_seconds;
    alone_seconds.push_back(sum);
  }

  // A traced run spends its second half on the cluster phase.
  Options runtime_options = options;
  if (options.trace) runtime_options.seconds = options.seconds / 2;
  std::vector<double> busy_share, overhead_ms, shard_ms, concurrent_seconds;
  SpanLog spans;
  const auto times = measure_closed_loop(
      runtime_options,
      [&](std::size_t i, SpanLog* log) {
        runtime::RuntimeRun run;
        const double seconds = traced_call(
            log, i, "book", "runtime.price",
            [&] { run = state->runtime->price(book); });
        ++result.attempted;
        if (!same_spreads(run.run.results, expected.run.results)) {
          ++result.failed;
          result.correct = false;
        }
        if (log) {
          double engine = 0.0;
          for (const auto& shard : run.shards) {
            engine += shard.engine_seconds;
            shard_ms.push_back(shard.engine_seconds * 1e3);
          }
          concurrent_seconds.push_back(engine);
          busy_share.push_back(engine / (run.wall_seconds * run.lanes));
          overhead_ms.push_back((run.wall_seconds - run.run.total_seconds) *
                                1e3);
        }
        return seconds;
      },
      spans);

  report_closed_loop(result, options, times, "options", kBookSize,
                     setup_seconds);
  if (options.trace) {
    result.set("workload.gen_s", state->in.gen_seconds, "s");
    result.set("runtime.busy_share", median(busy_share), "ratio");
    result.set("runtime.overhead_ms_per_book", median(overhead_ms), "ms");
    result.set("runtime.shard_slowdown",
               median(concurrent_seconds) / median(alone_seconds), "ratio");
    result.set("engine.shard_ms.p50", median(shard_ms), "ms");
    result.set("engine.shard_ms.p99", quantile(shard_ms, 0.99), "ms");
    report_cds_kernel(result, state->in.interest, state->in.hazard,
                      {book.data(), reference_config.shard_size});
    run_cluster_phase(result, state->in, expected.run.results,
                      options.seconds / 2, spans);
    const auto all = spans.take();
    // Shares per phase; the closure check covers the roots of both.
    const auto in_runtime = [](std::uint64_t trace) {
      return trace < kClusterTraceBase;
    };
    const auto layers = analyse_layers(all, in_runtime);
    const auto cluster_layers = analyse_layers(
        all, [&](std::uint64_t trace) { return !in_runtime(trace); });
    report_layers(result, layers);
    result.set("trace.roots",
               static_cast<double>(layers.roots + cluster_layers.roots),
               "count");
    result.set("trace.share.runtime", layers.share("runtime.price"), "ratio");
    result.set("trace.share.cluster", cluster_layers.share("cluster.price"),
               "ratio");
    write_spans("spans-book-batch.csv", all);
  }
  return result;
}


}  // namespace cdsbench
