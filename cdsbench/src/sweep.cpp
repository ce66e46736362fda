/// \file sweep.cpp
/// The scenario-sweep workload: one caller sweeps a 4,096-option
/// standard-tenor book under 8,192 Monte-Carlo hazard scenarios with
/// runtime::SweepRuntime (min(4, nproc) workers, active SIMD level),
/// repeatedly.
///
/// It uses cds and runtime differently from the book workloads: the book is
/// fixed, one curve column is re-tabulated per scenario, and the sharding
/// runs along the scenario axis. The scenario matrix is 64 MB; a sweep
/// reads each row only up to the book's 10-year horizon (about a third of
/// the 30-year curve's knots), some 22 MB per sweep, which a last-level
/// cache of tens of MB holds. A 256 MB matrix (90 MB read per sweep) was
/// tried first: on a shared host its median sweep time moved by up to 32 %
/// between back-to-back runs of the same seed, against 4 % for this size.
/// Gate, checked on every sweep outside the timed call: the aggregates are
/// bit-identical to one single-threaded SweepPricer::sweep.

#include <algorithm>
#include <bit>
#include <memory>
#include <thread>
#include <vector>

#include "cds/sweep_pricer.hpp"
#include "cds/vector_kernel.hpp"
#include "harness.hpp"
#include "runtime/sweep_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"
#include "workload/scenario.hpp"

namespace cdsbench {
namespace {

using namespace cdsflow;

constexpr std::size_t kBookSize = 4096;
constexpr std::size_t kScenarios = 8192;
constexpr int kSetupRepeats = 7;

struct SweepState {
  cds::TermStructure interest;
  cds::TermStructure hazard;
  std::vector<cds::CdsOption> book;
  workload::ScenarioSet scenarios;
  double gen_seconds = 0.0;
  std::unique_ptr<runtime::SweepRuntime> runtime;
};

bool same_aggregates(const std::vector<cds::ScenarioAggregate>& a,
                     const std::vector<cds::ScenarioAggregate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].min_spread_bps) !=
            std::bit_cast<std::uint64_t>(b[i].min_spread_bps) ||
        std::bit_cast<std::uint64_t>(a[i].max_spread_bps) !=
            std::bit_cast<std::uint64_t>(b[i].max_spread_bps)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_scenario_sweep(const Options& options) {
  Result result;
  runtime::SweepRuntimeConfig config;
  config.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  config.level = cds::simd::active_level();

  auto [state, setup_seconds] = timed_setup<SweepState>(kSetupRepeats, [&] {
    auto s = std::make_unique<SweepState>();
    const std::int64_t t0 = now_ns();
    s->interest = workload::paper_interest_curve(1024, derive_seed(options.seed, 1));
    s->hazard = workload::paper_hazard_curve(1024, derive_seed(options.seed, 2));
    workload::PortfolioSpec spec;
    spec.count = kBookSize;
    spec.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
    spec.seed = derive_seed(options.seed, 3);
    s->book = workload::make_portfolio(spec);
    s->scenarios = workload::mc_hazard_scenarios(
        s->hazard, kScenarios, 0.25, derive_seed(options.seed, 4));
    s->gen_seconds = seconds_between(t0, now_ns());
    s->runtime = std::make_unique<runtime::SweepRuntime>(
        s->interest, s->hazard, s->book, config);
    s->runtime->run(s->scenarios.matrix());  // warm-up pass
    return s;
  });
  const auto matrix = state->scenarios.matrix();

  cds::SweepPricer single(state->interest, state->hazard, state->book,
                          config.level);
  const auto expected = single.sweep(matrix);

  std::vector<double> busy_share, overhead_ms;
  cds::SweepStats stats;
  SpanLog spans;
  const auto times = measure_closed_loop(
      options,
      [&](std::size_t i, SpanLog* log) {
        runtime::SweepRun run;
        const double seconds =
            traced_call(log, i, "sweep", "runtime.sweep",
                        [&] { run = state->runtime->run(matrix); });
        ++result.attempted;
        if (!same_aggregates(run.aggregates, expected)) {
          ++result.failed;
          result.correct = false;
        }
        if (log) {
          double busy = 0.0;
          for (const auto& shard : run.shards) busy += shard.seconds;
          busy_share.push_back(busy / (run.wall_seconds * run.lanes));
          overhead_ms.push_back((run.wall_seconds - run.modelled_seconds) *
                                1e3);
          stats = run.stats;
        }
        return seconds;
      },
      spans);

  report_closed_loop(result, options, times, "scenarios", kScenarios,
                     setup_seconds);
  if (options.trace) {
    result.set("workload.gen_s", state->gen_seconds, "s");
    result.set("runtime.sweep_busy_share", median(busy_share), "ratio");
    result.set("runtime.sweep_overhead_ms", median(overhead_ms), "ms");

    // One shard's worth of scenarios on the single-threaded pricer.
    const std::size_t shard = kScenarios / (4 * config.workers);
    std::vector<cds::ScenarioAggregate> out(shard);
    std::vector<double> shard_seconds;
    for (int i = 0; i < 11; ++i) {
      const std::int64_t t0 = now_ns();
      single.sweep(matrix, 0, shard, out);
      shard_seconds.push_back(seconds_between(t0, now_ns()));
    }
    result.set("cds.sweep_ns_per_scenario",
               median(shard_seconds) * 1e9 / static_cast<double>(shard), "ns");
    result.set("cds.shared_column_rate", stats.shared_column_rate(), "ratio");
    // Computed, not measured: the row prefix a sweep reads, the knots up to
    // the book's last payment date plus the one after it (SweepPricer stops
    // its per-scenario lambda chain there).
    const auto& knots = state->hazard.times();
    const double horizon = std::max_element(state->book.begin(),
                                            state->book.end(),
                                            [](const auto& a, const auto& b) {
                                              return a.maturity_years <
                                                     b.maturity_years;
                                            })->maturity_years;
    const auto read_knots = std::min<std::size_t>(
        knots.size(),
        std::lower_bound(knots.begin(), knots.end(), horizon) -
            knots.begin() + 1);
    result.set("cds.sweep_bytes_per_scenario",
               static_cast<double>(read_knots * sizeof(double)), "B-computed");
    result.set("cds.grid_points_per_option",
               static_cast<double>(stats.grid_points) /
                   static_cast<double>(kBookSize),
               "count");

    const auto all = spans.take();
    const auto layers = analyse_layers(all);
    report_layers(result, layers);
    result.set("trace.share.runtime", layers.share("runtime.sweep"), "ratio");
    write_spans("spans-scenario-sweep.csv", all);
  }
  return result;
}

}  // namespace cdsbench
