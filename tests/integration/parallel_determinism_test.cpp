// The parallel experiment runner's determinism contract: a grid run at ANY
// thread count is bit-identical to the serial loop. These tests pin that
// against the same golden digests scale_determinism_test.cpp uses — if a
// parallel run flips a digest the pool leaked state between runs (shared
// RNG, shared registry instrument, shared sink), which is a bug in the
// runner, never a golden to refresh.
//
// Also covered: deterministic registry aggregation (per-run scratch
// registries merged in submission order) and obs-bus thread confinement
// (per-run sinks see exactly their own run's events).
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "metrics_digest.hpp"
#include "metrics/grid.hpp"
#include "metrics/metrics.hpp"
#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/paper_workloads.hpp"

namespace woha {
namespace {

// Goldens shared with ScaleDeterminism (captured on the serial engine).
constexpr std::uint64_t kFig11Paper32Golden = 0x9c0440bbd4ecdad5ull;
constexpr std::uint64_t kFig8Paper80Golden = 0x59e3378f75ea6305ull;

std::uint64_t fig8_digest_at(unsigned jobs) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::paper_80_servers();
  config.horizon = testing::kFig8Paper80Horizon;
  const auto results =
      metrics::run_comparison(config, trace::fig8_trace(),
                              metrics::paper_schedulers(), {}, jobs);
  return testing::digest_comparison(results);
}

TEST(ParallelDeterminism, Fig8GridBitIdenticalAtEveryThreadCount) {
  EXPECT_EQ(fig8_digest_at(1), kFig8Paper80Golden);
  EXPECT_EQ(fig8_digest_at(4), kFig8Paper80Golden);
  EXPECT_EQ(fig8_digest_at(0), kFig8Paper80Golden);  // hardware concurrency
}

TEST(ParallelDeterminism, Fig11GridBitIdenticalAtEveryThreadCount) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  config.horizon = testing::kFig11Horizon;
  const auto workload = trace::fig11_scenario();
  for (const unsigned jobs : {1u, 4u, std::thread::hardware_concurrency()}) {
    const auto results = metrics::run_comparison(
        config, workload, metrics::paper_schedulers(), {}, jobs);
    EXPECT_EQ(testing::digest_comparison(results), kFig11Paper32Golden)
        << "at jobs=" << jobs;
  }
}

// run_grid with more points than workers: queue reuse across runs on one
// worker thread must not leak engine state either.
TEST(ParallelDeterminism, MorePointsThanWorkers) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::paper_80_servers();
  config.horizon = testing::kFig8Paper80Horizon;
  const auto workload = trace::fig8_trace();
  std::vector<metrics::GridPoint> points;
  for (const auto& entry : metrics::paper_schedulers()) {
    points.push_back(metrics::GridPoint{config, &workload, entry});
  }
  metrics::GridOptions options;
  options.jobs = 2;  // 6 points over 2 workers
  const auto results = metrics::run_grid(points, options);
  EXPECT_EQ(testing::digest_comparison(results), kFig8Paper80Golden);
}

// Regression for the throwing-grid-point path: the error must surface as an
// exception from run_grid (lowest index), the pool must reach quiescence
// rather than wedge on a lost occupancy decrement, and the runner must stay
// usable afterwards with unchanged results.
TEST(ParallelDeterminism, ThrowingGridPointSurfacesAndDoesNotWedge) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::paper_80_servers();
  config.horizon = testing::kFig8Paper80Horizon;
  const auto workload = trace::fig8_trace();
  std::vector<metrics::GridPoint> points;
  for (const auto& entry : metrics::paper_schedulers()) {
    points.push_back(metrics::GridPoint{config, &workload, entry});
  }
  points[2].workload = nullptr;  // run_point throws for this index
  metrics::GridOptions options;
  options.jobs = 2;
  EXPECT_THROW((void)metrics::run_grid(points, options), std::invalid_argument);

  // The failure left nothing wedged or dirty: the same grid, repaired, still
  // reproduces the golden digest.
  points[2].workload = &workload;
  const auto results = metrics::run_grid(points, options);
  EXPECT_EQ(testing::digest_comparison(results), kFig8Paper80Golden);
}

obs::MetricsRegistry run_fig11_registry(unsigned jobs) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  obs::MetricsRegistry registry;
  metrics::ObsHooks hooks;
  hooks.registry = &registry;
  (void)metrics::run_comparison(config, trace::fig11_scenario(),
                                metrics::paper_schedulers(), hooks, jobs);
  return registry;
}

// Aggregation happens through per-run scratch registries merged in
// submission order, so the merged counters/gauges must not depend on the
// thread schedule — and must equal the classic shared-registry serial loop.
TEST(ParallelDeterminism, RegistryAggregationIsScheduleIndependent) {
  const auto serial = run_fig11_registry(1);
  const auto parallel = run_fig11_registry(4);

  for (const char* name :
       {"engine.heartbeats", "engine.tasks_started", "engine.tasks_finished",
        "woha.plan_cache_hits", "woha.plan_cache_misses"}) {
    const auto* a = serial.find_counter(name);
    const auto* b = parallel.find_counter(name);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->value(), b->value()) << name;
  }
  // Gauges merge last-writer-wins in submission order: the final free-slot
  // levels must match the serial run's.
  for (const char* name : {"cluster.free_map_slots", "cluster.free_reduce_slots"}) {
    const auto* a = serial.find_gauge(name);
    const auto* b = parallel.find_gauge(name);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_DOUBLE_EQ(a->value(), b->value()) << name;
  }
  // The runner's own instruments exist and agree on the run count.
  const auto* runs = parallel.find_counter("grid.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->value(), metrics::paper_schedulers().size());
}

// Obs-bus thread confinement: the bus is per-engine and sinks attached via
// configure_point are per-run, so each run's sink must see exactly the
// events of its own workload — no cross-run bleed, no torn counts — even
// with four runs in flight at once.
TEST(ParallelDeterminism, ObsSinksAreConfinedToTheirRun) {
  // Four points with *distinct* workloads (1..4 recurrences of fig12), so
  // any cross-run event leak changes a per-point count.
  std::vector<std::vector<wf::WorkflowSpec>> workloads;
  for (int recurrences = 1; recurrences <= 4; ++recurrences) {
    workloads.push_back(trace::fig12_scenario(recurrences, minutes(30)));
  }
  const auto entry = metrics::paper_schedulers()[3];  // WOHA-LPF

  struct PerRun {
    std::uint64_t events = 0;
    std::uint64_t submitted = 0;
    std::vector<std::string> names;
  };

  const auto record = [&](unsigned jobs) {
    std::vector<metrics::GridPoint> points;
    for (const auto& w : workloads) {
      hadoop::EngineConfig config;
      config.audit = true;
      config.cluster = hadoop::ClusterConfig::paper_32_slaves();
      points.push_back(metrics::GridPoint{config, &w, entry});
    }
    std::vector<PerRun> sinks(points.size());
    metrics::GridOptions options;
    options.jobs = jobs;
    options.configure_point = [&sinks](hadoop::Engine& engine, std::size_t i) {
      engine.events().subscribe([&sinks, i](const obs::Event& event) {
        PerRun& sink = sinks[i];
        ++sink.events;
        if (const auto* sub = std::get_if<obs::WorkflowSubmitted>(&event.payload)) {
          ++sink.submitted;
          sink.names.push_back(sub->name);
        }
      });
    };
    (void)metrics::run_grid(points, options);
    return sinks;
  };

  const auto parallel = record(4);
  const auto serial = record(1);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    // Each sink saw its own workload's submissions (events arrive in
    // submit-time order, so compare as a sorted set)...
    EXPECT_EQ(parallel[i].submitted, workloads[i].size()) << "point " << i;
    auto seen = parallel[i].names;
    std::sort(seen.begin(), seen.end());
    std::vector<std::string> expected;
    for (const auto& spec : workloads[i]) expected.push_back(spec.name);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(seen, expected) << "point " << i;
    // ...and exactly the event stream the serial run produces.
    EXPECT_EQ(parallel[i].events, serial[i].events) << "point " << i;
    EXPECT_EQ(parallel[i].names, serial[i].names) << "point " << i;
  }
}

}  // namespace
}  // namespace woha
