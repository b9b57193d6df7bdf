// The plan prewarm is a wall-clock optimisation only, and the decision
// fast paths (the engine answering offers nobody can use, WOHA serving the
// head of its per-slot-type ordering) run the same code whoever watches:
// every golden this repo pins must come out bit-identical with the auditor
// on (the bus active, every decision published) and off, serially and under
// --jobs N, with plan prewarm serial and parallel. A failure here means an
// optimisation changed a scheduling decision — fix the optimisation, never
// the golden.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "metrics/grid.hpp"
#include "metrics/metrics.hpp"
#include "obs/metrics_registry.hpp"
#include "overload_scenario.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"

namespace woha {
namespace {

std::uint64_t overload_digest(bool audit, unsigned jobs) {
  const auto workload = testing::overload_workload();
  auto grid = testing::overload_grid(workload);
  for (auto& point : grid) point.config.audit = audit;
  metrics::GridOptions options;
  options.jobs = jobs;
  return testing::digest_overload(metrics::run_grid(grid, options));
}

std::uint64_t fig11_digest(bool audit, unsigned plan_jobs) {
  hadoop::EngineConfig config;
  config.audit = audit;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  config.horizon = testing::kFig11Horizon;
  const auto results = metrics::run_comparison(
      config, trace::fig11_scenario(), metrics::paper_schedulers(plan_jobs));
  return testing::digest_comparison(results);
}

TEST(BatchDeterminism, OverloadGoldenAuditOn) {
  EXPECT_EQ(overload_digest(/*audit=*/true, /*jobs=*/1), testing::kOverloadChaosGolden);
}

TEST(BatchDeterminism, OverloadGoldenAuditOff) {
  EXPECT_EQ(overload_digest(/*audit=*/false, /*jobs=*/1), testing::kOverloadChaosGolden);
}

TEST(BatchDeterminism, OverloadGoldenUnderParallelGrid) {
  EXPECT_EQ(overload_digest(/*audit=*/false, /*jobs=*/2), testing::kOverloadChaosGolden);
}

TEST(BatchDeterminism, Fig11GoldenAuditOnAndOff) {
  EXPECT_EQ(fig11_digest(/*audit=*/true, /*plan_jobs=*/1), 0x9c0440bbd4ecdad5ull)
      << "audit=on";
  EXPECT_EQ(fig11_digest(/*audit=*/false, /*plan_jobs=*/1), 0x9c0440bbd4ecdad5ull)
      << "audit=off";
}

TEST(BatchDeterminism, Fig11GoldenWithParallelPlanPrewarm) {
  // plan_jobs fans plan generation across a thread pool before the run;
  // installation is submission-ordered, so the digest cannot move.
  EXPECT_EQ(fig11_digest(/*audit=*/true, /*plan_jobs=*/4), 0x9c0440bbd4ecdad5ull);
  EXPECT_EQ(fig11_digest(/*audit=*/false, /*plan_jobs=*/0), 0x9c0440bbd4ecdad5ull);
}

TEST(BatchDeterminism, ScaleWorkload160GoldenWithPrewarm) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 160;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.horizon = testing::kScale160Horizon;
  const auto results = metrics::run_comparison(
      config, trace::scale_workload(160), metrics::paper_schedulers(4));
  EXPECT_EQ(testing::digest_comparison(results), 0x9406f11ab911f50cull);
}

TEST(BatchDeterminism, PrewarmKeepsPlanCacheTalliesSerial) {
  // Beyond the digest: the cache must report the same hit/miss split a
  // serial run sees — a claimed prewarm counts as the miss it replaced.
  const auto workload = trace::fig11_scenario();
  std::uint64_t serial_hits = 0, serial_misses = 0;
  std::uint64_t warm_hits = 0, warm_misses = 0;
  SimTime serial_makespan = 0, warm_makespan = 0;
  for (const unsigned plan_jobs : {1u, 4u}) {
    core::WohaConfig wc;
    wc.plan_jobs = plan_jobs;
    auto scheduler = std::make_unique<core::WohaScheduler>(wc);
    const core::WohaScheduler* raw = scheduler.get();
    hadoop::EngineConfig config;
    config.cluster = hadoop::ClusterConfig::paper_32_slaves();
    hadoop::Engine engine(config, std::move(scheduler));
    for (const auto& spec : workload) engine.submit(spec);
    engine.run();
    if (plan_jobs == 1) {
      serial_hits = raw->plan_cache().hits();
      serial_misses = raw->plan_cache().misses();
      serial_makespan = engine.summarize().makespan;
    } else {
      warm_hits = raw->plan_cache().hits();
      warm_misses = raw->plan_cache().misses();
      warm_makespan = engine.summarize().makespan;
    }
  }
  EXPECT_EQ(warm_hits, serial_hits);
  EXPECT_EQ(warm_misses, serial_misses);
  EXPECT_GT(warm_misses, 0u);  // the prewarmed plans were actually claimed
  EXPECT_EQ(warm_makespan, serial_makespan);
}

TEST(BatchDeterminism, PlanGenerationHistogramSamplesEverySubmissionOnce) {
  // woha.plan_generation_ns is a per-plan latency: one sample per
  // submission, whether the plan was computed at submission or claimed from
  // the prewarm. A sample for the whole prewarm batch would swamp it.
  const auto workload = trace::fig11_scenario();
  for (const unsigned plan_jobs : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "plan_jobs " << plan_jobs);
    core::WohaConfig wc;
    wc.plan_jobs = plan_jobs;
    hadoop::EngineConfig config;
    config.cluster = hadoop::ClusterConfig::paper_32_slaves();
    obs::MetricsRegistry registry;
    hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>(wc));
    engine.set_metrics_registry(&registry);
    for (const auto& spec : workload) engine.submit(spec);
    engine.run();
    const obs::Histogram* plans = registry.find_histogram("woha.plan_generation_ns");
    ASSERT_NE(plans, nullptr);
    EXPECT_EQ(plans->count(), workload.size());
  }
}

}  // namespace
}  // namespace woha
