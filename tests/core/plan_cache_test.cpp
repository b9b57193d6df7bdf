#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/paper_workloads.hpp"
#include "workflow/topology.hpp"

namespace woha::core {
namespace {

wf::WorkflowSpec sample_spec() {
  auto spec = wf::paper_fig7_topology();
  spec.relative_deadline = minutes(80);
  return spec;
}

std::uint64_t fp(const wf::WorkflowSpec& spec) {
  return plan_fingerprint(spec, 96, JobPriorityPolicy::kLpf,
                          CapPolicy::kMinFeasible, 0, 1.0);
}

TEST(PlanFingerprint, EqualInputsEqualFingerprints) {
  EXPECT_EQ(fp(sample_spec()), fp(sample_spec()));
}

TEST(PlanFingerprint, IgnoresWorkflowNameAndSubmitTime) {
  // Recurrent instances ("daily-report-r7") differ only in name and submit
  // time; they must hit the entry the first instance planted.
  auto a = sample_spec();
  auto b = sample_spec();
  b.name = "daily-report-r7";
  b.submit_time = minutes(90);
  EXPECT_EQ(fp(a), fp(b));
}

TEST(PlanFingerprint, SensitiveToEveryPlanningInput) {
  const auto base = fp(sample_spec());

  auto durations = sample_spec();
  durations.jobs[0].map_duration += 1;
  EXPECT_NE(fp(durations), base);

  auto counts = sample_spec();
  counts.jobs[0].num_maps += 1;
  EXPECT_NE(fp(counts), base);

  auto prereqs = sample_spec();
  prereqs.jobs.back().prerequisites.pop_back();
  EXPECT_NE(fp(prereqs), base);

  auto deadline = sample_spec();
  deadline.relative_deadline += 1;
  EXPECT_NE(fp(deadline), base);

  // History estimators key durations by job name, so names are inputs.
  auto job_name = sample_spec();
  job_name.jobs[0].name += "-renamed";
  EXPECT_NE(fp(job_name), base);

  const auto spec = sample_spec();
  EXPECT_NE(plan_fingerprint(spec, 97, JobPriorityPolicy::kLpf,
                             CapPolicy::kMinFeasible, 0, 1.0),
            base);
  EXPECT_NE(plan_fingerprint(spec, 96, JobPriorityPolicy::kHlf,
                             CapPolicy::kMinFeasible, 0, 1.0),
            base);
  EXPECT_NE(plan_fingerprint(spec, 96, JobPriorityPolicy::kLpf,
                             CapPolicy::kFixed, 0, 1.0),
            base);
  EXPECT_NE(plan_fingerprint(spec, 96, JobPriorityPolicy::kLpf,
                             CapPolicy::kFixed, 32, 1.0),
            base);
  EXPECT_NE(plan_fingerprint(spec, 96, JobPriorityPolicy::kLpf,
                             CapPolicy::kMinFeasible, 0, 0.9),
            base);
}

TEST(PlanCache, MissComputesHitShares) {
  PlanCache cache;
  int computes = 0;
  const auto compute = [&computes] {
    ++computes;
    SchedulingPlan plan;
    plan.resource_cap = 7;
    return plan;
  };

  const auto first = cache.get_or_compute(42, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->resource_cap, 7u);

  const auto second = cache.get_or_compute(42, compute);
  EXPECT_EQ(computes, 1) << "a hit must not recompute";
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second.get(), first.get()) << "instances share one plan";

  (void)cache.get_or_compute(43, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.size(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)cache.get_or_compute(42, compute);
  EXPECT_EQ(computes, 3);
}

TEST(PlanCache, PrewarmedInsertClaimsAsMissThenHits) {
  // The parallel prewarm plants plans before any submission. The tallies
  // must stay indistinguishable from a serial run: the first claim of a
  // prewarmed entry is the miss it replaced, later lookups are hits.
  PlanCache cache;
  int computes = 0;
  const auto compute = [&computes] {
    ++computes;
    return SchedulingPlan{};
  };
  auto plan = std::make_shared<const SchedulingPlan>();
  cache.insert(7, plan);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);  // nothing claimed yet

  const auto first = cache.get_or_compute(7, compute);
  EXPECT_EQ(computes, 0) << "the prewarmed plan must be reused, not recomputed";
  EXPECT_EQ(first.get(), plan.get());
  EXPECT_EQ(cache.misses(), 1u) << "a claimed prewarm counts as the serial miss";
  EXPECT_EQ(cache.hits(), 0u);

  (void)cache.get_or_compute(7, compute);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Null plans and duplicate keys are ignored; clear() also drops the
  // prewarm markers.
  cache.insert(7, std::make_shared<const SchedulingPlan>());
  EXPECT_EQ(cache.get_or_compute(7, compute).get(), plan.get());
  cache.insert(9, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  (void)cache.get_or_compute(7, compute);
  EXPECT_EQ(computes, 1) << "clear() must forget prewarmed entries too";
}

// WOHA adds its plan cache's tallies to the registry once, when run()
// returns: mid-run the counters still hold what earlier runs added (the
// first run's snapshot holds only histograms), and afterwards they equal
// plan_cache()'s hits and misses summed over both engines on the registry.
TEST(PlanCache, RegistryCountersMatchTheCacheWhenRunReturns) {
  obs::MetricsRegistry registry;
  const auto counter = [&registry](const char* name) {
    const obs::Counter* c = registry.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int run = 0; run < 2; ++run) {
    hadoop::EngineConfig config;
    config.cluster = hadoop::ClusterConfig::paper_32_slaves();
    hadoop::Engine engine(config, std::make_unique<WohaScheduler>());
    engine.set_metrics_registry(&registry);
    std::string snapshot;
    std::uint64_t mid_hits = 0;
    std::uint64_t mid_misses = 0;
    engine.events().subscribe([&](const obs::Event& e) {
      if (!snapshot.empty() || !std::holds_alternative<obs::WorkflowCompleted>(e.payload)) {
        return;
      }
      snapshot = registry.to_json();
      mid_hits = counter("woha.plan_cache_hits");
      mid_misses = counter("woha.plan_cache_misses");
    });
    for (const auto& spec : trace::fig12_scenario(3, minutes(30))) engine.submit(spec);
    engine.run();

    ASSERT_FALSE(snapshot.empty());
    if (run == 0) {
      EXPECT_EQ(snapshot.rfind("{\"counters\":{},\"gauges\":{},", 0), 0u) << snapshot;
    }
    EXPECT_EQ(mid_hits, hits);
    EXPECT_EQ(mid_misses, misses);
    const auto& sched = dynamic_cast<const WohaScheduler&>(engine.scheduler());
    hits += sched.plan_cache().hits();
    misses += sched.plan_cache().misses();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(counter("woha.plan_cache_hits"), hits);
  EXPECT_EQ(counter("woha.plan_cache_misses"), misses);
}

hadoop::RunSummary run_fig12(bool cache_enabled, std::uint64_t* hits) {
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  WohaConfig wc;
  wc.plan_cache = cache_enabled;
  hadoop::Engine engine(config, std::make_unique<WohaScheduler>(wc));
  for (const auto& spec : trace::fig12_scenario(3, minutes(30))) {
    engine.submit(spec);
  }
  engine.run();
  if (hits != nullptr) {
    const auto& sched = dynamic_cast<const WohaScheduler&>(engine.scheduler());
    *hits = sched.plan_cache().hits();
  }
  return engine.summarize();
}

// The determinism contract: a cache hit is bit-identical to recomputation,
// so the Fig. 12 recurrence scenario (where instances 2..N hit) must
// produce exactly the same run with the cache on and off.
TEST(PlanCache, RecurrentRunIsBitIdenticalToUncached) {
  std::uint64_t hits = 0;
  const auto cached = run_fig12(true, &hits);
  const auto uncached = run_fig12(false, nullptr);
  EXPECT_GT(hits, 0u) << "recurrent instances must actually hit the cache";

  EXPECT_EQ(cached.makespan, uncached.makespan);
  EXPECT_EQ(cached.total_tardiness, uncached.total_tardiness);
  EXPECT_EQ(cached.tasks_executed, uncached.tasks_executed);
  EXPECT_EQ(cached.events_fired, uncached.events_fired);
  EXPECT_EQ(cached.select_calls, uncached.select_calls);
  ASSERT_EQ(cached.workflows.size(), uncached.workflows.size());
  for (std::size_t i = 0; i < cached.workflows.size(); ++i) {
    EXPECT_EQ(cached.workflows[i].finish_time, uncached.workflows[i].finish_time);
    EXPECT_EQ(cached.workflows[i].workspan, uncached.workflows[i].workspan);
    EXPECT_EQ(cached.workflows[i].met_deadline, uncached.workflows[i].met_deadline);
  }
}

}  // namespace
}  // namespace woha::core
