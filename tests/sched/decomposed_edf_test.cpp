#include "sched/decomposed_edf_scheduler.hpp"

#include <gtest/gtest.h>

#include <variant>

#include "hadoop/engine.hpp"
#include "metrics/report.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"
#include "workflow/topology.hpp"

namespace woha::sched {
namespace {

TEST(DecomposedEdf, VirtualDeadlinesFollowCriticalPath) {
  // chain of 3 unit jobs (serial length 300ms each), workflow deadline D:
  //   job 2 (sink):   d = D
  //   job 1:          d = D - 300
  //   job 0 (source): d = D - 600
  wf::JobShape shape;
  shape.num_maps = 1;
  shape.num_reduces = 1;
  shape.map_duration = 100;
  shape.reduce_duration = 200;
  auto spec = wf::chain(3, shape);
  spec.relative_deadline = seconds(100);

  hadoop::JobTracker jt;
  DecomposedEdfScheduler scheduler;
  scheduler.attach(&jt);
  const WorkflowId wf_id = jt.add_workflow(spec, 1000);
  scheduler.on_workflow_submitted(wf_id, 1000);

  const SimTime D = 1000 + seconds(100);
  EXPECT_EQ(scheduler.job_deadline({wf_id.value(), 2}), D);
  EXPECT_EQ(scheduler.job_deadline({wf_id.value(), 1}), D - 300);
  EXPECT_EQ(scheduler.job_deadline({wf_id.value(), 0}), D - 600);
}

TEST(DecomposedEdf, NoWorkflowDeadlineMeansInfiniteJobDeadlines) {
  auto spec = wf::chain(2);
  hadoop::JobTracker jt;
  DecomposedEdfScheduler scheduler;
  scheduler.attach(&jt);
  const WorkflowId wf_id = jt.add_workflow(spec, 0);
  scheduler.on_workflow_submitted(wf_id, 0);
  EXPECT_EQ(scheduler.job_deadline({wf_id.value(), 0}), kTimeInfinity);
}

TEST(DecomposedEdf, CompletesDagWorkloads) {
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  hadoop::Engine engine(config, std::make_unique<DecomposedEdfScheduler>());
  std::uint64_t expected = 0;
  for (const auto& spec : trace::fig11_scenario()) {
    expected += spec.total_tasks();
    engine.submit(spec);
  }
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.tasks_executed, expected);
  for (const auto& wf_result : summary.workflows) {
    EXPECT_GE(wf_result.finish_time, 0);
  }
}

TEST(DecomposedEdf, PrefersUrgentUpstreamJobOverRelaxedSink) {
  // Workflow A: long chain with tight deadline -> its source has an early
  // virtual deadline. Workflow B: single job with a late deadline. The
  // scheduler must pick A's source first even though B's *workflow*
  // deadline is earlier than A's source-job "slice" would suggest under
  // plain workflow-EDF ordering.
  wf::JobShape shape;
  shape.num_maps = 2;
  shape.num_reduces = 1;
  shape.map_duration = seconds(60);
  shape.reduce_duration = seconds(60);
  auto chain_wf = wf::chain(4, shape);
  chain_wf.name = "deep";
  chain_wf.relative_deadline = minutes(20);

  auto single = wf::chain(1, shape);
  single.name = "shallow";
  single.relative_deadline = minutes(18);

  hadoop::EngineConfig config;
  config.cluster.num_trackers = 1;  // 2 map + 1 reduce slot: strict ordering
  hadoop::Engine engine(config, std::make_unique<DecomposedEdfScheduler>());
  SimTime deep_first = -1, shallow_first = -1;
  engine.events().subscribe([&](const obs::Event& e) {
    const auto* started = std::get_if<obs::TaskStarted>(&e.payload);
    if (started == nullptr) return;
    if (started->workflow == 0 && deep_first < 0) deep_first = e.time;
    if (started->workflow == 1 && shallow_first < 0) shallow_first = e.time;
  });
  engine.submit(chain_wf);
  engine.submit(single);
  engine.run();
  // deep's source virtual deadline = 20min - 3*2min = 14min < shallow's
  // 18min, so the deep chain starts first.
  EXPECT_LT(deep_first, shallow_first);
}

TEST(DecomposedEdf, FreesVirtualDeadlinesOnceWorkflowsCompleteOrFail) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 80;
  config.task_failure_prob = 0.02;
  config.faults.max_attempts = 2;
  hadoop::Engine engine(config, std::make_unique<DecomposedEdfScheduler>());
  const auto& scheduler = dynamic_cast<const DecomposedEdfScheduler&>(engine.scheduler());
  std::uint64_t starts = 0, with_deadline = 0;
  engine.events().subscribe([&](const obs::Event& e) {
    const auto* started = std::get_if<obs::TaskStarted>(&e.payload);
    if (started == nullptr) return;
    ++starts;
    with_deadline +=
        scheduler.job_deadline({started->workflow, started->job}) != kTimeInfinity ? 1 : 0;
  });
  for (const auto& spec : trace::scale_workload(80, 7)) engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.workflows_failed, 0u);
  EXPECT_LT(summary.workflows_failed, summary.workflows.size());
  // Every task started while its job had a virtual deadline...
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(with_deadline, starts);
  // ...and no workflow keeps one once it has completed or failed.
  for (const auto& rt : engine.job_tracker().workflows()) {
    ASSERT_TRUE(rt->finished() || rt->failed());
    for (std::uint32_t j = 0; j < rt->job_count(); ++j) {
      EXPECT_EQ(scheduler.job_deadline({rt->id().value(), j}), kTimeInfinity);
    }
  }
}

TEST(DecomposedEdf, ListedInExtendedRoster) {
  const auto entries = metrics::extended_schedulers();
  ASSERT_EQ(entries.size(), 7u);
  EXPECT_EQ(entries.back().label, "EDF-JOB");
  auto scheduler = entries.back().make();
  EXPECT_EQ(scheduler->name(), "EDF-JOB");
}

}  // namespace
}  // namespace woha::sched
