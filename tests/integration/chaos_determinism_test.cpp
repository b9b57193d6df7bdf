// Determinism under chaos: with every fault-model feature enabled at once
// (MTBF churn, injected task failures, speculation, blacklisting, duration
// jitter, locality), two runs with the same seeds must produce identical
// results — field for field, workflow for workflow. Event-loop tie-breaking,
// fault RNG streams, and all fault-path container iteration must therefore
// be fully deterministic.
#include <gtest/gtest.h>

#include <memory>
#include <variant>
#include <vector>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

hadoop::RunSummary chaos_run(core::QueueKind kind) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 6;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(3);
  config.seed = 42;
  config.duration_jitter_sigma = 0.3;
  config.task_failure_prob = 0.05;
  config.remote_map_penalty = 1.3;
  config.faults.tracker_mtbf = 400.0 * 1000.0;  // 400 s per tracker
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(120);
  config.faults.max_attempts = 25;  // high enough that nothing is doomed
  config.faults.blacklist_task_failures = 3;
  config.faults.speculative_execution = true;

  core::WohaConfig woha;
  woha.queue = kind;
  hadoop::Engine engine(config,
                        std::make_unique<core::WohaScheduler>(woha));
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.submit_time = i * seconds(30);
    spec.relative_deadline = minutes(40);
    engine.submit(spec);
  }
  engine.run();
  return engine.summarize();
}

void expect_identical(const hadoop::RunSummary& a, const hadoop::RunSummary& b) {
  ASSERT_EQ(a.workflows.size(), b.workflows.size());
  for (std::size_t i = 0; i < a.workflows.size(); ++i) {
    const auto& wa = a.workflows[i];
    const auto& wb = b.workflows[i];
    EXPECT_EQ(wa.finish_time, wb.finish_time) << "workflow " << i;
    EXPECT_EQ(wa.workspan, wb.workspan) << "workflow " << i;
    EXPECT_EQ(wa.tardiness, wb.tardiness) << "workflow " << i;
    EXPECT_EQ(wa.met_deadline, wb.met_deadline) << "workflow " << i;
    EXPECT_EQ(wa.failed, wb.failed) << "workflow " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.deadline_miss_ratio, b.deadline_miss_ratio);
  EXPECT_EQ(a.max_tardiness, b.max_tardiness);
  EXPECT_EQ(a.total_tardiness, b.total_tardiness);
  EXPECT_DOUBLE_EQ(a.map_slot_utilization, b.map_slot_utilization);
  EXPECT_DOUBLE_EQ(a.reduce_slot_utilization, b.reduce_slot_utilization);
  EXPECT_DOUBLE_EQ(a.overall_utilization, b.overall_utilization);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.tasks_failed, b.tasks_failed);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.select_calls, b.select_calls);
  EXPECT_DOUBLE_EQ(a.map_locality_ratio, b.map_locality_ratio);
  EXPECT_EQ(a.tracker_crashes, b.tracker_crashes);
  EXPECT_EQ(a.attempts_killed, b.attempts_killed);
  EXPECT_EQ(a.map_outputs_lost, b.map_outputs_lost);
  EXPECT_EQ(a.workflows_failed, b.workflows_failed);
  EXPECT_EQ(a.blacklistings, b.blacklistings);
  EXPECT_EQ(a.speculative_launched, b.speculative_launched);
  EXPECT_EQ(a.speculative_won, b.speculative_won);
  EXPECT_DOUBLE_EQ(a.speculative_wasted_ms, b.speculative_wasted_ms);
}

class ChaosDeterminism : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(ChaosDeterminism, RepeatedRunsAreIdentical) {
  const auto first = chaos_run(GetParam());
  const auto second = chaos_run(GetParam());
  // The chaos config must actually exercise the fault paths, otherwise this
  // test silently degrades into the plain determinism test.
  EXPECT_GT(first.tracker_crashes, 0u);
  EXPECT_GT(first.attempts_killed, 0u);
  EXPECT_GT(first.tasks_failed, 0u);
  expect_identical(first, second);
}

INSTANTIATE_TEST_SUITE_P(Queues, ChaosDeterminism,
                         ::testing::Values(core::QueueKind::kDsl,
                                           core::QueueKind::kBst,
                                           core::QueueKind::kNaive),
                         [](const auto& info) { return to_string(info.param); });

// rho accounting invariant under full chaos: the scheduled-task credit of
// every workflow equals its count of non-speculative attempt starts. A
// double credit in a speculation race, a missing credit on a retry, or a
// backup leaking into the counter would break the equality. (Rollbacks via
// on_tasks_lost adjust the scheduler-side rho, never tasks_scheduled — the
// credit is per *launch*, and lost work launches again.)
TEST(ChaosRhoInvariant, ScheduledCreditMatchesNonSpeculativeStarts) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 6;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(3);
  config.seed = 42;
  config.duration_jitter_sigma = 0.3;
  config.task_failure_prob = 0.05;
  config.faults.tracker_mtbf = 400.0 * 1000.0;
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(120);
  config.faults.max_attempts = 25;
  config.faults.blacklist_task_failures = 3;
  config.faults.speculative_execution = true;

  hadoop::Engine engine(config,
                        std::make_unique<core::WohaScheduler>(core::WohaConfig{}));
  std::vector<std::uint64_t> nonspec_starts(3, 0);
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* t = std::get_if<obs::TaskStarted>(&e.payload)) {
      if (!t->speculative) ++nonspec_starts[t->workflow];
    }
  });
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.submit_time = i * seconds(30);
    spec.relative_deadline = minutes(40);
    engine.submit(spec);
  }
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GT(summary.speculative_launched, 0u);  // races actually occurred
  ASSERT_GT(summary.tracker_crashes, 0u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(engine.job_tracker().workflow(WorkflowId(i)).tasks_scheduled(),
              nonspec_starts[i])
        << "workflow " << i;
  }
}

}  // namespace
}  // namespace woha
