// Failure injection: task attempts die mid-execution and are retried, as in
// Hadoop. The workload must still complete, with conserved task accounting.
#include <gtest/gtest.h>

#include <limits>
#include <variant>
#include <vector>

#include "hadoop/engine.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workflow/topology.hpp"

namespace woha::hadoop {
namespace {

EngineConfig failing_cluster(double failure_prob, std::uint64_t seed = 3) {
  EngineConfig config;
  config.cluster.num_trackers = 6;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.task_failure_prob = failure_prob;
  config.seed = seed;
  return config;
}

TEST(FailureInjection, WorkloadStillCompletes) {
  Engine engine(failing_cluster(0.3), std::make_unique<sched::FifoScheduler>());
  const auto spec = wf::paper_fig7_topology();
  engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_EQ(summary.workflows.size(), 1u);
  EXPECT_GE(summary.workflows[0].finish_time, 0);
  // Attempts = successes + failures; successes == total tasks.
  EXPECT_GT(summary.tasks_failed, 0u);
  EXPECT_EQ(summary.tasks_executed - summary.tasks_failed, spec.total_tasks());
}

TEST(FailureInjection, ZeroProbabilityMeansNoFailures) {
  Engine engine(failing_cluster(0.0), std::make_unique<sched::FifoScheduler>());
  engine.submit(wf::diamond(3));
  engine.run();
  EXPECT_EQ(engine.summarize().tasks_failed, 0u);
}

TEST(FailureInjection, FailuresSlowTheWorkflowDown) {
  SimTime clean_finish, faulty_finish;
  {
    Engine engine(failing_cluster(0.0), std::make_unique<sched::FifoScheduler>());
    engine.submit(wf::paper_fig7_topology());
    engine.run();
    clean_finish = engine.summarize().workflows[0].finish_time;
  }
  {
    Engine engine(failing_cluster(0.4), std::make_unique<sched::FifoScheduler>());
    engine.submit(wf::paper_fig7_topology());
    engine.run();
    faulty_finish = engine.summarize().workflows[0].finish_time;
  }
  EXPECT_GT(faulty_finish, clean_finish);
}

TEST(FailureInjection, DeterministicPerSeed) {
  SimTime finish[2];
  for (int i = 0; i < 2; ++i) {
    Engine engine(failing_cluster(0.25, 11), std::make_unique<sched::FifoScheduler>());
    engine.submit(wf::paper_fig7_topology());
    engine.run();
    finish[i] = engine.summarize().workflows[0].finish_time;
  }
  EXPECT_EQ(finish[0], finish[1]);
}

TEST(FailureInjection, ObserverSeesFailedAttempts) {
  Engine engine(failing_cluster(0.3), std::make_unique<sched::FifoScheduler>());
  std::uint64_t started = 0, succeeded = 0, failed = 0;
  engine.events().subscribe([&](const obs::Event& e) {
    if (std::holds_alternative<obs::TaskStarted>(e.payload)) {
      ++started;
    } else if (const auto* f = std::get_if<obs::TaskEnded>(&e.payload)) {
      ++(f->failed ? failed : succeeded);
    }
  });
  const auto spec = wf::diamond(4);
  engine.submit(spec);
  engine.run();
  EXPECT_EQ(started, succeeded + failed);
  EXPECT_EQ(succeeded, spec.total_tasks());
  EXPECT_EQ(failed, engine.summarize().tasks_failed);
}

TEST(FailureInjection, RejectsInvalidProbability) {
  auto config = failing_cluster(0.0);
  // p == 1.0 is a valid (if extreme) setting: every attempt fails. Only
  // values outside [0, 1] are rejected.
  config.task_failure_prob = 1.0;
  EXPECT_NO_THROW(Engine(config, std::make_unique<sched::FifoScheduler>()));
  config.task_failure_prob = 1.0001;
  EXPECT_THROW(Engine(config, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
  config.task_failure_prob = -0.1;
  EXPECT_THROW(Engine(config, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
}

// Regression: a failed attempt must release its slot at the failure point,
// not at the attempt's originally scheduled completion. With one map slot,
// execution serializes, so every next start must follow the previous end
// within one heartbeat — if failures held their slot to full duration, the
// gap after a failed end would exceed the heartbeat period.
TEST(FailureInjection, FailedAttemptReleasesSlotAtFailurePoint) {
  EngineConfig config;
  config.cluster.num_trackers = 1;
  config.cluster.map_slots_per_tracker = 1;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.task_failure_prob = 0.5;
  config.seed = 7;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());

  // (time, started, failed) of every map start and end.
  struct MapEvent {
    SimTime time;
    bool started;
    bool failed;
  };
  std::vector<MapEvent> map_events;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* s = std::get_if<obs::TaskStarted>(&e.payload)) {
      if (s->slot == SlotType::kMap) map_events.push_back({e.time, true, false});
    } else if (const auto* f = std::get_if<obs::TaskEnded>(&e.payload)) {
      if (f->slot == SlotType::kMap) map_events.push_back({e.time, false, f->failed});
    }
  });
  auto spec = wf::diamond(6);
  engine.submit(spec);
  engine.run();

  // After a FAILED end the job still has that map pending, so the freed
  // slot must be re-filled by the very next heartbeat. (Successful ends can
  // precede legitimate idle gaps — activation latency between jobs — so
  // only failures are checked.)
  std::uint64_t failures = 0;
  SimTime last_failed_end = -1;
  for (const auto& e : map_events) {
    if (e.started) {
      if (last_failed_end >= 0) {
        EXPECT_LE(e.time - last_failed_end, config.cluster.heartbeat_period)
            << "slot sat idle past one heartbeat after a failed attempt";
        last_failed_end = -1;
      }
    } else if (e.failed) {
      last_failed_end = e.time;
      ++failures;
    }
  }
  ASSERT_GT(failures, 0u) << "test needs at least one injected failure";
  EXPECT_GE(engine.summarize().workflows[0].finish_time, 0);
}

TEST(EngineValidation, RejectsEveryBadConfigField) {
  const auto reject = [](auto mutate) {
    auto config = failing_cluster(0.0);
    mutate(config);
    EXPECT_THROW(Engine(config, std::make_unique<sched::FifoScheduler>()),
                 std::invalid_argument);
  };
  reject([](EngineConfig& c) { c.activation_latency = -1; });
  reject([](EngineConfig& c) { c.duration_scale = 0.0; });
  reject([](EngineConfig& c) { c.duration_scale = -2.0; });
  reject([](EngineConfig& c) { c.duration_jitter_sigma = -0.1; });
  reject([](EngineConfig& c) { c.task_failure_prob = -0.01; });
  reject([](EngineConfig& c) { c.task_failure_prob = 1.01; });
  reject([](EngineConfig& c) { c.remote_map_penalty = 0.99; });
  reject([](EngineConfig& c) { c.hdfs_replication = 0; });
  // FaultConfig is validated through the same constructor.
  reject([](EngineConfig& c) { c.faults.tracker_mtbf = -1.0; });
  reject([](EngineConfig& c) { c.faults.expiry_interval = 0; });
  reject([](EngineConfig& c) { c.faults.speculative_slowness = 1.0; });
  // NaN fails every comparison, so a check written as "reject if bad" lets
  // it through; infinity is out of range for every one of these settings.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    reject([bad](EngineConfig& c) { c.duration_scale = bad; });
    reject([bad](EngineConfig& c) { c.duration_jitter_sigma = bad; });
    reject([bad](EngineConfig& c) { c.task_failure_prob = bad; });
    reject([bad](EngineConfig& c) { c.remote_map_penalty = bad; });
    reject([bad](EngineConfig& c) { c.faults.tracker_mtbf = bad; });
    reject([bad](EngineConfig& c) { c.faults.speculative_slowness = bad; });
    reject([bad](EngineConfig& c) { c.admission.feasibility_margin = bad; });
  }
  reject([](EngineConfig& c) {
    c.faults.events.push_back({99, seconds(10), kTimeInfinity});  // no tracker 99
  });
  EXPECT_NO_THROW(
      Engine(failing_cluster(0.0), std::make_unique<sched::FifoScheduler>()));
}

TEST(Locality, RemotePenaltyStretchesMaps) {
  SimTime local_finish, penalized_finish;
  {
    Engine engine(failing_cluster(0.0), std::make_unique<sched::FifoScheduler>());
    engine.submit(wf::paper_fig7_topology());
    engine.run();
    local_finish = engine.summarize().workflows[0].finish_time;
    EXPECT_DOUBLE_EQ(engine.summarize().map_locality_ratio, 1.0);
  }
  {
    auto config = failing_cluster(0.0);
    config.remote_map_penalty = 2.0;
    config.hdfs_replication = 3;
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    engine.submit(wf::paper_fig7_topology());
    engine.run();
    const auto summary = engine.summarize();
    penalized_finish = summary.workflows[0].finish_time;
    // With 3 replicas over 6 trackers roughly 40% of maps are local.
    EXPECT_GT(summary.map_locality_ratio, 0.2);
    EXPECT_LT(summary.map_locality_ratio, 0.7);
  }
  EXPECT_GT(penalized_finish, local_finish);
}

TEST(Locality, FullReplicationIsAlwaysLocal) {
  auto config = failing_cluster(0.0);
  config.remote_map_penalty = 3.0;
  config.hdfs_replication = 1000;  // replica on virtually every tracker
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(wf::diamond(2));
  engine.run();
  EXPECT_GT(engine.summarize().map_locality_ratio, 0.95);
}

TEST(Locality, RejectsInvalidParameters) {
  auto config = failing_cluster(0.0);
  config.remote_map_penalty = 0.5;
  EXPECT_THROW(Engine(config, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
  config.remote_map_penalty = 1.0;
  config.hdfs_replication = 0;
  EXPECT_THROW(Engine(config, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
}

TEST(MasterOverhead, SelectCallsAreCountedAndCheap) {
  Engine engine(failing_cluster(0.0), std::make_unique<sched::FifoScheduler>());
  engine.submit(wf::paper_fig7_topology());
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.select_calls, summary.tasks_executed);  // includes refusals
}

}  // namespace
}  // namespace woha::hadoop
