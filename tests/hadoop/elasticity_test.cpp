// Elastic membership (decommission / preemption waves / joins / autoscaler):
// config validation, drain semantics, the crash-vs-drain race, and the
// autoscaler hooks. The invariant auditor rides along wherever membership
// changes, so drain-no-assign / tracker-record / retirement ordering
// violations fail loudly here rather than as digest drift.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <variant>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "hadoop/engine.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workflow/topology.hpp"

namespace woha::hadoop {
namespace {

EngineConfig small_cluster(std::uint32_t trackers = 4) {
  EngineConfig config;
  config.cluster.num_trackers = trackers;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.activation_latency = seconds(1);
  return config;
}

wf::WorkflowSpec busy_workflow(Duration task_len, std::uint32_t maps = 12) {
  wf::WorkflowSpec spec;
  spec.name = "busy";
  wf::JobSpec job;
  job.name = "only";
  job.num_maps = maps;
  job.num_reduces = 4;
  job.map_duration = task_len;
  job.reduce_duration = task_len;
  spec.jobs.push_back(job);
  return spec;
}

TEST(ElasticityConfigTest, Validation) {
  ElasticityConfig config;
  EXPECT_NO_THROW(config.validate(4));

  config.decommissions.push_back(TrackerDecommissionEvent{7, 0, minutes(2)});
  EXPECT_THROW(config.validate(4), std::invalid_argument);  // index out of range
  config.decommissions[0].tracker = 3;
  config.decommissions[0].drain_lease = 0;
  EXPECT_THROW(config.validate(4), std::invalid_argument);
  config.decommissions[0].drain_lease = minutes(2);
  EXPECT_NO_THROW(config.validate(4));

  config.preemption_waves.push_back(PreemptionWave{0, 0, seconds(60)});
  EXPECT_THROW(config.validate(4), std::invalid_argument);  // count 0
  config.preemption_waves[0].count = 1;
  EXPECT_NO_THROW(config.validate(4));

  config.joins.push_back(TrackerJoinEvent{0, 0});
  EXPECT_THROW(config.validate(4), std::invalid_argument);  // count 0
  config.joins[0].count = 2;
  EXPECT_NO_THROW(config.validate(4));
}

// Regression for the documented FaultConfig rule: a zero-length outage
// (restart_time == crash_time) is a schedule bug, not a no-op — the master
// could never observe it.
TEST(ElasticityConfigTest, ZeroLengthOutageRejected) {
  FaultConfig faults;
  faults.events.push_back(TrackerFaultEvent{0, seconds(10), seconds(10)});
  EXPECT_THROW(faults.validate(4), std::invalid_argument);
}

TEST(Elasticity, GracefulDrainFinishesRunningWork) {
  EngineConfig config = small_cluster();
  // Drain starts once work is running; the lease comfortably covers the
  // 10 s tasks, so nothing migrates.
  config.elasticity.decommissions.push_back(
      TrackerDecommissionEvent{3, seconds(5), minutes(5)});
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  std::vector<SimTime> draining_at, decommissioned_at;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* d = std::get_if<obs::TrackerDraining>(&e.payload)) {
      if (d->tracker == 3) draining_at.push_back(e.time);
    } else if (const auto* r = std::get_if<obs::TrackerDecommissioned>(&e.payload)) {
      if (r->tracker == 3) decommissioned_at.push_back(e.time);
    }
  });
  engine.submit(busy_workflow(seconds(10)));
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.tracker_decommissions, 1u);
  EXPECT_EQ(summary.drain_migrated, 0u);
  EXPECT_FALSE(summary.workflows[0].failed);
  ASSERT_EQ(draining_at.size(), 1u);
  ASSERT_EQ(decommissioned_at.size(), 1u);
  EXPECT_EQ(draining_at[0], seconds(5));
  // Retirement happens when the last running attempt ends, well before the
  // lease: the drain completed early.
  EXPECT_GT(decommissioned_at[0], draining_at[0]);
  EXPECT_LT(decommissioned_at[0], seconds(5) + minutes(5));
}

TEST(Elasticity, DrainLeaseExpiryMigratesStragglers) {
  EngineConfig config = small_cluster();
  // Tasks far outlive the lease: whatever runs on tracker 3 at expiry is
  // killed and re-queued.
  config.elasticity.decommissions.push_back(
      TrackerDecommissionEvent{3, seconds(5), seconds(10)});
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  engine.submit(busy_workflow(minutes(2)));
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.tracker_decommissions, 1u);
  EXPECT_GT(summary.drain_migrated, 0u);
  EXPECT_FALSE(summary.workflows[0].failed);  // migrated work re-ran elsewhere
  // Drain kills are KILLED, not FAILED: no attempt budget is charged.
  EXPECT_EQ(summary.tasks_failed, 0u);
}

TEST(Elasticity, IdleTrackerRetiresAtDrainStart) {
  EngineConfig config = small_cluster();
  config.elasticity.decommissions.push_back(
      TrackerDecommissionEvent{3, 0, minutes(2)});
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  std::vector<SimTime> decommissioned_at;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* r = std::get_if<obs::TrackerDecommissioned>(&e.payload)) {
      decommissioned_at.push_back(e.time);
      EXPECT_EQ(r->migrated, 0u);
    }
  });
  auto spec = busy_workflow(seconds(5));
  spec.submit_time = seconds(30);  // nothing is running at drain start
  engine.submit(spec);
  engine.run();
  ASSERT_EQ(decommissioned_at.size(), 1u);
  EXPECT_EQ(decommissioned_at[0], 0);
  EXPECT_EQ(engine.summarize().tracker_decommissions, 1u);
}

TEST(Elasticity, PreemptionWaveTerminatesAtWarning) {
  EngineConfig config = small_cluster();
  config.elasticity.preemption_waves.push_back(
      PreemptionWave{seconds(10), 2, seconds(15)});
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  std::vector<SimTime> warnings, terminations;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* w = std::get_if<obs::PreemptionWarning>(&e.payload)) {
      warnings.push_back(e.time);
      EXPECT_EQ(w->termination_time, seconds(10) + seconds(15));
    } else if (std::get_if<obs::TrackerDecommissioned>(&e.payload)) {
      terminations.push_back(e.time);
    }
  });
  engine.submit(busy_workflow(minutes(2)));
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.tracker_preemptions, 2u);
  EXPECT_EQ(summary.tracker_decommissions, 0u);  // preemptions counted apart
  EXPECT_GT(summary.drain_migrated, 0u);  // 2 min tasks never fit the warning
  EXPECT_FALSE(summary.workflows[0].failed);
  ASSERT_EQ(warnings.size(), 2u);
  ASSERT_EQ(terminations.size(), 2u);
  EXPECT_EQ(warnings[0], seconds(10));
  // Unlike a drain, preemption never retires early — termination lands at
  // exactly warning expiry even though the node still had running work.
  EXPECT_EQ(terminations[0], seconds(25));
  EXPECT_EQ(terminations[1], seconds(25));
}

TEST(Elasticity, JoinedTrackersReceiveWork) {
  EngineConfig config = small_cluster(2);
  config.elasticity.joins.push_back(TrackerJoinEvent{seconds(10), 2});
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  bool joined_tracker_ran_work = false;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* t = std::get_if<obs::TaskStarted>(&e.payload)) {
      joined_tracker_ran_work |= t->tracker >= 2;
    }
  });
  engine.submit(busy_workflow(seconds(30), /*maps=*/24));
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.trackers_joined, 2u);
  EXPECT_TRUE(joined_tracker_ran_work);
  EXPECT_FALSE(summary.workflows[0].failed);
}

// The race the drain lease was designed around: the node crashes at the
// exact instant the lease expires. Exactly one retirement path may win —
// never both (double release / double retire), never neither (leaked
// attempts) — and the outcome must be deterministic.
TEST(Elasticity, CrashAtExactDrainLeaseExpiryIsSingleDisposition) {
  auto run = [] {
    EngineConfig config = small_cluster();
    config.elasticity.decommissions.push_back(
        TrackerDecommissionEvent{3, seconds(5), seconds(30)});
    config.faults.events.push_back(
        TrackerFaultEvent{3, seconds(35), kTimeInfinity});  // == lease expiry
    config.faults.expiry_interval = seconds(10);
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    audit::InvariantAuditor auditor(engine);
    engine.submit(busy_workflow(minutes(2)));
    engine.run();
    auditor.full_sweep();
    return engine.summarize();
  };
  const auto a = run();
  EXPECT_EQ(a.tracker_crashes + a.tracker_decommissions, 1u)
      << "crash and drain-expiry both fired (or neither did) at the tie";
  EXPECT_FALSE(a.workflows[0].failed);
  const auto b = run();
  EXPECT_EQ(a.tracker_crashes, b.tracker_crashes);
  EXPECT_EQ(a.tracker_decommissions, b.tracker_decommissions);
  EXPECT_EQ(a.drain_migrated, b.drain_migrated);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_fired, b.events_fired);
}

// A crash strictly inside the lease wins the race, and the reboot forgets
// the drain entirely: the node re-registers as a fresh tracker and serves
// work again (the stale lease-expiry event must be ignored).
TEST(Elasticity, CrashDuringDrainForgetsTheDrain) {
  EngineConfig config = small_cluster();
  config.elasticity.decommissions.push_back(
      TrackerDecommissionEvent{3, seconds(5), minutes(10)});
  config.faults.events.push_back(
      TrackerFaultEvent{3, seconds(10), seconds(30)});
  config.faults.expiry_interval = seconds(5);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  bool tracker3_worked_after_restart = false;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* t = std::get_if<obs::TaskStarted>(&e.payload)) {
      tracker3_worked_after_restart |= t->tracker == 3 && e.time > seconds(30);
    }
  });
  engine.submit(busy_workflow(seconds(20), /*maps=*/32));
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.tracker_crashes, 1u);
  EXPECT_EQ(summary.tracker_decommissions, 0u);
  EXPECT_TRUE(tracker3_worked_after_restart);
  EXPECT_FALSE(summary.workflows[0].failed);
}

TEST(Elasticity, AutoscalerScalesOutUnderBacklog) {
  EngineConfig config = small_cluster(2);
  config.elasticity.autoscaler.enabled = true;
  config.elasticity.autoscaler.check_period = seconds(5);
  config.elasticity.autoscaler.scale_out_pending = 1;
  config.elasticity.autoscaler.scale_in_pending = 0;  // never drain here
  config.elasticity.autoscaler.step = 1;
  config.elasticity.autoscaler.max_trackers = 6;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  for (int i = 0; i < 4; ++i) {
    auto spec = busy_workflow(seconds(30));
    spec.name = "wf" + std::to_string(i);
    engine.submit(spec);
  }
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.trackers_joined, 0u);
  EXPECT_LE(summary.trackers_joined, 4u);  // capped at max_trackers - initial
  for (const auto& w : summary.workflows) EXPECT_FALSE(w.failed);
}

TEST(Elasticity, CustomAutoscalePolicyDrivesJoinsAndDrains) {
  EngineConfig config = small_cluster(2);
  config.elasticity.autoscaler.enabled = true;
  config.elasticity.autoscaler.check_period = seconds(5);
  config.elasticity.autoscaler.max_trackers = 8;
  config.elasticity.autoscaler.min_trackers = 2;
  config.autoscale_policy = [](const AutoscaleSignal& s) -> std::int32_t {
    if (s.pending_workflows >= 3) return +2;
    if (s.pending_workflows <= 1 && s.live_trackers > 2) return -1;
    return 0;
  };
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  for (int i = 0; i < 4; ++i) {
    auto spec = busy_workflow(seconds(30));
    spec.name = "wf" + std::to_string(i);
    spec.submit_time = i * seconds(2);
    engine.submit(spec);
  }
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.trackers_joined, 0u);
  EXPECT_GT(summary.tracker_decommissions, 0u);
  for (const auto& w : summary.workflows) EXPECT_FALSE(w.failed);
}

// A draining tracker that crashes for good is no longer "live", so it must
// not count as draining either: AutoscaleSignal documents draining as a
// subset of live, and a scale-in must not subtract the dead node twice.
TEST(Elasticity, AutoscalerCountsOnlyUpTrackersAsDraining) {
  EngineConfig config = small_cluster();
  config.elasticity.decommissions.push_back(
      TrackerDecommissionEvent{3, seconds(10), minutes(10)});
  config.faults.events.push_back(TrackerFaultEvent{3, seconds(20), kTimeInfinity});
  config.elasticity.autoscaler.enabled = true;
  config.elasticity.autoscaler.check_period = seconds(30);
  config.elasticity.autoscaler.min_trackers = 2;
  std::vector<AutoscaleSignal> signals;
  config.autoscale_policy = [&signals](const AutoscaleSignal& s) -> std::int32_t {
    signals.push_back(s);
    return s.now == seconds(30) ? -1 : 0;
  };
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  std::vector<std::pair<std::size_t, SimTime>> drains;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* d = std::get_if<obs::TrackerDraining>(&e.payload)) {
      drains.emplace_back(d->tracker, e.time);
    }
  });
  engine.submit(busy_workflow(minutes(2)));
  engine.run();
  auditor.full_sweep();

  // The first tick follows the crash: three trackers up, none draining.
  ASSERT_FALSE(signals.empty());
  EXPECT_EQ(signals[0].now, seconds(30));
  EXPECT_EQ(signals[0].live_trackers, 3u);
  EXPECT_EQ(signals[0].draining_trackers, 0u);
  const std::vector<std::pair<std::size_t, SimTime>> expected = {
      {3, seconds(10)}, {2, seconds(30)}};
  EXPECT_EQ(drains, expected);
  EXPECT_FALSE(engine.summarize().workflows[0].failed);
}

TEST(Elasticity, DeterministicAcrossRuns) {
  auto run = [] {
    EngineConfig config = small_cluster();
    config.elasticity.decommissions.push_back(
        TrackerDecommissionEvent{3, seconds(5), seconds(20)});
    config.elasticity.preemption_waves.push_back(
        PreemptionWave{seconds(40), 1, seconds(10)});
    config.elasticity.joins.push_back(TrackerJoinEvent{seconds(60), 2});
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    engine.submit(busy_workflow(seconds(45), /*maps=*/24));
    engine.run();
    return engine.summarize();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.drain_migrated, b.drain_migrated);
  EXPECT_EQ(a.tracker_decommissions, b.tracker_decommissions);
  EXPECT_EQ(a.tracker_preemptions, b.tracker_preemptions);
  EXPECT_EQ(a.trackers_joined, b.trackers_joined);
  EXPECT_EQ(a.workflows[0].finish_time, b.workflows[0].finish_time);
}

}  // namespace
}  // namespace woha::hadoop
