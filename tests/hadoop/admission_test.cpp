// Admission control and deadline-aware shedding (hadoop/admission.hpp +
// engine hooks): config validation, the feasibility gate, the pending
// budget, victim selection, and the conservation accounting the auditor
// cross-checks.
#include "hadoop/admission.hpp"

#include <gtest/gtest.h>

#include <limits>
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

EngineConfig small_cluster() {
  EngineConfig config;
  config.cluster.num_trackers = 4;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.activation_latency = seconds(1);
  return config;
}

wf::WorkflowSpec one_job(const std::string& name, Duration task_len,
                         Duration relative_deadline, SimTime submit = 0) {
  wf::WorkflowSpec spec;
  spec.name = name;
  wf::JobSpec job;
  job.name = "only";
  job.num_maps = 4;
  job.num_reduces = 2;
  job.map_duration = task_len;
  job.reduce_duration = task_len;
  spec.jobs.push_back(job);
  spec.submit_time = submit;
  spec.relative_deadline = relative_deadline;
  return spec;
}

TEST(AdmissionConfig, Validation) {
  AdmissionConfig config;
  EXPECT_NO_THROW(config.validate());  // admit-all ignores the knobs

  config.policy = AdmissionPolicy::kShedLatestDeadlineFirst;
  config.max_pending_workflows = 0;  // budget is shedding's only trigger
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.max_pending_workflows = 4;
  EXPECT_NO_THROW(config.validate());

  config.policy = AdmissionPolicy::kRejectInfeasible;
  config.max_pending_workflows = 0;  // feasibility alone may gate
  EXPECT_NO_THROW(config.validate());
  config.feasibility_margin = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    config.feasibility_margin = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
  }
}

TEST(Admission, AdmitAllIsInert) {
  auto run = [](AdmissionPolicy policy) {
    EngineConfig config = small_cluster();
    config.admission.policy = policy;
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    engine.submit(one_job("a", seconds(10), minutes(5)));
    engine.run();
    return engine.summarize();
  };
  const auto summary = run(AdmissionPolicy::kAdmitAll);
  EXPECT_EQ(summary.workflows_submitted, 1u);
  EXPECT_EQ(summary.workflows_rejected, 0u);
  EXPECT_EQ(summary.workflows_shed, 0u);
  EXPECT_EQ(summary.pending_peak, 1u);
  EXPECT_TRUE(summary.workflows[0].met_deadline);
}

TEST(Admission, RejectsDeadlineNoScheduleCanMeet) {
  EngineConfig config = small_cluster();
  config.admission.policy = AdmissionPolicy::kRejectInfeasible;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  // Critical path is ~2 x 60 s; a 10 s deadline is infeasible at the door.
  engine.submit(one_job("doomed", seconds(60), seconds(10)));
  engine.submit(one_job("fine", seconds(60), minutes(30), seconds(5)));
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.workflows_submitted, 2u);
  EXPECT_EQ(summary.workflows_rejected, 1u);
  ASSERT_EQ(summary.workflows.size(), 2u);
  // The rejected workflow still appears in the results, counted as a miss.
  std::size_t rejected = 0;
  for (const auto& w : summary.workflows) {
    if (w.rejected) {
      ++rejected;
      EXPECT_EQ(w.name, "doomed");
      EXPECT_FALSE(w.met_deadline);
      EXPECT_FALSE(w.shed);
    } else {
      EXPECT_TRUE(w.met_deadline);
    }
  }
  EXPECT_EQ(rejected, 1u);
  EXPECT_GT(summary.deadline_miss_ratio, 0.0);
}

TEST(Admission, NoDeadlineWorkflowsPassTheFeasibilityGate) {
  EngineConfig config = small_cluster();
  config.admission.policy = AdmissionPolicy::kRejectInfeasible;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(one_job("whenever", seconds(60), /*relative_deadline=*/0));
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.workflows_rejected, 0u);
  EXPECT_FALSE(summary.workflows[0].rejected);
}

TEST(Admission, PendingBudgetRejectsOverflow) {
  EngineConfig config = small_cluster();
  config.admission.policy = AdmissionPolicy::kRejectInfeasible;
  config.admission.max_pending_workflows = 2;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  // Three long overlapping workflows, loose deadlines: feasibility passes,
  // the budget does not.
  for (int i = 0; i < 3; ++i) {
    engine.submit(one_job("wf" + std::to_string(i), seconds(120), hours(4),
                          i * seconds(1)));
  }
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.workflows_submitted, 3u);
  EXPECT_EQ(summary.workflows_rejected, 1u);
  EXPECT_LE(summary.pending_peak, 2u);
}

TEST(Admission, ShedEvictsLatestDeadlineFirst) {
  EngineConfig config = small_cluster();
  config.admission.policy = AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 2;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  std::vector<std::string> shed_events;
  audit::InvariantAuditor auditor(engine);
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* s = std::get_if<obs::WorkflowShed>(&e.payload)) {
      shed_events.push_back("wf" + std::to_string(s->workflow));
    }
  });
  // wf0 has the loosest deadline: when wf2 arrives and busts the budget,
  // wf0 is the victim (latest deadline = least committed).
  engine.submit(one_job("wf0", seconds(120), hours(8), 0));
  engine.submit(one_job("wf1", seconds(120), hours(1), seconds(1)));
  engine.submit(one_job("wf2", seconds(120), hours(2), seconds(2)));
  engine.run();
  auditor.full_sweep();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.workflows_submitted, 3u);
  EXPECT_EQ(summary.workflows_rejected, 0u);
  EXPECT_EQ(summary.workflows_shed, 1u);
  EXPECT_LE(summary.pending_peak, 2u);
  ASSERT_EQ(shed_events.size(), 1u);
  EXPECT_EQ(shed_events[0], "wf0");
  ASSERT_EQ(summary.workflows.size(), 3u);
  EXPECT_TRUE(summary.workflows[0].shed);
  EXPECT_FALSE(summary.workflows[0].met_deadline);
  // Shed is its own outcome, not a task-level failure.
  EXPECT_FALSE(summary.workflows[0].failed);
  EXPECT_TRUE(summary.workflows[1].met_deadline);
  EXPECT_TRUE(summary.workflows[2].met_deadline);
}

TEST(Admission, ConservationHoldsUnderMixedOutcomes) {
  EngineConfig config = small_cluster();
  config.admission.policy = AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 2;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  audit::InvariantAuditor auditor(engine);
  for (int i = 0; i < 6; ++i) {
    engine.submit(one_job("wf" + std::to_string(i), seconds(90),
                          hours(1) + i * minutes(10), i * seconds(2)));
  }
  engine.run();
  auditor.full_sweep();  // admission-conservation + pending-bound checks
  const auto stats = engine.admission_stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_LE(stats.shed, stats.admitted);
  EXPECT_LE(stats.pending_peak, 2u);
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.workflows.size(), 6u);
  EXPECT_EQ(summary.workflows_submitted, 6u);
}

// Determinism: admission decisions and shed victims are pure functions of
// JobTracker state, so repeated runs agree exactly.
TEST(Admission, DeterministicAcrossRuns) {
  auto run = [] {
    EngineConfig config = small_cluster();
    config.admission.policy = AdmissionPolicy::kShedLatestDeadlineFirst;
    config.admission.max_pending_workflows = 2;
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    for (int i = 0; i < 6; ++i) {
      engine.submit(one_job("wf" + std::to_string(i), seconds(90),
                            hours(1) + i * minutes(10), i * seconds(2)));
    }
    engine.run();
    return engine.summarize();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.workflows.size(), b.workflows.size());
  for (std::size_t i = 0; i < a.workflows.size(); ++i) {
    EXPECT_EQ(a.workflows[i].finish_time, b.workflows[i].finish_time);
    EXPECT_EQ(a.workflows[i].shed, b.workflows[i].shed);
    EXPECT_EQ(a.workflows[i].rejected, b.workflows[i].rejected);
  }
  EXPECT_EQ(a.workflows_shed, b.workflows_shed);
  EXPECT_EQ(a.pending_peak, b.pending_peak);
  EXPECT_EQ(a.events_fired, b.events_fired);
}

}  // namespace
}  // namespace woha::hadoop
