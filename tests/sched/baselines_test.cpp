// Behavioural tests for the three ported baseline schedulers (paper
// Section V-B), exercised through the full engine so the tested behaviour is
// the one the benches measure.
#include <gtest/gtest.h>

#include <map>
#include <variant>

#include "hadoop/engine.hpp"
#include "sched/edf_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

hadoop::EngineConfig tiny_cluster() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 1;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.activation_latency = seconds(1);
  return config;
}

wf::WorkflowSpec bulk_workflow(const std::string& name, std::uint32_t maps,
                               Duration deadline) {
  wf::WorkflowSpec spec;
  spec.name = name;
  wf::JobSpec job;
  job.name = name + "-job";
  job.num_maps = maps;
  job.num_reduces = 1;
  job.map_duration = seconds(30);
  job.reduce_duration = seconds(10);
  spec.jobs.push_back(job);
  spec.relative_deadline = deadline;
  return spec;
}

TEST(FifoScheduler, ServesInSubmissionOrder) {
  // Two workflows, both submitted at t=0 but in submission order A, B.
  // FIFO must finish all of A's maps before any of B's.
  hadoop::Engine engine(tiny_cluster(), std::make_unique<sched::FifoScheduler>());
  engine.submit(bulk_workflow("A", 6, 0));
  engine.submit(bulk_workflow("B", 6, 0));

  SimTime a_last_map_start = -1, b_first_map_start = -1;
  engine.events().subscribe([&](const obs::Event& e) {
    const auto* started = std::get_if<obs::TaskStarted>(&e.payload);
    if (started == nullptr || started->slot != SlotType::kMap) return;
    if (started->workflow == 0) a_last_map_start = e.time;
    if (started->workflow == 1 && b_first_map_start < 0) b_first_map_start = e.time;
  });
  engine.run();
  EXPECT_LT(a_last_map_start, b_first_map_start);
  const auto summary = engine.summarize();
  EXPECT_LT(summary.workflows[0].finish_time, summary.workflows[1].finish_time);
}

TEST(EdfScheduler, FavorsEarliestDeadline) {
  // B has the later submission but earlier deadline: EDF must finish B first.
  hadoop::Engine engine(tiny_cluster(), std::make_unique<sched::EdfScheduler>());
  engine.submit(bulk_workflow("A", 8, hours(4)));
  auto b = bulk_workflow("B", 8, minutes(10));
  b.submit_time = seconds(10);
  engine.submit(b);
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.workflows[0].finish_time, summary.workflows[1].finish_time);
}

TEST(EdfScheduler, NoDeadlineRanksLast) {
  hadoop::Engine engine(tiny_cluster(), std::make_unique<sched::EdfScheduler>());
  engine.submit(bulk_workflow("no-deadline", 8, 0));  // infinity
  engine.submit(bulk_workflow("tight", 8, minutes(10)));
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.workflows[0].finish_time, summary.workflows[1].finish_time);
}

TEST(FairScheduler, SharesSlotsBetweenWorkflows) {
  // Two identical workflows under Fair should interleave: B's first map
  // starts long before A finishes (contrast with the FIFO test above).
  hadoop::Engine engine(tiny_cluster(), std::make_unique<sched::FairScheduler>());
  engine.submit(bulk_workflow("A", 6, 0));
  engine.submit(bulk_workflow("B", 6, 0));

  SimTime b_first_map_start = -1;
  engine.events().subscribe([&](const obs::Event& e) {
    const auto* started = std::get_if<obs::TaskStarted>(&e.payload);
    if (started != nullptr && started->slot == SlotType::kMap &&
        started->workflow == 1 && b_first_map_start < 0) {
      b_first_map_start = e.time;
    }
  });
  engine.run();
  const auto summary = engine.summarize();
  // B got a slot within the first couple of map waves.
  EXPECT_LT(b_first_map_start, seconds(65));
  // And both finish near each other (fair sharing), within two map waves.
  EXPECT_LE(std::abs(summary.workflows[0].finish_time -
                     summary.workflows[1].finish_time),
            seconds(65));
}

TEST(FairScheduler, WorkConservingWhenOneWorkflowStalls) {
  // A has a dependency stall (chain); Fair must hand idle slots to B.
  auto chain_spec = wf::chain(2);
  for (auto& job : chain_spec.jobs) {
    job.num_maps = 1;
    job.num_reduces = 1;
    job.map_duration = seconds(10);
    job.reduce_duration = seconds(10);
  }
  chain_spec.name = "chained";
  hadoop::Engine engine(tiny_cluster(), std::make_unique<sched::FairScheduler>());
  engine.submit(chain_spec);
  engine.submit(bulk_workflow("bulk", 10, 0));
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.overall_utilization, 0.4);
}

TEST(Baselines, AllHandleDependentWorkflowsCorrectly) {
  // Smoke across all three baselines on a DAG-rich workload: everything
  // completes and executes exactly the right number of tasks.
  const auto spec = wf::paper_fig7_topology();
  const std::uint64_t expected_tasks = spec.total_tasks();
  for (int which = 0; which < 3; ++which) {
    std::unique_ptr<hadoop::WorkflowScheduler> sched;
    switch (which) {
      case 0: sched = std::make_unique<sched::FifoScheduler>(); break;
      case 1: sched = std::make_unique<sched::FairScheduler>(); break;
      default: sched = std::make_unique<sched::EdfScheduler>(); break;
    }
    hadoop::EngineConfig config;
    config.cluster = hadoop::ClusterConfig::paper_32_slaves();
    hadoop::Engine engine(config, std::move(sched));
    engine.submit(spec);
    engine.run();
    const auto summary = engine.summarize();
    EXPECT_EQ(summary.tasks_executed, expected_tasks);
    EXPECT_GE(summary.workflows[0].finish_time, 0);
  }
}

}  // namespace
}  // namespace woha
