#include "core/plan.hpp"

#include <gtest/gtest.h>

#include "core/job_priority.hpp"
#include "workflow/analysis.hpp"
#include "workflow/topology.hpp"

namespace woha::core {
namespace {

std::vector<std::uint32_t> identity_rank(std::size_t n) {
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t i = 0; i < n; ++i) rank[i] = i;
  return rank;
}

TEST(Plan, HandComputedSingleJobTwoWaves) {
  // One job: 3 maps x 10ms, 2 reduces x 20ms, cap 2.
  //  t=0 : 2 maps scheduled        (cum 2)
  //  t=10: last map scheduled      (cum 3); map phase ends t=20
  //  t=20: 2 reduces scheduled     (cum 5); finish t=40 -> makespan 40
  wf::WorkflowSpec spec;
  wf::JobSpec job;
  job.name = "j";
  job.num_maps = 3;
  job.num_reduces = 2;
  job.map_duration = 10;
  job.reduce_duration = 20;
  spec.jobs.push_back(job);

  const auto plan = generate_plan(spec, 2, identity_rank(1));
  EXPECT_EQ(plan.simulated_makespan, 40);
  ASSERT_EQ(plan.num_steps(), 3u);
  EXPECT_EQ(plan.step_ttds(), (std::vector<Duration>{40, 30, 20}));
  EXPECT_EQ(plan.step_reqs(), (std::vector<std::uint64_t>{2, 3, 5}));
  EXPECT_EQ(plan.total_tasks(), 5u);
}

TEST(Plan, HandComputedChainOfMapOnlyJobs) {
  // Two map-only jobs (1 map x 10ms each), chained, cap 1:
  //  t=0:  job0 map (cum 1); completes t=10 unlocking job1
  //  t=10: job1 map (cum 2); makespan 20
  wf::WorkflowSpec spec = wf::chain(2);
  for (auto& j : spec.jobs) {
    j.num_maps = 1;
    j.num_reduces = 0;
    j.map_duration = 10;
  }
  const auto plan = generate_plan(spec, 1, identity_rank(2));
  EXPECT_EQ(plan.simulated_makespan, 20);
  ASSERT_EQ(plan.num_steps(), 2u);
  EXPECT_EQ(plan.step_ttds(), (std::vector<Duration>{20, 10}));
  EXPECT_EQ(plan.step_reqs(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Plan, RequiredAtStepFunction) {
  wf::WorkflowSpec spec;
  wf::JobSpec job;
  job.name = "j";
  job.num_maps = 3;
  job.num_reduces = 2;
  job.map_duration = 10;
  job.reduce_duration = 20;
  spec.jobs.push_back(job);
  const auto plan = generate_plan(spec, 2, identity_rank(1));

  EXPECT_EQ(plan.required_at(50), 0u);  // before the simulated start
  EXPECT_EQ(plan.required_at(41), 0u);
  EXPECT_EQ(plan.required_at(40), 2u);
  EXPECT_EQ(plan.required_at(35), 2u);
  EXPECT_EQ(plan.required_at(30), 3u);
  EXPECT_EQ(plan.required_at(21), 3u);
  EXPECT_EQ(plan.required_at(20), 5u);
  EXPECT_EQ(plan.required_at(1), 5u);
  EXPECT_EQ(plan.required_at(0), 5u);
}

TEST(Plan, StepsStrictlyDecreasingTtdIncreasingReq) {
  const auto spec = wf::paper_fig7_topology();
  const auto rank = job_priority_ranks(spec, JobPriorityPolicy::kLpf);
  const auto plan = generate_plan(spec, 32, rank);
  ASSERT_GT(plan.num_steps(), 0u);
  for (std::size_t i = 1; i < plan.num_steps(); ++i) {
    EXPECT_LT(plan.step_ttd(i), plan.step_ttd(i - 1));
    EXPECT_GT(plan.step_req(i), plan.step_req(i - 1));
  }
  EXPECT_EQ(plan.total_tasks(), spec.total_tasks());
}

TEST(Plan, CapOneIsFullySerial) {
  const auto spec = wf::diamond(3);
  const auto plan = generate_plan(spec, 1, identity_rank(spec.jobs.size()));
  // One slot: makespan equals total serial work.
  EXPECT_EQ(plan.simulated_makespan, wf::total_work(spec));
}

TEST(Plan, LargerCapNeverSlower) {
  const auto spec = wf::paper_fig7_topology();
  const auto rank = job_priority_ranks(spec, JobPriorityPolicy::kHlf);
  Duration prev = kTimeInfinity;
  for (std::uint32_t cap : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const auto plan = generate_plan(spec, cap, rank);
    EXPECT_LE(plan.simulated_makespan, prev) << "cap " << cap;
    prev = plan.simulated_makespan;
  }
}

TEST(Plan, HugeCapHitsCriticalPath) {
  const auto spec = wf::paper_fig7_topology();
  const auto rank = job_priority_ranks(spec, JobPriorityPolicy::kLpf);
  const auto plan = generate_plan(spec, 1'000'000, rank);
  EXPECT_EQ(plan.simulated_makespan, wf::critical_path_length(spec));
}

TEST(Plan, Fig2CapsMatchPaperNarrative) {
  // The paper's Fig. 2: under the full cluster (cap 6) each workflow thinks
  // it can finish in 4 units and so requires nothing for the first 5 of its
  // 9-unit deadline budget; capped at 2 the makespan stretches to 8 units
  // and requirements start almost immediately.
  const Duration unit = minutes(1);
  const auto spec = wf::fig2_two_job_workflow(unit);
  const auto rank = identity_rank(2);

  const auto lazy = generate_plan(spec, 6, rank);
  EXPECT_EQ(lazy.simulated_makespan, 4 * unit);
  const auto eager = generate_plan(spec, 2, rank);
  EXPECT_EQ(eager.simulated_makespan, 8 * unit);

  // With deadline 9 units: the lazy plan requires 0 tasks until ttd=4 units
  // (i.e. the first 5 units of the window demand nothing).
  EXPECT_EQ(lazy.required_at(5 * unit), 0u);
  EXPECT_EQ(lazy.required_at(4 * unit), 3u);
  // The eager plan requires work already at ttd=8 (t = 1 unit in).
  EXPECT_EQ(eager.required_at(8 * unit), 2u);
  EXPECT_EQ(eager.total_tasks(), 12u);
}

TEST(Plan, JobOrderControlsSchedulingOrder) {
  // Two independent jobs; whichever ranks first is scheduled first.
  wf::WorkflowSpec spec;
  spec.jobs.resize(2);
  spec.jobs[0].name = "a";
  spec.jobs[0].num_maps = 1;
  spec.jobs[0].map_duration = 10;
  spec.jobs[1].name = "b";
  spec.jobs[1].num_maps = 1;
  spec.jobs[1].map_duration = 30;

  // Rank b first: with cap 1, b runs 0-30, a runs 30-40 -> makespan 40.
  const auto plan_b_first = generate_plan(spec, 1, {1, 0});
  EXPECT_EQ(plan_b_first.simulated_makespan, 40);
  EXPECT_EQ(plan_b_first.job_order, (std::vector<std::uint32_t>{1, 0}));
  // Same total but different step times from a-first.
  const auto plan_a_first = generate_plan(spec, 1, {0, 1});
  EXPECT_EQ(plan_a_first.step_ttd(1), 30);   // b scheduled at t=10
  EXPECT_EQ(plan_b_first.step_ttd(1), 10);   // a scheduled at t=30
}

TEST(Plan, RejectsBadArguments) {
  const auto spec = wf::chain(2);
  EXPECT_THROW((void)generate_plan(spec, 0, identity_rank(2)), std::invalid_argument);
  EXPECT_THROW((void)generate_plan(spec, 2, identity_rank(3)), std::invalid_argument);
  // job_rank must be a permutation of 0..jobs-1.
  EXPECT_THROW((void)generate_plan(spec, 2, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)generate_plan(spec, 2, {0, 2}), std::invalid_argument);
}

TEST(Plan, ReduceOnlyJobSupported) {
  wf::WorkflowSpec spec;
  wf::JobSpec job;
  job.name = "r";
  job.num_maps = 0;
  job.num_reduces = 4;
  job.reduce_duration = 10;
  spec.jobs.push_back(job);
  const auto plan = generate_plan(spec, 2, identity_rank(1));
  EXPECT_EQ(plan.simulated_makespan, 20);
  EXPECT_EQ(plan.total_tasks(), 4u);
}

}  // namespace
}  // namespace woha::core
