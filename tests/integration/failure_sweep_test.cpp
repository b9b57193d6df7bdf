// Failure-injection property sweep: with task attempts failing randomly,
// every scheduler must still drive every workflow to completion with
// conserved accounting (successes == task count; attempts == successes +
// retries), and stay deterministic per seed.
#include <gtest/gtest.h>

#include "metrics/report.hpp"
#include "trace/paper_workloads.hpp"

namespace woha {
namespace {

struct FailureCase {
  std::size_t scheduler_index;  // into metrics::extended_schedulers()
  double failure_prob;
};

class FailureSweep : public ::testing::TestWithParam<FailureCase> {};

TEST_P(FailureSweep, EverythingCompletesWithRetries) {
  const auto [scheduler_index, failure_prob] = GetParam();
  const auto entry = metrics::extended_schedulers()[scheduler_index];

  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  config.task_failure_prob = failure_prob;
  config.seed = 1234;
  // Over 4x the slowest makespan (EDF at p = 0.25, 1.81 h): a stranded job
  // leaves its workflow unfinished instead of beating forever.
  config.horizon = hours(8);

  const auto workload = trace::fig11_scenario();
  std::uint64_t expected = 0;
  for (const auto& w : workload) expected += w.total_tasks();

  const auto result = metrics::run_experiment(config, workload, entry);
  const auto& s = result.summary;
  EXPECT_EQ(s.tasks_executed - s.tasks_failed, expected) << entry.label;
  if (failure_prob > 0.0) {
    EXPECT_GT(s.tasks_failed, 0u);
  }
  for (const auto& wf_result : s.workflows) {
    EXPECT_GE(wf_result.finish_time, 0) << entry.label << " " << wf_result.name;
  }
}

TEST_P(FailureSweep, DeterministicUnderFailures) {
  const auto [scheduler_index, failure_prob] = GetParam();
  const auto entry = metrics::extended_schedulers()[scheduler_index];
  const auto workload = trace::fig2_scenario(seconds(30));

  hadoop::EngineConfig config;
  config.cluster.num_trackers = 3;
  config.cluster.map_slots_per_tracker = 1;
  config.cluster.reduce_slots_per_tracker = 1;
  config.task_failure_prob = failure_prob;
  config.seed = 77;

  hadoop::RunSummary runs[2];
  for (auto& run : runs) {
    run = metrics::run_experiment(config, workload, entry).summary;
  }
  EXPECT_EQ(runs[0].tasks_failed, runs[1].tasks_failed);
  for (std::size_t w = 0; w < runs[0].workflows.size(); ++w) {
    EXPECT_EQ(runs[0].workflows[w].finish_time, runs[1].workflows[w].finish_time);
  }
}

std::vector<FailureCase> make_cases() {
  std::vector<FailureCase> cases;
  for (std::size_t s = 0; s < 7; ++s) {
    cases.push_back({s, 0.05});
    cases.push_back({s, 0.25});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, FailureSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const auto& info) {
                           return std::string("s")
                               .append(std::to_string(info.param.scheduler_index))
                               .append("_p")
                               .append(std::to_string(
                                   static_cast<int>(info.param.failure_prob * 100)));
                         });

}  // namespace
}  // namespace woha
