#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.hpp"
#include "trace/deadlines.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"
#include "trace/yahoo_like.hpp"
#include "workflow/analysis.hpp"

namespace woha::trace {
namespace {

TEST(YahooTrace, MapperDurationMarginalMatchesFig5) {
  // "most mappers finish between 10s to 100s" (paper Fig. 5a).
  Distribution d;
  for (const auto& job : sample_jobs(1, 20'000)) {
    d.add(static_cast<double>(job.map_duration));
  }
  const double in_band = d.cdf(100'000.0) - d.cdf(10'000.0);
  EXPECT_GT(in_band, 0.85);
}

TEST(YahooTrace, ReducerDurationMarginalMatchesFig5) {
  // ">50% of reducers take >100s, ~10% take >1000s".
  Distribution d;
  for (const auto& job : sample_jobs(2, 40'000)) {
    if (job.num_reduces == 0) continue;
    d.add(static_cast<double>(job.reduce_duration));
  }
  const double over_100s = 1.0 - d.cdf(100'000.0);
  const double over_1000s = 1.0 - d.cdf(1'000'000.0);
  EXPECT_GT(over_100s, 0.40);
  EXPECT_LT(over_100s, 0.65);
  EXPECT_GT(over_1000s, 0.05);
  EXPECT_LT(over_1000s, 0.16);
}

TEST(YahooTrace, MapCountMarginalMatchesFig6) {
  // "~30% of jobs have more than 100 mappers".
  Distribution d;
  for (const auto& job : sample_jobs(3, 40'000)) {
    d.add(static_cast<double>(job.num_maps));
  }
  const double over_100 = 1.0 - d.cdf(100.0);
  EXPECT_GT(over_100, 0.22);
  EXPECT_LT(over_100, 0.38);
}

TEST(YahooTrace, ReduceCountMarginalMatchesFig6) {
  // ">60% of jobs have less than 10 reducers" (counting map-only jobs,
  // which have zero).
  std::size_t total = 0, under_10 = 0;
  for (const auto& job : sample_jobs(4, 40'000)) {
    ++total;
    if (job.num_reduces < 10) ++under_10;
  }
  const double frac = static_cast<double>(under_10) / static_cast<double>(total);
  EXPECT_GT(frac, 0.60);
  EXPECT_LT(frac, 0.85);
}

TEST(YahooTrace, MappersOutnumberReducersAndRunShorter) {
  // Fig. 5(b)/6(b) directionality.
  double count_ratio_sum = 0.0;
  double dur_ratio_sum = 0.0;
  std::size_t n = 0;
  for (const auto& job : sample_jobs(5, 20'000)) {
    if (job.num_reduces == 0) continue;
    count_ratio_sum += static_cast<double>(job.num_maps) / job.num_reduces;
    dur_ratio_sum +=
        static_cast<double>(job.reduce_duration) / static_cast<double>(job.map_duration);
    ++n;
  }
  EXPECT_GT(count_ratio_sum / static_cast<double>(n), 2.0);
  EXPECT_GT(dur_ratio_sum / static_cast<double>(n), 2.0);
}

TEST(YahooTrace, DeterministicPerSeed) {
  const auto a = sample_jobs(9, 100);
  const auto b = sample_jobs(9, 100);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].num_maps, b[i].num_maps);
    EXPECT_EQ(a[i].map_duration, b[i].map_duration);
  }
  const auto c = sample_jobs(10, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= (a[i].num_maps != c[i].num_maps);
  }
  EXPECT_TRUE(any_diff);
}

TEST(YahooTrace, WorkflowArrangementMatchesPaperWithSingletons) {
  WorkflowTraceParams params;
  params.drop_singletons = false;
  const auto workflows = yahoo_like_workflows(7, params);
  EXPECT_EQ(workflows.size(), 61u);
  std::size_t jobs = 0, singletons = 0, largest = 0;
  for (const auto& w : workflows) {
    jobs += w.jobs.size();
    singletons += w.jobs.size() == 1;
    largest = std::max(largest, w.jobs.size());
  }
  EXPECT_EQ(jobs, 180u);
  EXPECT_EQ(singletons, 15u);
  EXPECT_EQ(largest, 12u);
}

TEST(YahooTrace, SingletonsDroppedForDeadlineExperiments) {
  const auto workflows = yahoo_like_workflows(7, {});
  EXPECT_EQ(workflows.size(), 46u);
  std::size_t jobs = 0;
  for (const auto& w : workflows) {
    jobs += w.jobs.size();
    EXPECT_GE(w.jobs.size(), 2u);
    EXPECT_NO_THROW(wf::validate(w));
  }
  EXPECT_EQ(jobs, 165u);
}

TEST(YahooTrace, ExperimentCapsApplied) {
  WorkflowTraceParams params;
  params.experiment_map_count_max = 50;
  params.experiment_reduce_count_max = 10;
  for (const auto& w : yahoo_like_workflows(11, params)) {
    for (const auto& job : w.jobs) {
      EXPECT_LE(job.num_maps, 50u);
      EXPECT_LE(job.num_reduces, 10u);
    }
  }
}

TEST(Deadlines, AssignsPositiveFeasibleDeadlines) {
  auto workflows = yahoo_like_workflows(13, {});
  DeadlinePolicy policy;
  assign_deadlines(workflows, 99, policy);
  for (const auto& w : workflows) {
    EXPECT_GT(w.relative_deadline, 0);
    EXPECT_GE(w.submit_time, 0);
    EXPECT_LE(w.submit_time, policy.arrival_window);
    // Slack >= 1.3 guarantees the deadline exceeds the reference makespan,
    // hence also the critical path.
    EXPECT_GT(w.relative_deadline, wf::critical_path_length(w));
  }
}

TEST(Deadlines, DeterministicPerSeed) {
  auto a = yahoo_like_workflows(13, {});
  auto b = yahoo_like_workflows(13, {});
  assign_deadlines(a, 5);
  assign_deadlines(b, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].relative_deadline, b[i].relative_deadline);
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
  }
}

TEST(PaperWorkloads, Fig2Scenario) {
  const auto scenario = fig2_scenario(minutes(1));
  ASSERT_EQ(scenario.size(), 3u);
  EXPECT_EQ(scenario[0].relative_deadline, minutes(9));
  EXPECT_EQ(scenario[1].relative_deadline, minutes(9));
  EXPECT_EQ(scenario[2].relative_deadline, minutes(50));
  for (const auto& w : scenario) {
    EXPECT_EQ(w.submit_time, 0);
    EXPECT_EQ(w.jobs.size(), 2u);
  }
}

TEST(PaperWorkloads, Fig11Scenario) {
  const auto scenario = fig11_scenario();
  ASSERT_EQ(scenario.size(), 3u);
  // "workflows with larger release time have to meet earlier deadline".
  EXPECT_EQ(scenario[0].submit_time, 0);
  EXPECT_EQ(scenario[1].submit_time, minutes(5));
  EXPECT_EQ(scenario[2].submit_time, minutes(10));
  EXPECT_EQ(scenario[0].relative_deadline, minutes(80));
  EXPECT_EQ(scenario[1].relative_deadline, minutes(70));
  EXPECT_EQ(scenario[2].relative_deadline, minutes(60));
  for (const auto& w : scenario) EXPECT_EQ(w.jobs.size(), 33u);
}

TEST(PaperWorkloads, Fig12ScenarioRecurs) {
  const auto scenario = fig12_scenario(3, minutes(30));
  EXPECT_EQ(scenario.size(), 9u);
  // Instances are grouped per base workflow: W-1 r1..r3, W-2 r1..r3, ...
  EXPECT_EQ(scenario[0].submit_time, 0);
  EXPECT_EQ(scenario[1].submit_time, minutes(30));
  EXPECT_EQ(scenario[3].submit_time, minutes(5));   // W-2 first instance
  EXPECT_EQ(scenario[8].submit_time, minutes(70));  // W-3 third: 10 + 60
  EXPECT_EQ(scenario[1].name, "W-1-r2");
}

TEST(PaperWorkloads, Fig8TraceReady) {
  const auto workflows = fig8_trace(42);
  EXPECT_EQ(workflows.size(), 46u);
  for (const auto& w : workflows) {
    EXPECT_GT(w.relative_deadline, 0);
  }
}

// The scale recipe, spelled out: one fig8_trace replica per 80 trackers
// (at least one), replica r drawn with seed + r, concatenated in replica
// order. The scale goldens check it only through whole runs.
constexpr std::uint32_t kScaleTrackers[] = {0, 79, 80, 800, 8000};
constexpr std::uint64_t kScaleSeeds[] = {42, 1042};

::testing::AssertionResult SameSpec(const wf::WorkflowSpec& got,
                                    const wf::WorkflowSpec& want) {
  if (got.name != want.name || got.submit_time != want.submit_time ||
      got.relative_deadline != want.relative_deadline) {
    return ::testing::AssertionFailure()
           << got.name << " @" << got.submit_time << " +" << got.relative_deadline
           << " != " << want.name << " @" << want.submit_time << " +"
           << want.relative_deadline;
  }
  if (got.jobs.size() != want.jobs.size()) {
    return ::testing::AssertionFailure()
           << got.name << ": " << got.jobs.size() << " jobs != " << want.jobs.size();
  }
  for (std::size_t j = 0; j < got.jobs.size(); ++j) {
    const wf::JobSpec& a = got.jobs[j];
    const wf::JobSpec& b = want.jobs[j];
    if (a.name != b.name || a.num_maps != b.num_maps ||
        a.num_reduces != b.num_reduces || a.map_duration != b.map_duration ||
        a.reduce_duration != b.reduce_duration || a.prerequisites != b.prerequisites) {
      return ::testing::AssertionFailure() << got.name << ": job " << j << " ("
                                           << a.name << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ScaleWorkload, HasOneFig8ReplicaPer80Trackers) {
  for (const std::uint32_t trackers : kScaleTrackers) {
    for (const std::uint64_t seed : kScaleSeeds) {
      const std::size_t replicas = std::max<std::uint32_t>(1, trackers / 80);
      EXPECT_EQ(scale_workload(trackers, seed).size(), replicas * 46)
          << trackers << " trackers, seed " << seed;
    }
  }
}

TEST(ScaleWorkload, EqualsFig8ReplicasConcatenatedInOrder) {
  for (const std::uint32_t trackers : kScaleTrackers) {
    for (const std::uint64_t seed : kScaleSeeds) {
      const auto got = scale_workload(trackers, seed);
      std::vector<wf::WorkflowSpec> want;
      const std::uint32_t replicas = std::max<std::uint32_t>(1, trackers / 80);
      for (std::uint32_t r = 0; r < replicas; ++r) {
        for (auto& w : fig8_trace(seed + r)) want.push_back(std::move(w));
      }
      ASSERT_EQ(got.size(), want.size()) << trackers << " trackers, seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(SameSpec(got[i], want[i]))
            << trackers << " trackers, seed " << seed << ", spec " << i;
      }
    }
  }
}

}  // namespace
}  // namespace woha::trace
