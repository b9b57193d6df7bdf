#include "workflow/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "workflow/topology.hpp"

namespace woha::wf {
namespace {

JobShape unit_shape() {
  JobShape s;
  s.num_maps = 1;
  s.num_reduces = 1;
  s.map_duration = 100;
  s.reduce_duration = 200;
  return s;
}

TEST(Analysis, LevelsOnChain) {
  // chain of 4: sink is level 0, source level 3.
  const auto spec = chain(4, unit_shape());
  const auto levels = job_levels(spec);
  EXPECT_EQ(levels, (std::vector<std::uint32_t>{3, 2, 1, 0}));
}

TEST(Analysis, LevelsOnDiamond) {
  const auto spec = diamond(3, unit_shape());
  const auto levels = job_levels(spec);
  EXPECT_EQ(levels[0], 2u);  // source
  for (int b = 1; b <= 3; ++b) EXPECT_EQ(levels[b], 1u);
  EXPECT_EQ(levels[4], 0u);  // sink
}

TEST(Analysis, LevelsDefinitionHolds) {
  // For any job at level i, every dependent is at level < i and at least
  // one dependent is at level i-1 (the paper's HLF definition).
  const auto spec = paper_fig7_topology();
  const auto levels = job_levels(spec);
  const auto deps = dependents(spec);
  for (std::uint32_t j = 0; j < spec.jobs.size(); ++j) {
    if (deps[j].empty()) {
      EXPECT_EQ(levels[j], 0u);
      continue;
    }
    bool has_adjacent = false;
    for (std::uint32_t d : deps[j]) {
      EXPECT_LT(levels[d], levels[j]);
      has_adjacent |= (levels[d] == levels[j] - 1);
    }
    EXPECT_TRUE(has_adjacent);
  }
}

TEST(Analysis, DownstreamPathOnChain) {
  const auto spec = chain(3, unit_shape());  // serial length 300 per job
  const auto len = downstream_path_length(spec);
  EXPECT_EQ(len, (std::vector<Duration>{900, 600, 300}));
}

TEST(Analysis, DownstreamPathTakesLongestBranch) {
  // source -> {short, long} -> (no sink): path through the longer branch.
  WorkflowSpec spec;
  spec.jobs.resize(3);
  spec.jobs[0].name = "src";
  spec.jobs[0].num_maps = 1;
  spec.jobs[0].map_duration = 10;
  spec.jobs[1].name = "short";
  spec.jobs[1].num_maps = 1;
  spec.jobs[1].map_duration = 5;
  spec.jobs[1].prerequisites = {0};
  spec.jobs[2].name = "long";
  spec.jobs[2].num_maps = 1;
  spec.jobs[2].map_duration = 500;
  spec.jobs[2].prerequisites = {0};
  const auto len = downstream_path_length(spec);
  EXPECT_EQ(len[0], 510);
  EXPECT_EQ(len[1], 5);
  EXPECT_EQ(len[2], 500);
}

TEST(Analysis, DependentCounts) {
  const auto spec = diamond(4, unit_shape());
  const auto counts = dependent_counts(spec);
  EXPECT_EQ(counts[0], 4u);
  for (int b = 1; b <= 4; ++b) EXPECT_EQ(counts[b], 1u);
  EXPECT_EQ(counts[5], 0u);
}

TEST(Analysis, CriticalPathOnChainEqualsSum) {
  const auto spec = chain(5, unit_shape());
  EXPECT_EQ(critical_path_length(spec), 5 * 300);
}

TEST(Analysis, CriticalPathOnDiamond) {
  const auto spec = diamond(3, unit_shape());
  EXPECT_EQ(critical_path_length(spec), 3 * 300);  // source + branch + sink
}

TEST(Analysis, TotalWork) {
  JobShape s;
  s.num_maps = 4;
  s.num_reduces = 2;
  s.map_duration = 10;
  s.reduce_duration = 100;
  const auto spec = chain(2, s);
  EXPECT_EQ(total_work(spec), 2 * (4 * 10 + 2 * 100));
}

TEST(Analysis, CyclicGraphThrows) {
  WorkflowSpec spec;
  spec.jobs.resize(2);
  spec.jobs[0].name = std::string("a");
  spec.jobs[0].prerequisites = {1};
  spec.jobs[1].name = std::string("b");
  spec.jobs[1].prerequisites = {0};
  EXPECT_THROW((void)job_levels(spec), std::invalid_argument);
  EXPECT_THROW((void)downstream_path_length(spec), std::invalid_argument);
}

}  // namespace
}  // namespace woha::wf
