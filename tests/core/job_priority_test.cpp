#include "core/job_priority.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workflow/topology.hpp"

namespace woha::core {
namespace {

TEST(JobPriority, PolicyNames) {
  EXPECT_STREQ(to_string(JobPriorityPolicy::kHlf), "HLF");
  EXPECT_STREQ(to_string(JobPriorityPolicy::kLpf), "LPF");
  EXPECT_STREQ(to_string(JobPriorityPolicy::kMpf), "MPF");
  EXPECT_EQ(parse_job_priority_policy("hlf"), JobPriorityPolicy::kHlf);
  EXPECT_EQ(parse_job_priority_policy("LPF"), JobPriorityPolicy::kLpf);
  EXPECT_EQ(parse_job_priority_policy("Mpf"), JobPriorityPolicy::kMpf);
  EXPECT_THROW((void)parse_job_priority_policy("edf"), std::invalid_argument);
}

TEST(JobPriority, HlfOrdersByLevel) {
  const auto spec = wf::chain(4);  // levels 3,2,1,0
  const auto order = job_priority_order(spec, JobPriorityPolicy::kHlf);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(JobPriority, LpfPrefersLongerDownstreamPath) {
  // Two chains from independent roots: root0 -> long job; root1 -> short.
  wf::WorkflowSpec spec;
  spec.jobs.resize(4);
  for (auto& j : spec.jobs) {
    j.num_maps = 1;
    j.map_duration = seconds(1);
  }
  spec.jobs[0].name = "root0";
  spec.jobs[1].name = "root1";
  spec.jobs[2].name = "long";
  spec.jobs[2].map_duration = seconds(100);
  spec.jobs[2].prerequisites = {0};
  spec.jobs[3].name = "short";
  spec.jobs[3].map_duration = seconds(2);
  spec.jobs[3].prerequisites = {1};

  const auto order = job_priority_order(spec, JobPriorityPolicy::kLpf);
  // root0 (path 101s) > root1 (3s); long (100s) before short (2s).
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 2u);
  // HLF cannot tell the two roots apart (same level) and tie-breaks by id.
  const auto hlf = job_priority_order(spec, JobPriorityPolicy::kHlf);
  EXPECT_EQ(hlf[0], 0u);
  EXPECT_EQ(hlf[1], 1u);
}

TEST(JobPriority, MpfPrefersMostDependents) {
  const auto spec = wf::diamond(5);  // source has 5 dependents
  const auto order = job_priority_order(spec, JobPriorityPolicy::kMpf);
  EXPECT_EQ(order[0], 0u);  // source first
  EXPECT_EQ(order.back(), 6u);  // sink (0 dependents, highest id among them)
}

TEST(JobPriority, RanksAreInversePermutation) {
  const auto spec = wf::paper_fig7_topology();
  for (const auto policy : {JobPriorityPolicy::kHlf, JobPriorityPolicy::kLpf,
                            JobPriorityPolicy::kMpf}) {
    const auto order = job_priority_order(spec, policy);
    const auto rank = job_priority_ranks(spec, policy);
    ASSERT_EQ(order.size(), spec.jobs.size());
    ASSERT_EQ(rank.size(), spec.jobs.size());
    std::set<std::uint32_t> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), order.size());
    for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
      EXPECT_EQ(rank[order[pos]], pos);
    }
  }
}

TEST(JobPriority, TieBreakByJobId) {
  // All jobs identical and independent -> order must equal job ids.
  wf::WorkflowSpec spec;
  spec.jobs.resize(5);
  for (std::uint32_t j = 0; j < 5; ++j) {
    spec.jobs[j].name = std::string("j").append(std::to_string(j));
  }
  for (const auto policy : {JobPriorityPolicy::kHlf, JobPriorityPolicy::kLpf,
                            JobPriorityPolicy::kMpf}) {
    const auto order = job_priority_order(spec, policy);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  }
}

TEST(JobPriority, PoliciesDifferOnFig7) {
  // The three policies must not be identical on a rich DAG (otherwise the
  // Fig. 11 comparison would be vacuous).
  const auto spec = wf::paper_fig7_topology();
  const auto hlf = job_priority_order(spec, JobPriorityPolicy::kHlf);
  const auto lpf = job_priority_order(spec, JobPriorityPolicy::kLpf);
  const auto mpf = job_priority_order(spec, JobPriorityPolicy::kMpf);
  EXPECT_NE(hlf, mpf);
  EXPECT_NE(lpf, mpf);
}

}  // namespace
}  // namespace woha::core
