// Open-loop arrival generators (trace/arrivals.hpp): determinism, ordering,
// rho calibration, and config validation — plus regression coverage for the
// degenerate DeadlinePolicy shapes the overload experiments lean on.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "trace/arrivals.hpp"
#include "trace/deadlines.hpp"
#include "workflow/topology.hpp"

namespace woha::trace {
namespace {

std::vector<wf::WorkflowSpec> uniform_workload(std::uint32_t n) {
  std::vector<wf::WorkflowSpec> workflows;
  workflows.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.relative_deadline = minutes(30);
    workflows.push_back(std::move(spec));
  }
  return workflows;
}

ArrivalConfig config_for(ArrivalShape shape, double rho = 0.9) {
  ArrivalConfig config;
  config.shape = shape;
  config.rho = rho;
  config.cluster_slots = 24;
  return config;
}

class ArrivalShapes : public ::testing::TestWithParam<ArrivalShape> {};

TEST_P(ArrivalShapes, SameSeedSameTimes) {
  auto a = uniform_workload(64);
  auto b = uniform_workload(64);
  assign_open_loop_arrivals(a, 7, config_for(GetParam()));
  assign_open_loop_arrivals(b, 7, config_for(GetParam()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time) << "workflow " << i;
  }
}

TEST_P(ArrivalShapes, DifferentSeedDifferentTimes) {
  auto a = uniform_workload(64);
  auto b = uniform_workload(64);
  assign_open_loop_arrivals(a, 7, config_for(GetParam()));
  assign_open_loop_arrivals(b, 8, config_for(GetParam()));
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing += a[i].submit_time != b[i].submit_time;
  }
  EXPECT_GT(differing, a.size() / 2);
}

TEST_P(ArrivalShapes, SubmitTimesNondecreasing) {
  auto workflows = uniform_workload(256);
  assign_open_loop_arrivals(workflows, 11, config_for(GetParam()));
  for (std::size_t i = 1; i < workflows.size(); ++i) {
    EXPECT_GE(workflows[i].submit_time, workflows[i - 1].submit_time)
        << "workflow " << i;
  }
}

TEST_P(ArrivalShapes, DeadlinesUntouched) {
  auto workflows = uniform_workload(16);
  assign_open_loop_arrivals(workflows, 11, config_for(GetParam()));
  for (const auto& wf : workflows) {
    EXPECT_EQ(wf.relative_deadline, minutes(30));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ArrivalShapes,
                         ::testing::Values(ArrivalShape::kPoisson,
                                           ArrivalShape::kMmpp,
                                           ArrivalShape::kFlashCrowd),
                         [](const auto& info) -> std::string {
                           // to_string() uses hyphens, which gtest rejects
                           // in parameterized test names.
                           switch (info.param) {
                             case ArrivalShape::kPoisson: return "Poisson";
                             case ArrivalShape::kMmpp: return "Mmpp";
                             case ArrivalShape::kFlashCrowd: return "FlashCrowd";
                           }
                           return "Unknown";
                         });

// The knob's contract: the realized mean interarrival over a long Poisson
// stream matches mean_total_work / (rho * slots) — so rho really is offered
// work per unit capacity, not an uncalibrated intensity.
TEST(ArrivalCalibration, PoissonMeanInterarrivalMatchesRho) {
  auto workflows = uniform_workload(4000);
  const auto config = config_for(ArrivalShape::kPoisson, 1.25);
  const double target = mean_interarrival_ms(workflows, config);
  ASSERT_GT(target, 0.0);
  assign_open_loop_arrivals(workflows, 3, config);
  const double realized =
      static_cast<double>(workflows.back().submit_time - workflows.front().submit_time) /
      static_cast<double>(workflows.size() - 1);
  EXPECT_NEAR(realized, target, 0.1 * target);
}

// MMPP's burst modulation must not change the *time-averaged* rate: the same
// rho produces the same long-run arrival span (within stochastic tolerance).
TEST(ArrivalCalibration, MmppTimeAverageMatchesPoisson) {
  auto poisson = uniform_workload(4000);
  auto mmpp = uniform_workload(4000);
  assign_open_loop_arrivals(poisson, 3, config_for(ArrivalShape::kPoisson, 0.8));
  assign_open_loop_arrivals(mmpp, 3, config_for(ArrivalShape::kMmpp, 0.8));
  const double span_p = static_cast<double>(poisson.back().submit_time);
  const double span_m = static_cast<double>(mmpp.back().submit_time);
  ASSERT_GT(span_p, 0.0);
  EXPECT_NEAR(span_m / span_p, 1.0, 0.25);
}

TEST(ArrivalValidation, RejectsNonsense) {
  auto base = config_for(ArrivalShape::kPoisson);
  {
    auto c = base;
    c.rho = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = base;
    c.cluster_slots = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = base;
    c.shape = ArrivalShape::kMmpp;
    c.burst_rate_factor = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = base;
    c.shape = ArrivalShape::kMmpp;
    c.calm_mean = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = base;
    c.shape = ArrivalShape::kFlashCrowd;
    c.flash_fraction = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  // Plain comparisons let NaN through, and +inf through the lower bounds.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    {
      auto c = base;
      c.rho = bad;
      EXPECT_THROW(c.validate(), std::invalid_argument) << "rho " << bad;
    }
    {
      auto c = base;
      c.shape = ArrivalShape::kMmpp;
      c.burst_rate_factor = bad;
      EXPECT_THROW(c.validate(), std::invalid_argument) << "burst_rate_factor " << bad;
    }
    {
      auto c = base;
      c.shape = ArrivalShape::kFlashCrowd;
      c.flash_fraction = bad;
      EXPECT_THROW(c.validate(), std::invalid_argument) << "flash_fraction " << bad;
    }
  }
}

TEST(ArrivalValidation, EmptyWorkloadThrows) {
  std::vector<wf::WorkflowSpec> empty;
  EXPECT_THROW((void)mean_interarrival_ms(empty, config_for(ArrivalShape::kPoisson)),
               std::invalid_argument);
}

// ---- DeadlinePolicy degenerate shapes (regression) -------------------------
//
// The overload experiments pin arrivals with assign_open_loop_arrivals, so
// they run assign_deadlines in its degenerate corners: arrival_window == 0
// (arrivals fully delegated) and slack_lo == slack_hi (deterministic slack).
// Both are documented as well-defined; keep them that way.

TEST(DeadlinePolicyDegenerate, ZeroArrivalWindowSubmitsEverythingAtZero) {
  auto workflows = uniform_workload(8);
  DeadlinePolicy policy;
  policy.arrival_window = 0;
  EXPECT_NO_THROW(policy.validate());
  assign_deadlines(workflows, 5, policy);
  for (const auto& wf : workflows) {
    EXPECT_EQ(wf.submit_time, 0);
    EXPECT_GT(wf.relative_deadline, 0);
  }
}

TEST(DeadlinePolicyDegenerate, PinnedSlackIsSeedIndependent) {
  auto a = uniform_workload(8);
  auto b = uniform_workload(8);
  DeadlinePolicy policy;
  policy.slack_lo = policy.slack_hi = 1.5;
  EXPECT_NO_THROW(policy.validate());
  assign_deadlines(a, 5, policy);
  assign_deadlines(b, 99, policy);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The slack draw is pinned, so the deadline is a pure function of the
    // workflow's structure — the seed only moves the arrival.
    EXPECT_EQ(a[i].relative_deadline, b[i].relative_deadline) << "workflow " << i;
  }
}

}  // namespace
}  // namespace woha::trace
