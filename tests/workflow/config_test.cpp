#include "workflow/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "workflow/topology.hpp"

namespace woha::wf {
namespace {

constexpr const char* kSample = R"(<?xml version="1.0"?>
<workflow name="user-log-analysis" deadline="80min" submit="5min">
  <job name="fetch" maps="40" reduces="6" map-duration="80s" reduce-duration="150s"/>
  <job name="parse" maps="20" reduces="4">
    <depends on="fetch"/>
  </job>
  <job name="report" maps="8" reduces="2" map-duration="50s" reduce-duration="120s">
    <depends on="parse"/>
    <depends on="fetch"/>
  </job>
</workflow>)";

TEST(Config, LoadsFullSchema) {
  const auto spec = load_workflow_string(kSample);
  EXPECT_EQ(spec.name, "user-log-analysis");
  EXPECT_EQ(spec.relative_deadline, minutes(80));
  EXPECT_EQ(spec.submit_time, minutes(5));
  ASSERT_EQ(spec.jobs.size(), 3u);

  EXPECT_EQ(spec.jobs[0].name, "fetch");
  EXPECT_EQ(spec.jobs[0].num_maps, 40u);
  EXPECT_EQ(spec.jobs[0].num_reduces, 6u);
  EXPECT_EQ(spec.jobs[0].map_duration, seconds(80));
  EXPECT_EQ(spec.jobs[0].reduce_duration, seconds(150));
  EXPECT_TRUE(spec.jobs[0].prerequisites.empty());

  // Defaults applied when attributes omitted.
  EXPECT_EQ(spec.jobs[1].map_duration, seconds(60));
  EXPECT_EQ(spec.jobs[1].reduce_duration, seconds(120));
  EXPECT_EQ(spec.jobs[1].prerequisites, (std::vector<std::uint32_t>{0}));

  EXPECT_EQ(spec.jobs[2].prerequisites, (std::vector<std::uint32_t>{1, 0}));
}

TEST(Config, RoundTripPreservesSpec) {
  auto original = paper_fig7_topology();
  original.relative_deadline = minutes(80);
  original.submit_time = minutes(10);
  const auto reloaded = load_workflow_string(save_workflow(original));
  EXPECT_EQ(reloaded.name, original.name);
  EXPECT_EQ(reloaded.relative_deadline, original.relative_deadline);
  EXPECT_EQ(reloaded.submit_time, original.submit_time);
  ASSERT_EQ(reloaded.jobs.size(), original.jobs.size());
  for (std::size_t j = 0; j < original.jobs.size(); ++j) {
    EXPECT_EQ(reloaded.jobs[j].name, original.jobs[j].name);
    EXPECT_EQ(reloaded.jobs[j].num_maps, original.jobs[j].num_maps);
    EXPECT_EQ(reloaded.jobs[j].num_reduces, original.jobs[j].num_reduces);
    EXPECT_EQ(reloaded.jobs[j].map_duration, original.jobs[j].map_duration);
    EXPECT_EQ(reloaded.jobs[j].reduce_duration, original.jobs[j].reduce_duration);
    // Order of <depends> children preserves prerequisite order.
    EXPECT_EQ(reloaded.jobs[j].prerequisites, original.jobs[j].prerequisites);
  }
}

TEST(Config, RejectsWrongRootElement) {
  EXPECT_THROW((void)load_workflow_string("<jobs/>"), std::invalid_argument);
}

TEST(Config, RejectsNoJobs) {
  EXPECT_THROW((void)load_workflow_string("<workflow name='w'/>"),
               std::invalid_argument);
}

TEST(Config, RejectsDuplicateJobNames) {
  EXPECT_THROW((void)load_workflow_string(
                   "<workflow><job name='a'/><job name='a'/></workflow>"),
               std::invalid_argument);
}

TEST(Config, RejectsUnknownDependency) {
  EXPECT_THROW((void)load_workflow_string(
                   "<workflow><job name='a'><depends on='ghost'/></job></workflow>"),
               std::invalid_argument);
}

TEST(Config, RejectsCyclicConfig) {
  EXPECT_THROW(
      (void)load_workflow_string("<workflow>"
                                 "<job name='a'><depends on='b'/></job>"
                                 "<job name='b'><depends on='a'/></job>"
                                 "</workflow>"),
      std::invalid_argument);
}

TEST(Config, JobNameRequired) {
  EXPECT_THROW((void)load_workflow_string("<workflow><job maps='1'/></workflow>"),
               xml::XmlError);
}

// A count that does not fit the uint32 field must not wrap: -1 would load as
// 4,294,967,295 maps and 4294967297 as one reduce.
TEST(Config, RejectsTaskCountsOutsideUint32) {
  const auto load = [](const std::string& attrs) {
    return load_workflow_string("<workflow><job name='a' " + attrs + "/></workflow>");
  };
  const std::pair<std::string, std::string> bad[] = {
      {"maps='-1'", "maps"},
      {"reduces='-1'", "reduces"},
      {"maps='4294967296'", "maps"},
      {"maps='1' reduces='4294967297'", "reduces"},
  };
  for (const auto& [attrs, attribute] : bad) {
    try {
      (void)load(attrs);
      ADD_FAILURE() << attrs << " loaded";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("job 'a'"), std::string::npos) << message;
      EXPECT_NE(message.find(attribute + "="), std::string::npos) << message;
    }
  }
  EXPECT_EQ(load("maps='4294967295'").jobs[0].num_maps, 4294967295u);
}

// Times must fit SimTime, and so must the absolute deadline submit +
// deadline: these loaded as submit -2^63 ms and as a deadline of -7.6e18 ms.
TEST(Config, RejectsTimesOutsideSimTime) {
  const auto load = [](const std::string& attrs) {
    return load_workflow_string("<workflow " + attrs + "><job name='a'/></workflow>");
  };
  EXPECT_THROW((void)load("submit='99999999999999999999h'"), std::invalid_argument);
  EXPECT_THROW((void)load("deadline='99999999999999999999h'"), std::invalid_argument);
  EXPECT_THROW((void)load("submit='2000000000000h' deadline='1000000000000h'"),
               std::invalid_argument);
  const WorkflowSpec far = load("submit='2000000000000h'");
  EXPECT_EQ(far.deadline(), kTimeInfinity);
  EXPECT_EQ(load("submit='1000000000000h' deadline='1000000000000h'").deadline(),
            2'000'000'000'000LL * 3'600'000);
}

TEST(Config, UnnamedWorkflowGetsDefaultName) {
  const auto spec = load_workflow_string("<workflow><job name='a'/></workflow>");
  EXPECT_EQ(spec.name, "unnamed-workflow");
  EXPECT_EQ(spec.relative_deadline, 0);
  EXPECT_EQ(spec.deadline(), kTimeInfinity);
}

}  // namespace
}  // namespace woha::wf
