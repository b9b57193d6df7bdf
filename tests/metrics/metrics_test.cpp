#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "metrics/grid.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "metrics/timeline.hpp"
#include "trace/paper_workloads.hpp"
#include "workflow/topology.hpp"

namespace woha::metrics {
namespace {

obs::Event ev(SimTime t, std::uint32_t wf, SlotType slot, bool started) {
  if (started) return {t, obs::TaskStarted{.workflow = wf, .slot = slot}};
  return {t, obs::TaskEnded{.workflow = wf, .slot = slot}};
}

TEST(Timeline, OccupancyStepFunction) {
  TimelineRecorder rec;
  rec.record(ev(0, 0, SlotType::kMap, true));
  rec.record(ev(5, 0, SlotType::kMap, true));
  rec.record(ev(10, 0, SlotType::kMap, false));
  rec.record(ev(20, 0, SlotType::kMap, false));
  rec.record({20, obs::HeartbeatServed{}});  // not a task event: ignored
  ASSERT_EQ(rec.event_count(), 4u);
  ASSERT_EQ(rec.workflow_count(), 1u);

  const auto samples = rec.sample(SlotType::kMap, 5);
  // t=0:1 started at 0 and 5 not yet... events with time <= t counted:
  // t=0 -> 1 running; t=5 -> 2; t=10 -> 1; t=15 -> 1; t=20 -> 0.
  ASSERT_GE(samples.size(), 5u);
  EXPECT_EQ(samples[0].counts[0], 1u);
  EXPECT_EQ(samples[1].counts[0], 2u);
  EXPECT_EQ(samples[2].counts[0], 1u);
  EXPECT_EQ(samples[3].counts[0], 1u);
  EXPECT_EQ(samples[4].counts[0], 0u);
}

TEST(Timeline, SeparatesSlotTypesAndWorkflows) {
  TimelineRecorder rec;
  rec.record(ev(0, 0, SlotType::kMap, true));
  rec.record(ev(0, 1, SlotType::kReduce, true));
  const auto maps = rec.sample(SlotType::kMap, 10);
  const auto reduces = rec.sample(SlotType::kReduce, 10);
  EXPECT_EQ(maps[0].counts[0], 1u);
  EXPECT_EQ(maps[0].counts[1], 0u);
  EXPECT_EQ(reduces[0].counts[0], 0u);
  EXPECT_EQ(reduces[0].counts[1], 1u);
}

TEST(Timeline, PeakOccupancy) {
  TimelineRecorder rec;
  for (int i = 0; i < 4; ++i) rec.record(ev(i, 0, SlotType::kMap, true));
  rec.record(ev(10, 0, SlotType::kMap, false));
  rec.record(ev(11, 0, SlotType::kMap, true));
  const auto peak = rec.peak_occupancy(SlotType::kMap);
  EXPECT_EQ(peak[0], 4u);
}

TEST(Timeline, BusySlotMsIntegratesArea) {
  TimelineRecorder rec;
  rec.record(ev(0, 0, SlotType::kMap, true));    // 1 slot from 0
  rec.record(ev(10, 0, SlotType::kMap, true));   // 2 slots from 10
  rec.record(ev(30, 0, SlotType::kMap, false));  // 1 slot from 30
  rec.record(ev(50, 0, SlotType::kMap, false));  // 0 from 50
  const auto area = rec.busy_slot_ms(SlotType::kMap);
  EXPECT_DOUBLE_EQ(area[0], 10.0 + 2 * 20.0 + 20.0);  // = 70
}

TEST(Timeline, NegativeOccupancyDetected) {
  TimelineRecorder rec;
  rec.record(ev(0, 0, SlotType::kMap, false));  // finish before start
  EXPECT_THROW((void)rec.peak_occupancy(SlotType::kMap), std::logic_error);
}

TEST(Timeline, CsvShape) {
  TimelineRecorder rec;
  rec.record(ev(0, 0, SlotType::kMap, true));
  rec.record(ev(2000, 1, SlotType::kMap, true));
  const std::string csv = rec.to_csv(SlotType::kMap, 1000);
  EXPECT_EQ(csv.substr(0, 14), "time_s,wf0,wf1");
}

TEST(Report, PaperSchedulersRosterMatchesFigureOrder) {
  const auto entries = paper_schedulers();
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_EQ(entries[0].label, "EDF");
  EXPECT_EQ(entries[1].label, "FIFO");
  EXPECT_EQ(entries[2].label, "Fair");
  EXPECT_EQ(entries[3].label, "WOHA-LPF");
  EXPECT_EQ(entries[4].label, "WOHA-HLF");
  EXPECT_EQ(entries[5].label, "WOHA-MPF");
  for (const auto& e : entries) {
    auto scheduler = e.make();
    ASSERT_NE(scheduler, nullptr);
  }
}

TEST(Report, RunExperimentProducesSummaryAndTimeline) {
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  const auto workload = trace::fig2_scenario(seconds(10));
  TimelineRecorder timeline;
  ObsHooks hooks;
  hooks.configure = [&timeline](hadoop::Engine& engine) {
    engine.events().subscribe([&timeline](const obs::Event& e) { timeline.record(e); });
  };
  const auto result = run_experiment(config, workload, paper_schedulers()[3], hooks);
  EXPECT_EQ(result.scheduler, "WOHA-LPF");
  EXPECT_EQ(result.summary.workflows.size(), 3u);
  EXPECT_GT(timeline.event_count(), 0u);
}

TEST(Report, FormatWorkflowResultsIsTabular) {
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  const auto result = run_experiment(config, trace::fig2_scenario(seconds(10)),
                                     paper_schedulers()[0]);
  const std::string table = format_workflow_results(result.summary);
  EXPECT_NE(table.find("workflow"), std::string::npos);
  EXPECT_NE(table.find("fig2-w1"), std::string::npos);
  EXPECT_NE(table.find("tardiness"), std::string::npos);
}

TEST(Sweep, RunsGridAndFormats) {
  hadoop::EngineConfig base;
  base.cluster.heartbeat_period = seconds(3);
  const std::vector<ClusterPoint> clusters{{"6m-6r", 6, 6}, {"12m-12r", 12, 12}};
  const auto workload = trace::fig2_scenario(seconds(30));
  // Two schedulers keep the test fast.
  std::vector<SchedulerEntry> entries{paper_schedulers()[0], paper_schedulers()[3]};
  const auto cells = sweep_cluster_sizes(base, workload, clusters, entries);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& c : cells) {
    EXPECT_GE(c.deadline_miss_ratio, 0.0);
    EXPECT_LE(c.deadline_miss_ratio, 1.0);
    EXPECT_GE(c.total_tardiness, c.max_tardiness >= 0 ? 0 : -1);
    EXPECT_GT(c.makespan, 0);
  }
  const std::string rendered = format_sweep(cells);
  EXPECT_NE(rendered.find("Deadline miss ratio (Fig. 8)"), std::string::npos);
  EXPECT_NE(rendered.find("6m-6r"), std::string::npos);
  EXPECT_NE(rendered.find("WOHA-LPF"), std::string::npos);
}

TEST(JobsKnob, ParseJobsAcceptsPlainDecimals) {
  // 0 is the documented "hardware concurrency" request, not an error.
  EXPECT_EQ(parse_jobs("0"), 0u);
  EXPECT_EQ(parse_jobs("1"), 1u);
  EXPECT_EQ(parse_jobs("8"), 8u);
  EXPECT_EQ(parse_jobs("4096"), kMaxJobs);
}

TEST(JobsKnob, ParseJobsRejectsEverythingElse) {
  // Regression: "--jobs -1" used to flow through strtoul, wrap to
  // ULONG_MAX, and ask ThreadPool for four billion workers; non-numeric
  // values silently became 0 (= hardware concurrency). Both must fail.
  for (const char* bad : {"", "-1", "-0", "+2", "2x", "x2", " 4", "4 ",
                          "1.5", "0x8", "4097", "99999999999999999999"}) {
    EXPECT_EQ(parse_jobs(bad), std::nullopt) << '"' << bad << '"';
  }
  EXPECT_EQ(parse_jobs(nullptr), std::nullopt);
}

TEST(JobsKnob, ParseDecimalHonoursBothBounds) {
  EXPECT_EQ(parse_decimal("1", 1, 10), 1u);
  EXPECT_EQ(parse_decimal("10", 1, 10), 10u);
  EXPECT_EQ(parse_decimal("0010", 1, 10), 10u);
  for (const char* bad : {"0", "00", "11", "-1", "5x", "4294967296", ""}) {
    EXPECT_EQ(parse_decimal(bad, 1, 10), std::nullopt) << '"' << bad << '"';
  }
  // The running value stops at max, so a 40-digit string cannot wrap.
  const std::uint64_t big = 1'000'000'000'000'000'000ULL;
  EXPECT_EQ(parse_decimal("1000000000000000000", 0, big), big);
  EXPECT_EQ(parse_decimal("1000000000000000001", 0, big), std::nullopt);
  EXPECT_EQ(parse_decimal("9999999999999999999999999999999999999999", 0, big),
            std::nullopt);
}

TEST(JobsKnob, JobsFromEnvParsesThrowsAndDefaults) {
  ASSERT_EQ(unsetenv("WOHA_JOBS"), 0);
  EXPECT_EQ(jobs_from_env(), 1u);  // absent = serial
  ASSERT_EQ(setenv("WOHA_JOBS", "", 1), 0);
  EXPECT_EQ(jobs_from_env(), 1u);  // empty = serial
  ASSERT_EQ(setenv("WOHA_JOBS", "6", 1), 0);
  EXPECT_EQ(jobs_from_env(), 6u);
  ASSERT_EQ(setenv("WOHA_JOBS", "0", 1), 0);
  EXPECT_EQ(jobs_from_env(), 0u);  // hardware concurrency, resolved later
  for (const char* bad : {"-1", "2x", "garbage"}) {
    ASSERT_EQ(setenv("WOHA_JOBS", bad, 1), 0);
    EXPECT_THROW((void)jobs_from_env(), std::invalid_argument) << '"' << bad << '"';
  }
  ASSERT_EQ(unsetenv("WOHA_JOBS"), 0);
}

TEST(Sweep, PaperClusterSizes) {
  const auto sizes = paper_cluster_sizes();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0].label, "200m-200r");
  EXPECT_EQ(sizes[2].map_slots, 280u);
}

}  // namespace
}  // namespace woha::metrics
