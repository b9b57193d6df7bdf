// Exporter tests: JSONL line format, Chrome trace structural validity
// (balanced B/E slices, metadata before use), and subscription lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "workflow/topology.hpp"

namespace woha::obs {
namespace {

TEST(JsonlExport, LineFormat) {
  Event e;
  e.time = 123000;
  e.payload = TaskStarted{.attempt = 7,
                          .workflow = 2,
                          .job = 1,
                          .slot = SlotType::kMap,
                          .tracker = 4,
                          .scheduled_duration = 60000,
                          .speculative = false};
  EXPECT_EQ(event_to_json(e),
            R"({"t":123000,"type":"task-started","attempt":7,"workflow":2,)"
            R"("job":1,"slot":"map","tracker":4,"scheduled_duration":60000})");
}

TEST(JsonlExport, OptionalFieldsOnlyWhenSet) {
  Event e;
  e.time = 1;
  e.payload = TaskEnded{.attempt = 1,
                        .workflow = 0,
                        .job = 0,
                        .slot = SlotType::kReduce,
                        .tracker = 0,
                        .failed = false,
                        .killed = true,
                        .speculative = true,
                        .ran_for = 500};
  const std::string line = event_to_json(e);
  EXPECT_NE(line.find(R"("killed":true)"), std::string::npos);
  EXPECT_NE(line.find(R"("speculative":true)"), std::string::npos);
  EXPECT_EQ(line.find("failed"), std::string::npos);
}

TEST(JsonlExport, EscapesStrings) {
  Event e;
  e.time = 0;
  e.payload = WorkflowRejected{0, "a \"quoted\"\nline", kTimeInfinity, "infeasible"};
  const std::string line = event_to_json(e);
  EXPECT_NE(line.find(R"(a \"quoted\"\nline)"), std::string::npos);
}

TEST(JsonlExport, ExporterSubscribesAndUnsubscribes) {
  EventBus bus;
  std::ostringstream out;
  {
    JsonlExporter exporter(bus, out);
    EXPECT_TRUE(bus.active());
    bus.publish(SimTime{10}, WorkflowFailed{3});
    bus.publish(SimTime{20}, TrackerRestarted{1});
    EXPECT_EQ(exporter.lines_written(), 2u);
  }
  EXPECT_FALSE(bus.active());  // destructor detached
  const std::string text = out.str();
  EXPECT_EQ(text,
            "{\"t\":10,\"type\":\"workflow-failed\",\"workflow\":3}\n"
            "{\"t\":20,\"type\":\"tracker-restarted\",\"tracker\":1}\n");
}

// Run a small real experiment through both exporters and check the Chrome
// document's structure: it must be a single {"traceEvents":[...]} object
// whose B and E slices pair up exactly.
TEST(ChromeExport, SlicesBalanceOnRealRun) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 4;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.faults.events = {{.tracker = 1,
                           .crash_time = minutes(2),
                           .restart_time = minutes(5)}};
  config.faults.expiry_interval = minutes(1);
  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());

  std::ostringstream trace;
  ChromeTraceExporter exporter(engine.events(), trace);

  for (std::uint32_t i = 0; i < 3; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.relative_deadline = minutes(45);
    engine.submit(spec);
  }
  engine.run();
  exporter.finish();
  exporter.finish();  // idempotent

  const std::string doc = trace.str();
  ASSERT_GT(exporter.events_written(), 0u);
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");

  std::size_t begins = 0, ends = 0, crashes = 0;
  for (std::size_t pos = 0; (pos = doc.find("\"ph\":\"B\"", pos)) != std::string::npos;
       ++pos)
    ++begins;
  for (std::size_t pos = 0; (pos = doc.find("\"ph\":\"E\"", pos)) != std::string::npos;
       ++pos)
    ++ends;
  for (std::size_t pos = 0; (pos = doc.find("\"CRASH\"", pos)) != std::string::npos;
       ++pos)
    ++crashes;
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);  // every attempt slice closed
  EXPECT_EQ(crashes, 1u);
}

TEST(JsonlExport, KillCauseSerializedOnlyWhenKilled) {
  Event e;
  e.time = 9;
  e.payload = TaskEnded{.attempt = 3,
                        .workflow = 1,
                        .job = 0,
                        .slot = SlotType::kMap,
                        .tracker = 2,
                        .failed = false,
                        .killed = true,
                        .speculative = false,
                        .ran_for = 1200,
                        .cause = KillCause::kNodeLoss};
  EXPECT_NE(event_to_json(e).find(R"("cause":"node-loss")"), std::string::npos);

  // A clean finish never carries a cause, even if the field were set.
  std::get<TaskEnded>(e.payload).killed = false;
  std::get<TaskEnded>(e.payload).cause = KillCause::kNone;
  EXPECT_EQ(event_to_json(e).find("cause"), std::string::npos);
}

// Empty run: both exporters must still produce schema-complete output —
// zero JSONL lines and a well-formed Chrome document with an empty array.
TEST(JsonlExport, EmptyRunAndPostCloseFlushesAreAccounted) {
  EventBus bus;
  std::ostringstream out;
  JsonlExporter exporter(bus, out);
  exporter.close();
  EXPECT_TRUE(exporter.closed());
  EXPECT_EQ(out.str(), "");  // zero events -> zero lines, valid JSONL

  // Events published after close() must not corrupt the (already final)
  // output, and must not vanish silently: the drop counter owns them.
  bus.publish(SimTime{5}, WorkflowFailed{1});
  bus.publish(SimTime{6}, TrackerRestarted{0});
  EXPECT_EQ(exporter.lines_written(), 0u);
  EXPECT_EQ(exporter.dropped_after_close(), 2u);
  EXPECT_EQ(out.str(), "");
}

TEST(ChromeExport, EmptyRunAndPostFinishFlushesAreAccounted) {
  EventBus bus;
  std::ostringstream out;
  ChromeTraceExporter exporter(bus, out);
  exporter.finish();
  EXPECT_TRUE(exporter.finished());
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");

  bus.publish(SimTime{7}, TrackerRestarted{2});
  EXPECT_EQ(exporter.events_dropped(), 1u);
  // The document is still exactly the finished one — no trailing garbage.
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

// With a prerequisites callback the exporter adds job X-slices plus DAG
// flow arrows; every flow start ("ph":"s") has a matching finish ("ph":"f").
TEST(ChromeExport, JobSpansAndDagFlowEvents) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 4;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());

  auto spec = wf::diamond(3);
  spec.name = "flows";
  spec.relative_deadline = minutes(45);

  std::ostringstream trace;
  ChromeTraceOptions options;
  options.prerequisites = [&spec](std::uint32_t, std::uint32_t job) {
    return spec.jobs[job].prerequisites;
  };
  ChromeTraceExporter exporter(engine.events(), trace, options);

  engine.submit(spec);
  engine.run();
  exporter.finish();

  const std::string doc = trace.str();
  std::size_t starts = 0, finishes = 0, complete = 0;
  for (std::size_t pos = 0; (pos = doc.find("\"ph\":\"s\"", pos)) != std::string::npos;
       ++pos)
    ++starts;
  for (std::size_t pos = 0; (pos = doc.find("\"ph\":\"f\"", pos)) != std::string::npos;
       ++pos)
    ++finishes;
  for (std::size_t pos = 0; (pos = doc.find("\"ph\":\"X\"", pos)) != std::string::npos;
       ++pos)
    ++complete;
  // diamond(3): source -> 3 middle jobs -> sink = 6 DAG edges, one flow
  // arrow (s/f pair) each.
  EXPECT_EQ(starts, 6u);
  EXPECT_EQ(finishes, 6u);
  EXPECT_GE(complete, spec.jobs.size());  // one X-slice per completed job
}

}  // namespace
}  // namespace woha::obs
