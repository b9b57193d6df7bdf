// Observability demo: run a multi-workflow WOHA experiment with node churn
// and export everything the event bus saw.
//
// Produces, in the current directory (or the directory given as argv[1]):
//   trace.json   — Chrome trace_event JSON; open at https://ui.perfetto.dev
//                  or chrome://tracing. One process per TaskTracker with a
//                  lane per slot, plus master tracks for workflow lifecycle
//                  and scheduler decisions (with top-k queue ranking).
//   events.jsonl — the same event stream as one JSON object per line.
//   metrics.json — the metrics registry snapshot (engine latency histograms,
//                  task/fault counters, slot gauges).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "metrics/report.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/paper_workloads.hpp"

using namespace woha;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? std::string(argv[1]) + "/" : std::string();

  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  // Deterministic churn: two mid-run outages, one long enough that the
  // lease expires and the node's tasks are re-queued, plus recovery
  // machinery so the trace shows kills, re-execution, and speculation.
  config.faults.events = {
      {.tracker = 3, .crash_time = minutes(10), .restart_time = minutes(14)},
      {.tracker = 11, .crash_time = minutes(25), .restart_time = minutes(40)},
  };
  config.faults.expiry_interval = minutes(2);
  config.faults.max_attempts = 8;
  config.faults.blacklist_task_failures = 3;
  config.faults.speculative_execution = true;

  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());

  obs::MetricsRegistry registry;
  engine.set_metrics_registry(&registry);

  std::ofstream trace_out(dir + "trace.json");
  std::ofstream jsonl_out(dir + "events.jsonl");
  if (!trace_out || !jsonl_out) {
    std::fprintf(stderr, "cannot open output files in '%s'\n", dir.c_str());
    return 1;
  }
  obs::ChromeTraceExporter chrome(engine.events(), trace_out);
  obs::JsonlExporter jsonl(engine.events(), jsonl_out);

  for (const auto& spec : trace::fig11_scenario()) engine.submit(spec);
  engine.run();

  chrome.finish();
  const auto summary = engine.summarize();
  std::printf("%s\n", metrics::format_workflow_results(summary).c_str());

  std::ofstream metrics_out(dir + "metrics.json");
  metrics_out << registry.to_json() << "\n";

  std::printf("wrote %strace.json (%llu trace events) — open at https://ui.perfetto.dev\n",
              dir.c_str(), static_cast<unsigned long long>(chrome.events_written()));
  std::printf("wrote %sevents.jsonl (%llu lines)\n", dir.c_str(),
              static_cast<unsigned long long>(jsonl.lines_written()));
  std::printf("wrote %smetrics.json\n", dir.c_str());
  return 0;
}
