// The observability layer's hardest requirement: attaching the event bus,
// the metrics registry, and every exporter must not perturb the simulation.
// Three runs of the same workload — bus idle, bus with a subscriber +
// registry, bus with all exporters — must produce bit-identical
// run summaries AND leave the engine RNG in the bit-identical state (so not
// a single extra random draw happened anywhere).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <variant>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/paper_workloads.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

enum class Obs { kOff, kSubscribed, kFullExport };

struct RunOutput {
  hadoop::RunSummary summary;
  std::array<std::uint64_t, 5> rng_state;
};

RunOutput run(const hadoop::EngineConfig& config,
              const std::vector<wf::WorkflowSpec>& workload, Obs mode) {
  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());

  obs::MetricsRegistry registry;
  std::ostringstream trace_out, jsonl_out;
  std::unique_ptr<obs::ChromeTraceExporter> chrome;
  std::unique_ptr<obs::JsonlExporter> jsonl;
  std::uint64_t decisions_seen = 0;

  if (mode != Obs::kOff) {
    engine.set_metrics_registry(&registry);
    engine.events().subscribe([&decisions_seen](const obs::Event& e) {
      decisions_seen += std::holds_alternative<obs::SchedulerDecision>(e.payload);
    });
  }
  if (mode == Obs::kFullExport) {
    chrome = std::make_unique<obs::ChromeTraceExporter>(engine.events(), trace_out);
    jsonl = std::make_unique<obs::JsonlExporter>(engine.events(), jsonl_out);
  }

  for (const auto& spec : workload) engine.submit(spec);
  engine.run();

  if (mode != Obs::kOff) {
    // The instrumentation genuinely ran — otherwise this test silently
    // degrades into plain determinism.
    EXPECT_GT(decisions_seen, 0u);
    EXPECT_GT(registry.counter("engine.heartbeats").value(), 0u);
  }
  return RunOutput{engine.summarize(), engine.rng_state()};
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.rng_state, b.rng_state);  // not one extra draw anywhere
  ASSERT_EQ(a.summary.workflows.size(), b.summary.workflows.size());
  for (std::size_t i = 0; i < a.summary.workflows.size(); ++i) {
    const auto& wa = a.summary.workflows[i];
    const auto& wb = b.summary.workflows[i];
    EXPECT_EQ(wa.finish_time, wb.finish_time) << "workflow " << i;
    EXPECT_EQ(wa.workspan, wb.workspan) << "workflow " << i;
    EXPECT_EQ(wa.tardiness, wb.tardiness) << "workflow " << i;
    EXPECT_EQ(wa.met_deadline, wb.met_deadline) << "workflow " << i;
    EXPECT_EQ(wa.failed, wb.failed) << "workflow " << i;
  }
  EXPECT_EQ(a.summary.makespan, b.summary.makespan);
  EXPECT_EQ(a.summary.events_fired, b.summary.events_fired);
  EXPECT_EQ(a.summary.select_calls, b.summary.select_calls);
  EXPECT_EQ(a.summary.tasks_executed, b.summary.tasks_executed);
  EXPECT_EQ(a.summary.tasks_failed, b.summary.tasks_failed);
  EXPECT_EQ(a.summary.tracker_crashes, b.summary.tracker_crashes);
  EXPECT_EQ(a.summary.attempts_killed, b.summary.attempts_killed);
  EXPECT_EQ(a.summary.map_outputs_lost, b.summary.map_outputs_lost);
  EXPECT_EQ(a.summary.speculative_launched, b.summary.speculative_launched);
  EXPECT_EQ(a.summary.speculative_won, b.summary.speculative_won);
  EXPECT_EQ(a.summary.blacklistings, b.summary.blacklistings);
  EXPECT_DOUBLE_EQ(a.summary.overall_utilization, b.summary.overall_utilization);
  EXPECT_DOUBLE_EQ(a.summary.map_locality_ratio, b.summary.map_locality_ratio);
}

// Chaos config: every stochastic engine feature on at once, so any RNG
// perturbation by the observability layer has maximal surface to show up.
hadoop::EngineConfig chaos_config() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 6;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(3);
  config.seed = 42;
  config.duration_jitter_sigma = 0.3;
  config.task_failure_prob = 0.05;
  config.remote_map_penalty = 1.3;
  config.faults.tracker_mtbf = 400.0 * 1000.0;
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(120);
  config.faults.max_attempts = 25;
  config.faults.blacklist_task_failures = 3;
  config.faults.speculative_execution = true;
  return config;
}

std::vector<wf::WorkflowSpec> chaos_workload() {
  std::vector<wf::WorkflowSpec> out;
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.submit_time = i * seconds(30);
    spec.relative_deadline = minutes(40);
    out.push_back(spec);
  }
  return out;
}

TEST(ObservabilityDeterminism, ChaosRunUnchangedByObservers) {
  const auto config = chaos_config();
  const auto workload = chaos_workload();
  const auto off = run(config, workload, Obs::kOff);
  const auto subscribed = run(config, workload, Obs::kSubscribed);
  const auto exported = run(config, workload, Obs::kFullExport);

  // The chaos paths must actually fire for the comparison to mean anything.
  EXPECT_GT(off.summary.tracker_crashes, 0u);
  EXPECT_GT(off.summary.attempts_killed, 0u);
  EXPECT_GT(off.summary.tasks_failed, 0u);

  expect_identical(off, subscribed);
  expect_identical(off, exported);
}

// The paper's Fig. 8 trace (46 Yahoo-like workflows) at a contended cluster
// size: the realistic workload shape, jitter on, no node faults.
TEST(ObservabilityDeterminism, Fig8TraceUnchangedByObservers) {
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::with_totals(200, 200);
  const auto workload = trace::fig8_trace(42);

  const auto off = run(config, workload, Obs::kOff);
  const auto exported = run(config, workload, Obs::kFullExport);
  expect_identical(off, exported);
}

}  // namespace
}  // namespace woha
