// The engine keeps each count once: its registry counters are the run's own
// tallies, added when run() returns, and its gauges are the levels at the
// end of the run. Two engines run one after the other on one registry, a
// chaos run that reaches every counter but admission.rejected and a
// feasibility-gated run that rejects; the registry must then hold the sum
// of the two RunSummary tallies, the counts the bus delivered, and the
// second engine's end-of-run levels. The same runs, under FIFO and WOHA,
// must write no log line that restates an event.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/log.hpp"
#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "obs/metrics_registry.hpp"
#include "sched/fifo_scheduler.hpp"
#include "trace/arrivals.hpp"
#include "trace/deadlines.hpp"
#include "workflow/topology.hpp"

namespace woha::hadoop {
namespace {

/// Every counter the engine adds to a registry, and the RunSummary field
/// that holds the same tally.
struct CounterField {
  const char* name;
  std::uint64_t RunSummary::*field;
};
constexpr CounterField kCounters[] = {
    {"engine.heartbeats", &RunSummary::heartbeats},
    {"engine.tasks_started", &RunSummary::tasks_executed},
    {"engine.tasks_finished", &RunSummary::tasks_finished},
    {"engine.tasks_failed", &RunSummary::tasks_failed},
    {"engine.attempts_killed", &RunSummary::attempts_killed},
    {"engine.tracker_crashes", &RunSummary::tracker_crashes},
    {"engine.speculative_launched", &RunSummary::speculative_launched},
    {"admission.rejected", &RunSummary::workflows_rejected},
    {"shed.workflows", &RunSummary::workflows_shed},
    {"cluster.decommissions", &RunSummary::tracker_decommissions},
    {"cluster.preemptions", &RunSummary::tracker_preemptions},
    {"cluster.joins", &RunSummary::trackers_joined},
};

/// Crashes, injected failures, blacklisting, speculation, shedding, a
/// decommission, a preemption wave and a join, on 20 diamonds arriving
/// past saturation.
EngineConfig chaos_config() {
  EngineConfig config;
  config.cluster.num_trackers = 10;
  config.seed = 7;
  config.duration_jitter_sigma = 0.6;
  config.task_failure_prob = 0.2;
  config.faults.max_attempts = 3;
  config.faults.blacklist_task_failures = 1;
  config.faults.tracker_mtbf = 900.0 * 1000.0;
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(180);
  config.faults.speculative_execution = true;
  config.faults.speculative_min_runtime = seconds(20);
  config.admission.policy = AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 4;
  config.elasticity.decommissions.push_back({2, minutes(10), seconds(30)});
  config.elasticity.preemption_waves.push_back({minutes(18), 2, seconds(30)});
  config.elasticity.joins.push_back({minutes(12), 2});
  config.horizon = hours(4);  // about 5x the run's 48 simulated minutes
  return config;
}

std::vector<wf::WorkflowSpec> chaos_workload() {
  std::vector<wf::WorkflowSpec> workflows;
  for (std::uint32_t i = 0; i < 20; ++i) {
    auto spec = wf::diamond(2 + i % 3);
    spec.name = "wf" + std::to_string(i);
    workflows.push_back(std::move(spec));
  }
  trace::DeadlinePolicy deadlines;
  deadlines.reference_cap = 12;
  deadlines.slack_lo = 1.1;
  deadlines.slack_hi = 4.0;
  trace::assign_deadlines(workflows, 15, deadlines);
  trace::ArrivalConfig arrivals;
  arrivals.rho = 1.2;
  arrivals.cluster_slots = 30;
  trace::assign_open_loop_arrivals(workflows, 14, arrivals);
  return workflows;
}

/// Six overlapping one-job workflows, every other one with a deadline no
/// schedule can meet. The last one is admitted while the others still run.
std::vector<wf::WorkflowSpec> infeasible_workload() {
  std::vector<wf::WorkflowSpec> workflows;
  for (std::uint32_t i = 0; i < 6; ++i) {
    wf::WorkflowSpec spec;
    spec.name = "wf" + std::to_string(i);
    wf::JobSpec job;
    job.name = "only";
    job.num_maps = 4;
    job.num_reduces = 2;
    job.map_duration = seconds(60);
    job.reduce_duration = seconds(60);
    spec.jobs.push_back(job);
    spec.submit_time = i * seconds(5);
    spec.relative_deadline = i % 2 == 0 ? seconds(10) : minutes(30);
    workflows.push_back(std::move(spec));
  }
  return workflows;
}

EngineConfig infeasible_config() {
  EngineConfig config;
  config.cluster.num_trackers = 4;
  config.admission.policy = AdmissionPolicy::kRejectInfeasible;
  config.horizon = hours(1);
  return config;
}

/// What the bus delivered during one run.
struct BusTally {
  std::uint64_t heartbeats = 0;
  std::uint64_t finishes = 0;  ///< TaskEnded neither failed nor killed
};

TEST(EngineMetrics, RegistryHoldsTheRunsTallies) {
  obs::MetricsRegistry registry;
  RunSummary total;
  BusTally bus;
  std::unique_ptr<Engine> last;
  const std::pair<EngineConfig, std::vector<wf::WorkflowSpec>> runs[] = {
      {chaos_config(), chaos_workload()},
      {infeasible_config(), infeasible_workload()},
  };
  for (const auto& [config, workload] : runs) {
    last = std::make_unique<Engine>(config, std::make_unique<sched::FifoScheduler>());
    last->set_metrics_registry(&registry);
    last->events().subscribe([&bus](const obs::Event& e) {
      bus.heartbeats += std::holds_alternative<obs::HeartbeatServed>(e.payload);
      if (const auto* f = std::get_if<obs::TaskEnded>(&e.payload)) {
        bus.finishes += !f->failed && !f->killed;
      }
    });
    for (const auto& spec : workload) last->submit(spec);
    last->run();
    const RunSummary s = last->summarize();
    for (const CounterField& c : kCounters) total.*c.field += s.*c.field;
  }

  for (const CounterField& c : kCounters) {
    const obs::Counter* counter = registry.find_counter(c.name);
    ASSERT_NE(counter, nullptr) << c.name;
    EXPECT_EQ(counter->value(), total.*c.field) << c.name;
    EXPECT_GT(counter->value(), 0u) << c.name << " is not covered";
  }
  EXPECT_EQ(registry.find_counter("engine.heartbeats")->value(), bus.heartbeats);
  EXPECT_EQ(registry.find_counter("engine.tasks_finished")->value(), bus.finishes);

  const auto gauge = [&registry](const char* name) {
    const obs::Gauge* g = registry.find_gauge(name);
    EXPECT_NE(g, nullptr) << name;
    return g == nullptr ? -1.0 : g->value();
  };
  EXPECT_EQ(gauge("cluster.free_map_slots"), last->cluster().total_free(SlotType::kMap));
  EXPECT_EQ(gauge("cluster.free_reduce_slots"),
            last->cluster().total_free(SlotType::kReduce));
  EXPECT_EQ(gauge("overload.pending"), last->job_tracker().active_workflows());
  EXPECT_EQ(gauge("overload.pending_peak"), last->summarize().pending_peak);
}

/// Captures every log line, at every level, while alive.
struct LogCapture {
  std::vector<std::string> lines;
  LogLevel level_before = log_level();
  LogSink sink_before = set_log_sink(
      [this](LogLevel, const std::string& component, const std::string& message) {
        lines.push_back(component + ": " + message);
      });
  LogCapture() { set_log_level(LogLevel::kTrace); }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;
  ~LogCapture() {
    set_log_sink(std::move(sink_before));
    set_log_level(level_before);
  }
};

// A run's facts are reported on the bus. The log carries only what no event
// does; on these runs that is the per-job blacklisting, once per tally.
TEST(EngineLog, WritesNoLineThatAnEventCarries) {
  const std::pair<EngineConfig, std::vector<wf::WorkflowSpec>> runs[] = {
      {chaos_config(), chaos_workload()},
      {infeasible_config(), infeasible_workload()},
  };
  const LogCapture capture;
  std::uint64_t blacklistings = 0;
  for (const bool woha : {false, true}) {
    for (const auto& [config, workload] : runs) {
      std::unique_ptr<WorkflowScheduler> scheduler;
      if (woha) {
        scheduler = std::make_unique<core::WohaScheduler>();
      } else {
        scheduler = std::make_unique<sched::FifoScheduler>();
      }
      Engine engine(config, std::move(scheduler));
      for (const auto& spec : workload) engine.submit(spec);
      engine.run();
      blacklistings += engine.summarize().blacklistings;
    }
  }
  EXPECT_GT(blacklistings, 0u);
  EXPECT_EQ(capture.lines.size(), blacklistings);
  for (const std::string& line : capture.lines) {
    ASSERT_NE(line.find(" blacklisted for job "), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace woha::hadoop
