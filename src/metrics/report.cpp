#include "metrics/report.hpp"

#include <chrono>
#include <optional>

#include "audit/invariant_auditor.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/woha_scheduler.hpp"
#include "metrics/grid.hpp"
#include "sched/decomposed_edf_scheduler.hpp"
#include "sched/edf_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"

namespace woha::metrics {

namespace {

SchedulerEntry woha_entry(core::JobPriorityPolicy policy,
                          unsigned plan_jobs = 1) {
  return SchedulerEntry{
      std::string("WOHA-") + core::to_string(policy), [policy, plan_jobs]() {
        core::WohaConfig config;
        config.job_priority = policy;
        config.plan_jobs = plan_jobs;
        return std::make_unique<core::WohaScheduler>(config);
      }};
}

}  // namespace

std::vector<SchedulerEntry> baseline_schedulers() {
  return {
      {"EDF", []() { return std::make_unique<sched::EdfScheduler>(); }},
      {"FIFO", []() { return std::make_unique<sched::FifoScheduler>(); }},
      {"Fair", []() { return std::make_unique<sched::FairScheduler>(); }},
  };
}

std::vector<SchedulerEntry> paper_schedulers() { return paper_schedulers(1); }

std::vector<SchedulerEntry> paper_schedulers(unsigned plan_jobs) {
  auto entries = baseline_schedulers();
  entries.push_back(woha_entry(core::JobPriorityPolicy::kLpf, plan_jobs));
  entries.push_back(woha_entry(core::JobPriorityPolicy::kHlf, plan_jobs));
  entries.push_back(woha_entry(core::JobPriorityPolicy::kMpf, plan_jobs));
  return entries;
}

std::vector<SchedulerEntry> extended_schedulers() { return extended_schedulers(1); }

std::vector<SchedulerEntry> extended_schedulers(unsigned plan_jobs) {
  auto entries = paper_schedulers(plan_jobs);
  entries.push_back(SchedulerEntry{
      "EDF-JOB", []() { return std::make_unique<sched::DecomposedEdfScheduler>(); }});
  return entries;
}

ExperimentResult run_experiment(const hadoop::EngineConfig& config,
                                const std::vector<wf::WorkflowSpec>& workload,
                                const SchedulerEntry& scheduler,
                                const ObsHooks& hooks) {
  const auto t0 = std::chrono::steady_clock::now();
  hadoop::Engine engine(config, scheduler.make());
  if (hooks.registry) engine.set_metrics_registry(hooks.registry);
  if (hooks.configure) hooks.configure(engine);
  // The auditor subscribes last so exporters see each event before any
  // audit check can throw on it; subscription order never affects results
  // (the bus is synchronous and side-effect-free toward the engine).
  std::optional<audit::InvariantAuditor> auditor;
  if (config.audit) auditor.emplace(engine);
  for (const auto& spec : workload) engine.submit(spec);
  engine.run();
  if (auditor) auditor->full_sweep();
  ExperimentResult result{scheduler.label, engine.summarize(), 0.0};
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

std::vector<ExperimentResult> run_comparison(
    const hadoop::EngineConfig& config,
    const std::vector<wf::WorkflowSpec>& workload,
    const std::vector<SchedulerEntry>& entries, const ObsHooks& hooks,
    unsigned jobs) {
  std::vector<GridPoint> points;
  points.reserve(entries.size());
  for (const auto& entry : entries) {
    points.push_back(GridPoint{config, &workload, entry});
  }
  GridOptions options;
  options.jobs = jobs;
  return run_grid(points, options, hooks);
}

std::string format_workflow_results(const hadoop::RunSummary& summary) {
  TextTable table({"workflow", "submit", "deadline", "finish", "workspan",
                   "tardiness", "met"});
  for (const auto& r : summary.workflows) {
    table.add_row({
        r.name,
        format_duration(r.submit_time),
        r.deadline == kTimeInfinity ? "-" : format_duration(r.deadline),
        r.failed ? "FAILED"
                 : (r.finish_time < 0 ? "unfinished" : format_duration(r.finish_time)),
        r.workspan < 0 ? "-" : format_duration(r.workspan),
        format_duration(r.tardiness),
        r.met_deadline ? "yes" : "NO",
    });
  }
  return table.to_string();
}

}  // namespace woha::metrics
