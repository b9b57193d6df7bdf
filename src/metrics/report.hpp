// Experiment harness shared by benches, examples, and integration tests:
// the roster of the paper's six schedulers and a one-call "run this workload
// under this scheduler" helper.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hadoop/engine.hpp"

namespace woha::metrics {

using SchedulerFactory = std::function<std::unique_ptr<hadoop::WorkflowScheduler>()>;

struct SchedulerEntry {
  std::string label;
  SchedulerFactory make;
};

/// The six schedulers of the paper's evaluation, in its figure order:
/// EDF, FIFO, Fair, WOHA-LPF, WOHA-HLF, WOHA-MPF (WOHA with the
/// min-feasible resource cap and the Double Skip List queue).
[[nodiscard]] std::vector<SchedulerEntry> paper_schedulers();

/// Same roster with the WOHA entries configured for the pre-run parallel
/// plan prewarm (WohaConfig::plan_jobs; 1 = serial, 0 = hardware
/// concurrency). Bit-identical results at any value — the knob only moves
/// plan generation off the critical path.
[[nodiscard]] std::vector<SchedulerEntry> paper_schedulers(unsigned plan_jobs);

/// Just the three baselines (EDF, FIFO, Fair).
[[nodiscard]] std::vector<SchedulerEntry> baseline_schedulers();

/// The paper roster plus schedulers this repo adds beyond the paper
/// (job-level EDF with critical-path deadline decomposition).
[[nodiscard]] std::vector<SchedulerEntry> extended_schedulers();

/// Same roster with the WOHA entries' plan_jobs set, as paper_schedulers.
[[nodiscard]] std::vector<SchedulerEntry> extended_schedulers(unsigned plan_jobs);

struct ExperimentResult {
  std::string scheduler;
  hadoop::RunSummary summary;
  /// Host wall-clock spent inside the run (engine build + submit + run +
  /// summarize). Diagnostic only — never part of determinism digests.
  double wall_seconds = 0.0;
};

/// Observability attachments for harness-driven runs. `registry` (if any)
/// is attached to every engine before run(), so one registry accumulates
/// across a comparison/sweep; `configure` (if any) runs right after engine
/// construction — subscribe exporters and recorders (a TimelineRecorder,
/// say) to engine.events() there.
struct ObsHooks {
  obs::MetricsRegistry* registry = nullptr;
  std::function<void(hadoop::Engine&)> configure;
};

/// Build an engine, submit the workload, run, summarize.
[[nodiscard]] ExperimentResult run_experiment(
    const hadoop::EngineConfig& config,
    const std::vector<wf::WorkflowSpec>& workload, const SchedulerEntry& scheduler,
    const ObsHooks& hooks = {});

/// Run the workload under every scheduler in `entries`, `jobs` runs at a
/// time (1 = the classic serial loop; 0 = hardware concurrency). Results
/// are in `entries` order and bit-identical at every thread count (see
/// grid.hpp for the isolation contract).
[[nodiscard]] std::vector<ExperimentResult> run_comparison(
    const hadoop::EngineConfig& config,
    const std::vector<wf::WorkflowSpec>& workload,
    const std::vector<SchedulerEntry>& entries, const ObsHooks& hooks = {},
    unsigned jobs = 1);

/// Render per-workflow results of one run as a fixed-width table.
[[nodiscard]] std::string format_workflow_results(const hadoop::RunSummary& summary);

}  // namespace woha::metrics
