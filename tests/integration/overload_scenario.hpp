// The shared chaos-overload fixture: open-loop arrivals past saturation
// (rho = 1.3), deadline-aware shedding, MTBF node churn, speculation, and
// duration jitter, for all six paper schedulers. Used by the overload
// determinism golden, the forensics determinism check, and the attribution
// conservation property test — one definition so they all pin the same runs.
#pragma once

#include <string>
#include <vector>

#include "hadoop/admission.hpp"
#include "metrics/grid.hpp"
#include "metrics_digest.hpp"
#include "trace/arrivals.hpp"
#include "trace/deadlines.hpp"
#include "workflow/topology.hpp"

namespace woha::testing {

inline std::vector<wf::WorkflowSpec> overload_workload() {
  std::vector<wf::WorkflowSpec> workflows;
  for (std::uint32_t i = 0; i < 12; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    workflows.push_back(std::move(spec));
  }
  trace::DeadlinePolicy deadlines;
  deadlines.reference_cap = 12;
  trace::assign_deadlines(workflows, 5, deadlines);
  trace::ArrivalConfig arrivals;
  arrivals.shape = trace::ArrivalShape::kPoisson;
  arrivals.rho = 1.3;  // past saturation: the shed policy must engage
  arrivals.cluster_slots = 24;
  trace::assign_open_loop_arrivals(workflows, 7, arrivals);
  return workflows;
}

inline std::vector<metrics::GridPoint> overload_grid(
    const std::vector<wf::WorkflowSpec>& workload) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster.num_trackers = 8;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.seed = 42;
  config.duration_jitter_sigma = 0.3;
  config.admission.policy = hadoop::AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 4;
  config.faults.tracker_mtbf = 600.0 * 1000.0;  // 600 s per tracker
  config.faults.tracker_restart_delay = seconds(30);
  config.faults.expiry_interval = seconds(60);
  config.faults.speculative_execution = true;
  // About 5x the slowest scheduler's makespan (Fair, 45 min). No run gets
  // near it, so the digests do not depend on it, but a stranded job or a
  // lost event now ends in a digest mismatch instead of beating forever.
  config.horizon = hours(4);
  std::vector<metrics::GridPoint> grid;
  for (const auto& entry : metrics::paper_schedulers()) {
    grid.push_back(metrics::GridPoint{config, &workload, entry});
  }
  return grid;
}

/// digest_comparison plus the overload & elasticity fields it predates.
inline std::uint64_t digest_overload(
    const std::vector<metrics::ExperimentResult>& results) {
  Fnv1a h;
  h.mix(digest_comparison(results));
  for (const metrics::ExperimentResult& r : results) {
    const hadoop::RunSummary& s = r.summary;
    h.mix(s.workflows_submitted);
    h.mix(s.workflows_rejected);
    h.mix(s.workflows_shed);
    h.mix(static_cast<std::uint64_t>(s.pending_peak));
    h.mix(s.tracker_decommissions);
    h.mix(s.tracker_preemptions);
    h.mix(s.trackers_joined);
    h.mix(s.drain_migrated);
    for (const hadoop::WorkflowResult& w : s.workflows) {
      h.mix(w.rejected);
      h.mix(w.shed);
    }
  }
  return h.value();
}

/// The pinned golden for digest_overload over this fixture (see
/// overload_determinism_test.cpp for the refresh procedure).
inline constexpr std::uint64_t kOverloadChaosGolden = 0xf1d7f80f4db586c2ull;

}  // namespace woha::testing
