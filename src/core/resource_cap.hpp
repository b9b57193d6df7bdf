// Resource-cap selection for the Scheduling Plan Generator (paper Section
// IV-A, "An improvement").
//
// A plan generated with the full cluster as cap assumes W_i monopolizes the
// cluster; anchored at the deadline, such a plan demands nothing early and a
// burst of resources right before the deadline — too late under contention
// (paper Fig. 2(a)). The fix: binary-search a small cap whose simulated
// makespan still meets the relative deadline, which pulls the requirements as
// early as possible without being infeasible (Fig. 2(b)).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/plan.hpp"

namespace woha::core {

enum class CapPolicy : std::uint8_t {
  kFullCluster,  ///< cap = total cluster slots (the naive generator)
  kMinFeasible,  ///< binary search for a deadline-meeting cap (min_feasible_cap)
  kFixed,        ///< a caller-specified constant cap
};

[[nodiscard]] const char* to_string(CapPolicy policy);

/// A deadline-meeting cap found by binary search over [1, max_cap], or
/// nullopt when max_cap itself is infeasible. The probe sequence is fixed
/// by lo/hi: the returned cap is feasible and cap - 1 is infeasible (or cap
/// is 1). The simulated makespan is NOT monotone in the cap (Graham
/// anomalies), so a smaller feasible cap can exist below an infeasible one;
/// the search does not look for it. Each probe is answered exactly, by
/// bounds or a kept run where one applies and by Algorithm 1 otherwise
/// (DESIGN.md §3b). Cost: at most O(log max_cap) plan generations, all
/// client-side.
[[nodiscard]] std::optional<std::uint32_t> min_feasible_cap(
    const wf::WorkflowSpec& spec, const std::vector<std::uint32_t>& job_rank,
    Duration relative_deadline, std::uint32_t max_cap);

/// Generate the plan a WOHA client would ship to the master for this
/// workflow: applies the cap policy, falling back to the full cluster when
/// the deadline is infeasible or absent (best effort, as the paper's
/// scheduler behaves). `deadline_factor` shrinks the deadline the cap
/// search targets (e.g. 0.9 = plan to finish with 10% headroom): the
/// simulated plan ignores heartbeat latency, submitter activation, and
/// contention, so planning to the exact deadline leaves zero slack for
/// them. 1.0 reproduces the paper's pseudo-code verbatim.
[[nodiscard]] SchedulingPlan plan_for_submission(
    const wf::WorkflowSpec& spec, const std::vector<std::uint32_t>& job_rank,
    std::uint32_t total_cluster_slots, CapPolicy policy,
    std::uint32_t fixed_cap = 0, double deadline_factor = 1.0);

}  // namespace woha::core
