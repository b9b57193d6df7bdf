// Static DAG analysis over a WorkflowSpec. These are the quantities the
// paper's intra-workflow prioritization rules (Section V-C) consume:
//
//  * HLF  — job levels ("jobs with no dependents are level 0; a job's level
//           is one more than the max level among its dependents").
//  * LPF  — longest downstream path measured in estimated serial job length.
//  * MPF  — number of direct dependents.
//
// Plus a critical-path length used to sanity-check deadlines and to set
// plan-infeasibility bounds for the resource-cap binary search.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "workflow/workflow.hpp"

namespace woha::wf {

/// level[j] per the paper: jobs with no dependents are level 0; for a job at
/// level i, all dependents are at levels < i and at least one is at i-1.
[[nodiscard]] std::vector<std::uint32_t> job_levels(const WorkflowSpec& spec);

/// Longest path (in summed serial job length, ms) from job j to any sink,
/// inclusive of j itself.
[[nodiscard]] std::vector<Duration> downstream_path_length(const WorkflowSpec& spec);

/// Number of direct dependents of each job (|D_i^j|).
[[nodiscard]] std::vector<std::uint32_t> dependent_counts(const WorkflowSpec& spec);

/// Length of the workflow's critical path: the largest summed serial job
/// length over any chain in the DAG. No schedule on any number of slots can
/// finish the workflow faster than this.
[[nodiscard]] Duration critical_path_length(const WorkflowSpec& spec);

/// Total serial work: sum over jobs of m*M + r*R. A cluster with c
/// concurrent slots needs at least total_work/c time (second lower bound).
[[nodiscard]] Duration total_work(const WorkflowSpec& spec);

}  // namespace woha::wf
