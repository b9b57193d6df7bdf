#include "workflow/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace woha::wf {

std::vector<std::uint32_t> job_levels(const WorkflowSpec& spec) {
  const auto order = topological_order(spec);
  if (order.size() != spec.jobs.size()) {
    throw std::invalid_argument("job_levels: workflow has a cycle");
  }
  const auto deps = dependents(spec);
  std::vector<std::uint32_t> level(spec.jobs.size(), 0);
  // Walk in reverse topological order so every dependent's level is final
  // before its prerequisites are visited.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::uint32_t j = *it;
    std::uint32_t lv = 0;
    for (std::uint32_t d : deps[j]) lv = std::max(lv, level[d] + 1);
    level[j] = lv;
  }
  return level;
}

std::vector<Duration> downstream_path_length(const WorkflowSpec& spec) {
  const auto order = topological_order(spec);
  if (order.size() != spec.jobs.size()) {
    throw std::invalid_argument("downstream_path_length: workflow has a cycle");
  }
  const auto deps = dependents(spec);
  std::vector<Duration> len(spec.jobs.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::uint32_t j = *it;
    Duration best = 0;
    for (std::uint32_t d : deps[j]) best = std::max(best, len[d]);
    len[j] = best + spec.jobs[j].serial_length();
  }
  return len;
}

std::vector<std::uint32_t> dependent_counts(const WorkflowSpec& spec) {
  const auto deps = dependents(spec);
  std::vector<std::uint32_t> out(spec.jobs.size());
  for (std::size_t j = 0; j < deps.size(); ++j) {
    out[j] = static_cast<std::uint32_t>(deps[j].size());
  }
  return out;
}

Duration critical_path_length(const WorkflowSpec& spec) {
  const auto len = downstream_path_length(spec);
  Duration best = 0;
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    // Only sources need inspection, but taking the max over all jobs is
    // equivalent since the path length is monotone along edges.
    best = std::max(best, len[j]);
  }
  return best;
}

Duration total_work(const WorkflowSpec& spec) {
  Duration w = 0;
  for (const auto& job : spec.jobs) {
    w += static_cast<Duration>(job.num_maps) * job.map_duration;
    w += static_cast<Duration>(job.num_reduces) * job.reduce_duration;
  }
  return w;
}

}  // namespace woha::wf
