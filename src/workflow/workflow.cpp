#include "workflow/workflow.hpp"

#include <deque>
#include <stdexcept>

namespace woha::wf {

void validate(const WorkflowSpec& spec) {
  if (spec.jobs.empty()) {
    throw std::invalid_argument("workflow '" + spec.name + "' has no jobs");
  }
  const std::uint32_t n = static_cast<std::uint32_t>(spec.jobs.size());
  for (std::uint32_t j = 0; j < n; ++j) {
    const JobSpec& job = spec.jobs[j];
    if (job.total_tasks() == 0) {
      throw std::invalid_argument("job '" + job.name + "' has zero tasks");
    }
    if (job.num_maps > 0 && job.map_duration <= 0) {
      throw std::invalid_argument("job '" + job.name + "' has non-positive map duration");
    }
    if (job.num_reduces > 0 && job.reduce_duration <= 0) {
      throw std::invalid_argument("job '" + job.name +
                                  "' has non-positive reduce duration");
    }
    for (std::uint32_t p : job.prerequisites) {
      if (p >= n) {
        throw std::invalid_argument("job '" + job.name +
                                    "' references out-of-range prerequisite " +
                                    std::to_string(p));
      }
      if (p == j) {
        throw std::invalid_argument("job '" + job.name + "' depends on itself");
      }
    }
  }
  if (spec.relative_deadline < 0) {
    throw std::invalid_argument("workflow '" + spec.name + "' has negative deadline");
  }
  // deadline() adds the two; kTimeInfinity itself means "no deadline".
  if (spec.relative_deadline > 0 &&
      spec.submit_time >= kTimeInfinity - spec.relative_deadline) {
    throw std::invalid_argument("workflow '" + spec.name +
                                "' has a deadline past the end of simulated time");
  }
  // Cycle check via Kahn's algorithm: all jobs must be drained.
  if (topological_order(spec).size() != spec.jobs.size()) {
    throw std::invalid_argument("workflow '" + spec.name + "' contains a cycle");
  }
}

bool is_valid(const WorkflowSpec& spec) {
  try {
    validate(spec);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

std::vector<std::vector<std::uint32_t>> dependents(const WorkflowSpec& spec) {
  std::vector<std::vector<std::uint32_t>> deps(spec.jobs.size());
  for (std::uint32_t j = 0; j < spec.jobs.size(); ++j) {
    for (std::uint32_t p : spec.jobs[j].prerequisites) {
      deps[p].push_back(j);
    }
  }
  return deps;
}

std::vector<std::uint32_t> topological_order(const WorkflowSpec& spec) {
  const std::size_t n = spec.jobs.size();
  std::vector<std::uint32_t> indegree(n, 0);
  for (std::uint32_t j = 0; j < n; ++j) {
    indegree[j] = static_cast<std::uint32_t>(spec.jobs[j].prerequisites.size());
  }
  const auto deps = dependents(spec);
  std::deque<std::uint32_t> ready;
  for (std::uint32_t j = 0; j < n; ++j) {
    if (indegree[j] == 0) ready.push_back(j);
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t j = ready.front();
    ready.pop_front();
    order.push_back(j);
    for (std::uint32_t d : deps[j]) {
      if (--indegree[d] == 0) ready.push_back(d);
    }
  }
  if (order.size() != n) {
    // Caller decides whether a cycle is an error; validate() throws.
    return order;
  }
  return order;
}

std::vector<std::uint32_t> initial_jobs(const WorkflowSpec& spec) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t j = 0; j < spec.jobs.size(); ++j) {
    if (spec.jobs[j].prerequisites.empty()) out.push_back(j);
  }
  return out;
}

}  // namespace woha::wf
