#include "core/resource_cap.hpp"

#include <stdexcept>
#include <vector>

#include "workflow/analysis.hpp"

namespace woha::core {

const char* to_string(CapPolicy policy) {
  switch (policy) {
    case CapPolicy::kFullCluster: return "full-cluster";
    case CapPolicy::kMinFeasible: return "min-feasible";
    case CapPolicy::kFixed: return "fixed";
  }
  return "?";
}

namespace {

/// One workflow's min-cap search. Every probe gets the answer a fresh
/// Algorithm-1 run would give; a run happens only when none of these
/// exact answers applies (DESIGN.md §3b):
///  - a run kept from an earlier probe at the same cap, or the kept run
///    that never ran out of slots when the cap is at or above its peak
///    (that run replays step for step at every such cap);
///  - makespan >= max(critical path, ceil(work / cap)): no schedule beats
///    the longest chain or spreads the work over more than `cap` slots;
///  - makespan <= floor((work - critical path) / cap) + critical path:
///    Graham's list-scheduling bound, which holds because Algorithm 1
///    never idles a slot while a task is ready.
class CapSearch {
 public:
  CapSearch(const wf::WorkflowSpec& spec, const std::vector<std::uint32_t>& job_rank,
            std::uint32_t max_cap)
      : sim_(spec, job_rank),
        max_cap_(max_cap),
        critical_path_(wf::critical_path_length(spec)),
        work_(wf::total_work(spec)) {}

  /// min_feasible_cap's answer. lo/hi and the midpoints are those of the
  /// plain binary search: makespan is not monotone in the cap, so narrowing
  /// them with the bounds could change the answer.
  std::optional<std::uint32_t> min_cap(Duration target) {
    if (target <= 0 || !feasible(max_cap_, target)) return std::nullopt;
    std::uint32_t lo = 1;
    std::uint32_t hi = max_cap_;  // invariant: hi is feasible
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (feasible(mid, target)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return hi;
  }

  /// The plan at `cap`, reusing a kept run when one applies.
  SchedulingPlan plan_at(std::uint32_t cap) {
    if (const SchedulingPlan* kept = known(cap)) {
      SchedulingPlan plan = *kept;
      plan.resource_cap = cap;
      return plan;
    }
    return sim_.run(cap);
  }

 private:
  bool feasible(std::uint32_t cap, Duration target) {
    if (critical_path_ > target || (work_ + cap - 1) / cap > target) return false;
    if ((work_ - critical_path_) / cap + critical_path_ <= target) return true;
    if (const SchedulingPlan* kept = known(cap)) return kept->simulated_makespan <= target;
    std::uint32_t peak = 0;
    runs_.push_back(sim_.run(cap, &peak));
    // Every run that never ran out of slots is the same schedule, so a
    // second one cannot occur: known() answers every cap >= its peak.
    if (peak < cap) {
      unconstrained_ = runs_.size() - 1;
      unconstrained_peak_ = peak;
    }
    return runs_.back().simulated_makespan <= target;
  }

  [[nodiscard]] const SchedulingPlan* known(std::uint32_t cap) const {
    for (const SchedulingPlan& run : runs_) {
      if (run.resource_cap == cap) return &run;
    }
    if (unconstrained_ != kNone && cap >= unconstrained_peak_) return &runs_[unconstrained_];
    return nullptr;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  PlanSimulator sim_;
  std::uint32_t max_cap_;
  Duration critical_path_;
  Duration work_;
  std::vector<SchedulingPlan> runs_;  ///< every Algorithm-1 run of this search
  std::size_t unconstrained_ = kNone;  ///< index of a run that never ran out of slots
  std::uint32_t unconstrained_peak_ = 0;
};

}  // namespace

std::optional<std::uint32_t> min_feasible_cap(
    const wf::WorkflowSpec& spec, const std::vector<std::uint32_t>& job_rank,
    Duration relative_deadline, std::uint32_t max_cap) {
  if (max_cap == 0) throw std::invalid_argument("min_feasible_cap: max_cap == 0");
  if (relative_deadline <= 0) return std::nullopt;
  return CapSearch(spec, job_rank, max_cap).min_cap(relative_deadline);
}

SchedulingPlan plan_for_submission(const wf::WorkflowSpec& spec,
                                   const std::vector<std::uint32_t>& job_rank,
                                   std::uint32_t total_cluster_slots,
                                   CapPolicy policy, std::uint32_t fixed_cap,
                                   double deadline_factor) {
  if (total_cluster_slots == 0) {
    throw std::invalid_argument("plan_for_submission: cluster has no slots");
  }
  if (deadline_factor <= 0.0 || deadline_factor > 1.0) {
    throw std::invalid_argument("plan_for_submission: deadline_factor in (0, 1]");
  }
  switch (policy) {
    case CapPolicy::kFullCluster:
      return generate_plan(spec, total_cluster_slots, job_rank);
    case CapPolicy::kFixed:
      if (fixed_cap == 0) throw std::invalid_argument("fixed cap must be >= 1");
      return generate_plan(spec, fixed_cap, job_rank);
    case CapPolicy::kMinFeasible: {
      const auto target = static_cast<Duration>(
          static_cast<double>(spec.relative_deadline) * deadline_factor);
      CapSearch search(spec, job_rank, total_cluster_slots);
      auto cap = search.min_cap(target);
      if (!cap) {
        // The padded deadline is infeasible; retry against the true
        // deadline before falling back to the full cluster. Both searches
        // share the kept runs, the full-cluster one included.
        cap = search.min_cap(spec.relative_deadline);
      }
      return search.plan_at(cap.value_or(total_cluster_slots));
    }
  }
  throw std::logic_error("plan_for_submission: unreachable");
}

}  // namespace woha::core
