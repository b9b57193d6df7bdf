#include "hadoop/admission.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hadoop/job_tracker.hpp"
#include "workflow/analysis.hpp"

namespace woha::hadoop {

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kAdmitAll: return "admit-all";
    case AdmissionPolicy::kRejectInfeasible: return "reject-infeasible";
    case AdmissionPolicy::kShedLatestDeadlineFirst:
      return "shed-latest-deadline-first";
  }
  return "?";
}

void AdmissionConfig::validate() const {
  if (!(std::isfinite(feasibility_margin) && feasibility_margin > 0.0)) {
    throw std::invalid_argument(
        "AdmissionConfig: feasibility_margin must be finite and positive");
  }
  if (policy == AdmissionPolicy::kShedLatestDeadlineFirst &&
      max_pending_workflows == 0) {
    throw std::invalid_argument(
        "AdmissionConfig: shed_latest_deadline_first needs a pending budget "
        "(max_pending_workflows > 0)");
  }
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         const JobTracker* tracker,
                                         std::uint32_t total_slots)
    : config_(config), tracker_(tracker), total_slots_(total_slots) {
  config_.validate();
  if (tracker == nullptr) {
    throw std::invalid_argument("AdmissionController: tracker is null");
  }
  if (total_slots == 0) {
    throw std::invalid_argument("AdmissionController: total_slots must be >= 1");
  }
}

std::uint32_t AdmissionController::pending() const {
  return tracker_->active_workflows();
}

double AdmissionController::remaining_backlog_ms() const {
  double backlog = 0.0;
  for (const auto& wf_ptr : tracker_->workflows()) {
    const WorkflowRuntime& w = *wf_ptr;
    if (w.finished() || w.failed()) continue;
    for (std::uint32_t j = 0; j < w.job_count(); ++j) {
      const JobInProgress& job = w.job(j);
      const auto& spec = job.spec();
      const auto maps_left = spec.num_maps - job.finished(SlotType::kMap);
      const auto reduces_left = spec.num_reduces - job.finished(SlotType::kReduce);
      backlog += static_cast<double>(maps_left) *
                 static_cast<double>(spec.map_duration);
      backlog += static_cast<double>(reduces_left) *
                 static_cast<double>(spec.reduce_duration);
    }
  }
  return backlog;
}

AdmissionDecision AdmissionController::decide(const wf::WorkflowSpec& spec,
                                              SimTime now) const {
  switch (config_.policy) {
    case AdmissionPolicy::kAdmitAll:
      return {};
    case AdmissionPolicy::kShedLatestDeadlineFirst:
      // Everything is admitted; the budget is enforced by shedding after
      // the fact (the newcomer itself may be the victim).
      return {};
    case AdmissionPolicy::kRejectInfeasible:
      break;
  }

  if (config_.max_pending_workflows > 0 &&
      pending() >= config_.max_pending_workflows) {
    return {false, "pending-budget"};
  }
  if (spec.relative_deadline <= 0) return {};  // no deadline: always feasible

  // Deadlines are submit-relative, so time-to-deadline at the submission
  // instant is exactly the relative deadline.
  (void)now;
  const auto ttd = static_cast<double>(spec.relative_deadline);
  const double lower_bound =
      std::max(static_cast<double>(wf::critical_path_length(spec)),
               (remaining_backlog_ms() + static_cast<double>(wf::total_work(spec))) /
                   static_cast<double>(total_slots_));
  if (lower_bound > ttd * config_.feasibility_margin) {
    return {false, "infeasible"};
  }
  return {};
}

std::optional<std::uint32_t> AdmissionController::pick_shed_victim() const {
  if (config_.policy != AdmissionPolicy::kShedLatestDeadlineFirst) {
    return std::nullopt;
  }
  std::optional<std::uint32_t> victim;
  SimTime victim_deadline = -1;
  for (const auto& wf_ptr : tracker_->workflows()) {
    const WorkflowRuntime& w = *wf_ptr;
    if (w.finished() || w.failed()) continue;
    const SimTime d = w.deadline();
    // Latest deadline first; ties go to the higher (younger) id, which the
    // ascending scan realizes with >=.
    if (!victim || d >= victim_deadline) {
      victim = w.id().value();
      victim_deadline = d;
    }
  }
  return victim;
}

}  // namespace woha::hadoop
