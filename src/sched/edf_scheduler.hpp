// Earliest Deadline First workflow scheduler (paper Section V-B).
//
// Classic EDF (Liu & Layland) ported to Hadoop workflows following Verma et
// al.: the workflow with the earliest absolute deadline gets strict priority;
// within a workflow, jobs are served in activation order. Work-conserving:
// if the earliest-deadline workflow cannot use the slot, the next one is
// offered it.
#pragma once

#include <string>

#include "sched/workflow_order_scheduler.hpp"

namespace woha::sched {

/// Orders runnable workflows by (deadline, id); a workflow without a
/// deadline (kTimeInfinity) sorts last.
class EdfScheduler final : public WorkflowOrderScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "EDF"; }

 private:
  [[nodiscard]] std::int64_t initial_score(WorkflowId wf) const override {
    return tracker_->workflow(wf).deadline();
  }
};

}  // namespace woha::sched
