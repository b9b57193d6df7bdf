// Bridges the engine's task-event stream into a TaskTimeEstimator — the
// "logs of historical executions" pipeline. Subscribe it to the engine's
// event bus; attempts that succeeded feed the estimator keyed by job name,
// so recurring jobs are recognized across workflow instances and across
// runs.
#pragma once

#include <variant>

#include "estimate/estimator.hpp"
#include "hadoop/engine.hpp"
#include "obs/event.hpp"

namespace woha::est {

class HistoryRecorder {
 public:
  /// Both references must outlive the recorder.
  HistoryRecorder(TaskTimeEstimator& estimator, const hadoop::Engine& engine)
      : estimator_(&estimator), engine_(&engine) {}

  /// Learns `ran_for` from every obs::TaskEnded that neither failed nor was
  /// killed; ignores every other event. Failed and killed attempts (node
  /// loss, lost speculation races) carry partial execution times — not
  /// durations a planner should learn from.
  void observe(const obs::Event& event) {
    const auto* ended = std::get_if<obs::TaskEnded>(&event.payload);
    if (ended == nullptr || ended->failed || ended->killed || ended->ran_for <= 0) return;
    const auto& job = engine_->job_tracker().job({ended->workflow, ended->job});
    estimator_->record(job.spec().name, ended->slot, ended->ran_for);
  }

 private:
  TaskTimeEstimator* estimator_;
  const hadoop::Engine* engine_;
};

}  // namespace woha::est
