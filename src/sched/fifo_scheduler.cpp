#include "sched/fifo_scheduler.hpp"

#include "obs/event_bus.hpp"

namespace woha::sched {

std::optional<hadoop::JobRef> FifoScheduler::select_task(const hadoop::SlotOffer& slot,
                                                         SimTime now) {
  std::optional<hadoop::JobRef> choice;
  tracker_->visit_runnable_jobs(slot.type, [&](hadoop::JobRef ref) {
    if (slot.allows(ref)) choice = ref;
    return !choice;
  });
  if (bus_ && bus_->active()) {
    obs::SchedulerDecision d;
    d.scheduler = name();
    d.slot = slot.type;
    d.tracker = slot.tracker;
    d.assigned = choice.has_value();
    if (choice) {
      d.workflow = choice->workflow;
      d.job = choice->job;
    }
    // Ranking = the runnable jobs for this slot type in FIFO order; score is
    // the position. Unfiltered, the pick is the first of them.
    tracker_->visit_runnable_jobs(slot.type, [&d](hadoop::JobRef ref) {
      d.ranking.push_back(obs::SchedulerDecision::Candidate{
          ref.workflow, ref.job, static_cast<std::int64_t>(d.ranking.size()), 0, 0});
      return d.ranking.size() < obs::kMaxRankedCandidates;
    });
    bus_->publish(now, std::move(d));
  }
  return choice;
}

}  // namespace woha::sched
