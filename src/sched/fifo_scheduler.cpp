#include "sched/fifo_scheduler.hpp"

namespace woha::sched {

std::optional<hadoop::JobRef> FifoScheduler::select_task(const hadoop::SlotOffer& slot,
                                                         SimTime now) {
  std::optional<hadoop::JobRef> choice;
  tracker_->visit_runnable_jobs(slot.type, [&](hadoop::JobRef ref) {
    if (slot.allows(ref)) choice = ref;
    return !choice;
  });
  // Ranking = the runnable jobs for this slot type in FIFO order; score is
  // the position. Unfiltered, the pick is the first of them.
  publish_decision(slot, choice, now, [&](auto& ranking) {
    tracker_->visit_runnable_jobs(slot.type, [&ranking](hadoop::JobRef ref) {
      ranking.push_back(obs::SchedulerDecision::Candidate{
          ref.workflow, ref.job, static_cast<std::int64_t>(ranking.size()), 0, 0});
      return ranking.size() < obs::kMaxRankedCandidates;
    });
  });
  return choice;
}

}  // namespace woha::sched
