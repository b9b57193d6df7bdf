#include "hadoop/scheduler.hpp"

namespace woha::hadoop {

std::uint32_t WorkflowScheduler::select_tasks(
    const SlotOffer& slot, std::uint32_t limit,
    const std::function<void(JobRef)>& start, SimTime now) {
  std::uint32_t started = 0;
  while (started < limit) {
    const std::optional<JobRef> choice = select_task(slot, now);
    if (!choice.has_value()) break;
    start(*choice);
    ++started;
  }
  return started;
}

}  // namespace woha::hadoop
