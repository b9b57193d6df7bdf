#include "timing_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace perfbench {

using woha::SimTime;
using woha::SlotType;
using woha::WorkflowId;
using woha::hadoop::JobRef;
using woha::hadoop::SlotOffer;

void LatencyHistogram::record(std::uint64_t ns) {
  std::size_t index = 0;
  if (ns < kSub) {
    index = static_cast<std::size_t>(ns);
  } else {
    const unsigned exp = static_cast<unsigned>(std::bit_width(ns)) - 1;  // >= kSubBits
    const std::uint64_t sub = (ns >> (exp - kSubBits)) & (kSub - 1);
    index = static_cast<std::size_t>(exp - kSubBits + 1) * kSub + sub;
  }
  ++buckets_[index];
  ++count_;
  max_ = std::max(max_, ns);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < rank) continue;
    if (i < kSub) return static_cast<double>(i);
    const unsigned exp = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    const double width = static_cast<double>(std::uint64_t{1} << (exp - kSubBits));
    const double lo = static_cast<double>(kSub + i % kSub) * width;
    return std::min(lo + width / 2.0, static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

TimingScheduler::TimingScheduler(std::unique_ptr<woha::hadoop::WorkflowScheduler> inner)
    : inner_(std::move(inner)) {
  timed_start_ = [this](JobRef ref) {
    const Clock::time_point t0 = Clock::now();
    (*engine_start_)(ref);
    timings_.start_ns += ns_since(t0);
  };
}

void TimingScheduler::attach(const woha::hadoop::JobTracker* tracker) {
  WorkflowScheduler::attach(tracker);
  inner_->attach(tracker);
}

void TimingScheduler::observe(woha::obs::EventBus* bus,
                              woha::obs::MetricsRegistry* registry) {
  WorkflowScheduler::observe(bus, registry);
  inner_->observe(bus, registry);
}

void TimingScheduler::on_cluster_configured(std::uint32_t total_map_slots,
                                            std::uint32_t total_reduce_slots) {
  timed(timings_.notify, nullptr, [&] {
    inner_->on_cluster_configured(total_map_slots, total_reduce_slots);
  });
}

void TimingScheduler::on_pending_submissions(
    const std::vector<woha::wf::WorkflowSpec>& specs) {
  timed(timings_.notify, nullptr, [&] { inner_->on_pending_submissions(specs); });
}

void TimingScheduler::on_workflow_submitted(WorkflowId wf, SimTime now) {
  timed(timings_.submit, &timings_.submit_hist,
        [&] { inner_->on_workflow_submitted(wf, now); });
}

void TimingScheduler::on_job_activated(JobRef job, SimTime now) {
  timed(timings_.notify, nullptr, [&] { inner_->on_job_activated(job, now); });
}

void TimingScheduler::on_task_finished(JobRef job, SlotType t, SimTime now) {
  timed(timings_.notify, nullptr, [&] { inner_->on_task_finished(job, t, now); });
}

void TimingScheduler::on_job_completed(JobRef job, SimTime now) {
  timed(timings_.notify, nullptr, [&] { inner_->on_job_completed(job, now); });
}

void TimingScheduler::on_workflow_completed(WorkflowId wf, SimTime now) {
  timed(timings_.notify, nullptr, [&] { inner_->on_workflow_completed(wf, now); });
}

void TimingScheduler::on_workflow_failed(WorkflowId wf, SimTime now) {
  timed(timings_.notify, nullptr, [&] { inner_->on_workflow_failed(wf, now); });
}

void TimingScheduler::on_tasks_lost(JobRef job, SlotType t, std::uint32_t count,
                                    SimTime now) {
  timed(timings_.notify, nullptr, [&] { inner_->on_tasks_lost(job, t, count, now); });
}

void TimingScheduler::record_consult(Clock::time_point t0, std::uint64_t start_ns_before,
                                     std::uint32_t picked, std::uint32_t limit) {
  const std::uint64_t total = ns_since(t0);
  const std::uint64_t in_engine = timings_.start_ns - start_ns_before;
  const std::uint64_t self = total > in_engine ? total - in_engine : 0;
  ++timings_.consult.calls;
  timings_.consult.ns += self;
  timings_.consult_hist.record(self);
  timings_.picks += picked;
  if (picked == 0) ++timings_.empty_consults;
  if (picked < limit) ++timings_.underfilled;
}

std::optional<JobRef> TimingScheduler::select_task(const SlotOffer& slot, SimTime now) {
  const Clock::time_point t0 = Clock::now();
  const std::optional<JobRef> choice = inner_->select_task(slot, now);
  record_consult(t0, timings_.start_ns, choice.has_value() ? 1 : 0, 1);
  return choice;
}

std::uint32_t TimingScheduler::select_tasks(const SlotOffer& slot, std::uint32_t limit,
                                            const std::function<void(JobRef)>& start,
                                            SimTime now) {
  engine_start_ = &start;
  const std::uint64_t start_ns_before = timings_.start_ns;
  const Clock::time_point t0 = Clock::now();
  const std::uint32_t picked = inner_->select_tasks(slot, limit, timed_start_, now);
  record_consult(t0, start_ns_before, picked, limit);
  return picked;
}

}  // namespace perfbench
