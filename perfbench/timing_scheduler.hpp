// Outside-in timing of the scheduler layer: a WorkflowScheduler decorator
// that forwards every virtual to the scheduler under test and records how
// long each call took, without allocating on the hot path.
//
// Consult time is exclusive: the engine's start-task callback runs inside
// select_tasks (between picks), so the decorator hands the inner scheduler
// its own pre-built callback that times the engine's sink and subtracts it.
// That keeps "scheduler callbacks + engine self time == run time" exact.
//
// Never combine it with EngineConfig::audit: the invariant auditor looks for
// the WOHA scheduler with a dynamic_cast on Engine::scheduler(), which cannot
// see through a decorator.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hadoop/scheduler.hpp"

namespace perfbench {

/// Log-linear latency histogram over nanoseconds: exact below 16 ns, then 16
/// sub-buckets per power of two, so a quantile is off by at most 1/16 of its
/// value. Storage is fixed, so record() never allocates.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  /// Midpoint of the bucket holding the q-quantile sample (capped at max()).
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSub = 1u << kSubBits;
  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// Calls of one kind and their summed (exclusive) time.
struct CallTally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

struct SchedulerTimings {
  CallTally consult;  ///< select_tasks / select_task, minus engine start time
  CallTally submit;   ///< on_workflow_submitted (WOHA plans here)
  CallTally notify;   ///< every other on_* callback
  LatencyHistogram consult_hist;
  LatencyHistogram submit_hist;
  std::uint64_t picks = 0;          ///< tasks started through consults
  std::uint64_t empty_consults = 0; ///< consults that started nothing
  std::uint64_t underfilled = 0;    ///< consults that started < limit
  std::uint64_t start_ns = 0;       ///< engine start-task time inside consults
};

class TimingScheduler final : public woha::hadoop::WorkflowScheduler {
 public:
  explicit TimingScheduler(std::unique_ptr<woha::hadoop::WorkflowScheduler> inner);
  TimingScheduler(const TimingScheduler&) = delete;
  TimingScheduler& operator=(const TimingScheduler&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(const woha::hadoop::JobTracker* tracker) override;
  void observe(woha::obs::EventBus* bus, woha::obs::MetricsRegistry* registry) override;
  void on_cluster_configured(std::uint32_t total_map_slots,
                             std::uint32_t total_reduce_slots) override;
  void on_pending_submissions(const std::vector<woha::wf::WorkflowSpec>& specs) override;
  void on_workflow_submitted(woha::WorkflowId wf, woha::SimTime now) override;
  void on_job_activated(woha::hadoop::JobRef job, woha::SimTime now) override;
  void on_task_finished(woha::hadoop::JobRef job, woha::SlotType t,
                        woha::SimTime now) override;
  void on_job_completed(woha::hadoop::JobRef job, woha::SimTime now) override;
  void on_workflow_completed(woha::WorkflowId wf, woha::SimTime now) override;
  void on_workflow_failed(woha::WorkflowId wf, woha::SimTime now) override;
  void on_tasks_lost(woha::hadoop::JobRef job, woha::SlotType t, std::uint32_t count,
                     woha::SimTime now) override;
  std::optional<woha::hadoop::JobRef> select_task(const woha::hadoop::SlotOffer& slot,
                                                  woha::SimTime now) override;
  std::uint32_t select_tasks(const woha::hadoop::SlotOffer& slot, std::uint32_t limit,
                             const std::function<void(woha::hadoop::JobRef)>& start,
                             woha::SimTime now) override;

  /// Forget everything recorded so far (set-up callbacks included), so the
  /// tallies cover Engine::run alone.
  void reset() { timings_ = {}; }
  [[nodiscard]] const SchedulerTimings& timings() const { return timings_; }

 private:
  using Clock = std::chrono::steady_clock;
  static std::uint64_t ns_since(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }
  /// Time `fn` into `tally` (and `hist` when given).
  template <class Fn>
  void timed(CallTally& tally, LatencyHistogram* hist, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const std::uint64_t ns = ns_since(t0);
    ++tally.calls;
    tally.ns += ns;
    if (hist != nullptr) hist->record(ns);
  }
  void record_consult(Clock::time_point t0, std::uint64_t start_ns_before,
                      std::uint32_t picked, std::uint32_t limit);

  std::unique_ptr<woha::hadoop::WorkflowScheduler> inner_;
  SchedulerTimings timings_;
  /// The engine's sink for the consult in flight, and the pre-built
  /// callback handed to the inner scheduler in its place (built once, so a
  /// consult allocates nothing).
  const std::function<void(woha::hadoop::JobRef)>* engine_start_ = nullptr;
  std::function<void(woha::hadoop::JobRef)> timed_start_;
};

}  // namespace perfbench
