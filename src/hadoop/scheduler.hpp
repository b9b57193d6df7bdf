// The Workflow Scheduler interface (paper Fig. 1, "Workflow Scheduler" box).
//
// The JobTracker consults this object whenever a heartbeat reports idle
// slots. Implementations: the WOHA progress-based scheduler (src/core) and
// the three ported baselines FIFO / Fair / EDF (src/sched). Users swap
// implementations exactly like the paper's workflow-scheduler.xml switch —
// here by passing a different factory to the engine.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "hadoop/job.hpp"
#include "obs/decision_publisher.hpp"

namespace woha::obs {
class MetricsRegistry;
}  // namespace woha::obs

namespace woha::hadoop {

class JobTracker;

/// The jobs one tracker refuses (per-job tracker blacklisting), in the order
/// they were blacklisted there; a lookup scans the row.
using Blacklist = std::vector<JobRef>;

/// One idle slot being offered to the scheduler. Hadoop-1's
/// assignTasks(TaskTracker) knows which slave is asking; per-job tracker
/// blacklisting needs that context, so the engine passes along the offered
/// tracker's blacklist (a job blacklisted on this tracker must not be
/// returned for this slot — it may still run elsewhere).
struct SlotOffer {
  SlotType type = SlotType::kMap;
  std::size_t tracker = 0;
  /// The jobs `tracker` refuses; null while nothing is blacklisted anywhere.
  const Blacklist* blacklist = nullptr;

  [[nodiscard]] bool allows(JobRef ref) const {
    return blacklist == nullptr || std::ranges::find(*blacklist, ref) == blacklist->end();
  }
};

class WorkflowScheduler {
 public:
  virtual ~WorkflowScheduler() = default;

  /// Human-readable name used in benchmark tables ("WOHA-LPF", "EDF", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the simulation starts; gives the scheduler read
  /// access to JobTracker state. The pointer outlives the scheduler.
  virtual void attach(const JobTracker* tracker) { tracker_ = tracker; }

  /// Observability hookup. The engine installs its event bus at
  /// construction (registry may arrive later, via
  /// Engine::set_metrics_registry). Schedulers publish decision traces on
  /// `bus` only while it is active, and record latency metrics only when
  /// `registry` is non-null — with neither, the hooks must cost nothing.
  virtual void observe(obs::EventBus* bus, obs::MetricsRegistry* registry) {
    (void)registry;
    bus_ = bus;
  }

  /// Add the scheduler's own run tallies to `registry`. The engine calls
  /// this once, last, when run() returns with a registry attached.
  virtual void record_metrics(obs::MetricsRegistry& registry) const { (void)registry; }

  /// Reports the cluster's slot capacity before the run. WOHA clients use
  /// this for plan generation (the "consult the JobTracker about the
  /// maximum number of slots" step); baselines ignore it.
  virtual void on_cluster_configured(std::uint32_t total_map_slots,
                                     std::uint32_t total_reduce_slots) {
    (void)total_map_slots;
    (void)total_reduce_slots;
  }

  /// The full list of workflows the run will submit, in submission order,
  /// delivered once before the first simulated event. Lets a scheduler
  /// precompute per-workflow artifacts off the critical path (WOHA prewarms
  /// its plan cache on a thread pool). Implementations must not change
  /// observable scheduling behaviour: results may only be installed where a
  /// later on_workflow_submitted would recompute them bit-identically. The
  /// engine only calls this when every listed spec is guaranteed to reach
  /// on_workflow_submitted (admission control disabled).
  virtual void on_pending_submissions(const std::vector<wf::WorkflowSpec>& specs) {
    (void)specs;
  }

  /// A new workflow arrived (its configuration — and, for WOHA, its
  /// scheduling plan — is now on the master).
  virtual void on_workflow_submitted(WorkflowId wf, SimTime now) = 0;

  /// Job became schedulable (its submitter task finished loading it).
  virtual void on_job_activated(JobRef job, SimTime now) = 0;

  /// One task of `job` finished and its slot was released. Schedulers that
  /// balance running-task counts (Fair) listen to this.
  virtual void on_task_finished(JobRef job, SlotType t, SimTime now) {
    (void)job;
    (void)t;
    (void)now;
  }

  /// Job finished all tasks.
  virtual void on_job_completed(JobRef job, SimTime now) {
    (void)job;
    (void)now;
  }

  /// All jobs of the workflow finished.
  virtual void on_workflow_completed(WorkflowId wf, SimTime now) {
    (void)wf;
    (void)now;
  }

  /// A task of the workflow exhausted its attempt budget and the workflow
  /// failed permanently. Default: treat like completion (drop all state) —
  /// the failed workflow must never be scheduled again.
  virtual void on_workflow_failed(WorkflowId wf, SimTime now) {
    on_workflow_completed(wf, now);
  }

  /// `count` previously-scheduled tasks of `job` were lost to a node fault
  /// (running attempts killed, or completed map outputs invalidated) and
  /// returned to the pending pool. Progress-based schedulers (WOHA) use
  /// this to regress rho; slot-count schedulers can ignore it (the engine
  /// reports freed slots through on_task_finished separately).
  virtual void on_tasks_lost(JobRef job, SlotType t, std::uint32_t count,
                             SimTime now) {
    (void)job;
    (void)t;
    (void)count;
    (void)now;
  }

  /// Pick the job whose task should occupy the offered slot. Contract: the
  /// returned job must satisfy has_available(slot.type) AND
  /// slot.allows(ref); the engine WILL start exactly one task of it (so
  /// implementations may update their progress accounting before
  /// returning). Return nullopt to leave the slot idle until the next
  /// heartbeat. The engine answers an offer itself, without a consult, when
  /// no job anywhere has a task of the slot's type
  /// (JobTracker::available_jobs(type) == 0).
  virtual std::optional<JobRef> select_task(const SlotOffer& slot, SimTime now) = 0;

  /// Fill up to `limit` identical slots in one consult. Must be
  /// decision-equivalent to up to `limit` successive select_task calls with
  /// the engine starting one task after each: `start(ref)` is invoked per
  /// pick (the engine's callback starts the task on slot.tracker, which may
  /// change what is available for the next pick). Returns the number of
  /// tasks started; a return < limit means the final consult came up empty.
  /// The default simply loops select_task; a forwarding decorator (a
  /// recorder, a timer) overrides it to see the picks.
  virtual std::uint32_t select_tasks(const SlotOffer& slot, std::uint32_t limit,
                                     const std::function<void(JobRef)>& start,
                                     SimTime now);

 protected:
  /// Publish this consult's SchedulerDecision if anyone listens: the offer,
  /// the pick, and the candidates `rank(ranking)` appends (at most
  /// obs::kMaxRankedCandidates, in the order the scheduler considered them).
  template <class Rank>
  void publish_decision(const SlotOffer& slot, const std::optional<JobRef>& choice,
                        SimTime now, const Rank& rank) {
    if (bus_ == nullptr || !bus_->active()) return;
    obs::SchedulerDecision& d =
        decision_.begin(now, slot.type, slot.tracker, [this] { return name(); });
    if (choice) {
      d.assigned = true;
      d.workflow = choice->workflow;
      d.job = choice->job;
    }
    rank(d.ranking);
    decision_.publish(*bus_);
  }

  const JobTracker* tracker_ = nullptr;
  obs::EventBus* bus_ = nullptr;

 private:
  obs::DecisionPublisher decision_;
};

}  // namespace woha::hadoop
