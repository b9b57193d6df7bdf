#include "audit/invariant_auditor.hpp"

#include <algorithm>
#include <utility>

#include "core/plan.hpp"
#include "core/woha_scheduler.hpp"
#include "hadoop/cluster.hpp"
#include "hadoop/engine.hpp"
#include "hadoop/job_tracker.hpp"
#include "obs/event.hpp"

namespace woha::audit {

namespace {

/// Queue entries a full sweep examines per slot type for progress
/// accounting (head-first in that type's ordering, i.e. the workflows
/// actually steering decisions).
constexpr std::size_t kSampledWorkflows = 64;

std::string format_violation(const std::string& invariant, SimTime time,
                             std::int64_t expected, std::int64_t actual,
                             const std::string& detail, std::uint32_t workflow) {
  std::string msg = "InvariantViolation: [" + invariant + "] t=" +
                    std::to_string(time) + "ms";
  if (workflow != kNoWorkflow) msg += " workflow=" + std::to_string(workflow);
  msg += " expected=" + std::to_string(expected) +
         " actual=" + std::to_string(actual) + " — " + detail;
  return msg;
}

}  // namespace

InvariantViolation::InvariantViolation(std::string invariant, SimTime time,
                                       std::int64_t expected, std::int64_t actual,
                                       std::string detail, std::uint32_t workflow)
    : std::logic_error(
          format_violation(invariant, time, expected, actual, detail, workflow)),
      invariant_(std::move(invariant)),
      time_(time),
      expected_(expected),
      actual_(actual),
      workflow_(workflow) {}

void InvariantAuditor::fail(const std::string& invariant, SimTime t,
                            std::int64_t expected, std::int64_t actual,
                            const std::string& detail, std::uint32_t workflow) {
  throw InvariantViolation(invariant, t, expected, actual, detail, workflow);
}

InvariantAuditor::InvariantAuditor(hadoop::Engine& engine, AuditConfig config)
    : engine_(engine), config_(config) {
  const auto& ec = engine_.config();
  retries_possible_ =
      ec.task_failure_prob > 0.0 || ec.faults.churn_enabled();
  const std::size_t n = engine_.cluster().tracker_count();
  running_.assign(n, {0, 0});
  pooled_.assign(n, true);
  draining_.assign(n, false);
  retired_.assign(n, false);
  subscription_ =
      engine_.events().subscribe([this](const obs::Event& e) { on_event(e); });
}

InvariantAuditor::~InvariantAuditor() {
  engine_.events().unsubscribe(subscription_);
}

void InvariantAuditor::on_event(const obs::Event& event) {
  ++events_seen_;
  if (event.time < last_event_time_) {
    fail("event-time-monotonic", event.time, last_event_time_, event.time,
         "event published before the previous event's sim time — the "
         "discrete-event core must hand events out in nondecreasing order");
  }
  last_event_time_ = event.time;
  const SimTime t = event.time;

  if (const auto* started = std::get_if<obs::TaskStarted>(&event.payload)) {
    if (started->tracker >= running_.size()) {
      fail("attempt-tracker-range", t,
           static_cast<std::int64_t>(running_.size()) - 1,
           static_cast<std::int64_t>(started->tracker),
           "TaskStarted on a tracker index outside the cluster",
           started->workflow);
    }
    if (draining_[started->tracker] || retired_[started->tracker]) {
      fail("drain-no-assign", t, 0, 1,
           "TaskStarted on tracker " + std::to_string(started->tracker) +
               (retired_[started->tracker] ? " after it retired"
                                           : " while it is draining out"),
           started->workflow);
    }
    const auto [it, inserted] = attempts_.emplace(
        started->attempt,
        ShadowAttempt{started->tracker,
                      static_cast<std::size_t>(started->slot),
                      started->workflow});
    if (!inserted) {
      fail("attempt-id-unique", t, 0, 1,
           "TaskStarted reused attempt id " + std::to_string(started->attempt) +
               " while the attempt is still running",
           started->workflow);
    }
    ++running_[started->tracker][static_cast<std::size_t>(started->slot)];
    check_tracker_slots(started->tracker, t);
  } else if (const auto* ended = std::get_if<obs::TaskEnded>(&event.payload)) {
    const auto it = attempts_.find(ended->attempt);
    if (it == attempts_.end()) {
      fail("attempt-lifecycle", t, 1, 0,
           "TaskEnded for attempt " + std::to_string(ended->attempt) +
               " without a matching TaskStarted",
           ended->workflow);
    }
    --running_[it->second.tracker][it->second.slot];
    attempts_.erase(it);
    check_tracker_slots(ended->tracker, t);
  } else if (const auto* hb = std::get_if<obs::HeartbeatServed>(&event.payload)) {
    ++heartbeats_seen_;
    const auto& tracker = engine_.cluster().tracker(hb->tracker);
    if (hb->free_map != tracker.free_slots(SlotType::kMap) ||
        hb->free_reduce != tracker.free_slots(SlotType::kReduce)) {
      fail("heartbeat-free-slots", t,
           static_cast<std::int64_t>(tracker.free_slots(SlotType::kMap)),
           static_cast<std::int64_t>(hb->free_map),
           "HeartbeatServed free-slot report disagrees with cluster state "
           "for tracker " + std::to_string(hb->tracker));
    }
    check_tracker_slots(hb->tracker, t);
    if (config_.full_sweep_period > 0 &&
        heartbeats_seen_ % config_.full_sweep_period == 0) {
      full_sweep();
    }
  } else if (const auto* lost = std::get_if<obs::TrackerLost>(&event.payload)) {
    // detect_tracker_loss kills every attempt (publishing their TaskEnded)
    // before reconciling, so by now the shadow must agree the node is empty.
    const auto& counts = running_.at(lost->tracker);
    if (counts[0] != 0 || counts[1] != 0) {
      fail("tracker-lost-empty", t, 0, counts[0] + counts[1],
           "TrackerLost published while attempts still run on tracker " +
               std::to_string(lost->tracker));
    }
    check_life("tracker-lost-dead", lost->tracker, Life::kLost, "TrackerLost", t);
    pooled_[lost->tracker] = false;
  } else if (const auto* restarted =
                 std::get_if<obs::TrackerRestarted>(&event.payload)) {
    check_life("tracker-restart-alive", restarted->tracker, Life::kUp,
               "TrackerRestarted", t);
    const auto& tracker = engine_.cluster().tracker(restarted->tracker);
    for (const SlotType s : {SlotType::kMap, SlotType::kReduce}) {
      if (tracker.free_slots(s) != tracker.capacity(s)) {
        fail("tracker-restart-free", t, tracker.capacity(s),
             tracker.free_slots(s),
             "restarted tracker must re-register with every slot free");
      }
    }
    pooled_[restarted->tracker] = true;
    // A re-registered node is a fresh worker: any drain it was serving when
    // it crashed is forgotten (mirrors the engine/cluster semantics).
    draining_[restarted->tracker] = false;
  } else if (const auto* submitted =
                 std::get_if<obs::WorkflowSubmitted>(&event.payload)) {
    (void)submitted;
    ++admitted_seen_;
  } else if (const auto* rejected =
                 std::get_if<obs::WorkflowRejected>(&event.payload)) {
    (void)rejected;
    ++rejected_seen_;
  } else if (const auto* shed = std::get_if<obs::WorkflowShed>(&event.payload)) {
    (void)shed;
    ++shed_seen_;
  } else if (const auto* draining =
                 std::get_if<obs::TrackerDraining>(&event.payload)) {
    if (retired_[draining->tracker]) {
      fail("drain-after-retire", t, 0, 1,
           "TrackerDraining for tracker " + std::to_string(draining->tracker) +
               " that already retired");
    }
    draining_[draining->tracker] = true;
  } else if (const auto* warned =
                 std::get_if<obs::PreemptionWarning>(&event.payload)) {
    if (retired_[warned->tracker]) {
      fail("drain-after-retire", t, 0, 1,
           "PreemptionWarning for tracker " + std::to_string(warned->tracker) +
               " that already retired");
    }
    draining_[warned->tracker] = true;
  } else if (const auto* decom =
                 std::get_if<obs::TrackerDecommissioned>(&event.payload)) {
    // Retirement is published after the stragglers' TaskEnded events, so
    // the shadow must agree the node is empty, and the cluster must have
    // retired it already.
    const auto& counts = running_.at(decom->tracker);
    if (counts[0] != 0 || counts[1] != 0) {
      fail("drain-retire-empty", t, 0, counts[0] + counts[1],
           "TrackerDecommissioned published while attempts still run on "
           "tracker " + std::to_string(decom->tracker));
    }
    check_life("drain-retire-dead", decom->tracker, Life::kRetired,
               "TrackerDecommissioned", t);
    pooled_[decom->tracker] = false;
    draining_[decom->tracker] = false;
    retired_[decom->tracker] = true;
  } else if (const auto* joined =
                 std::get_if<obs::TrackerJoined>(&event.payload)) {
    // Joins are append-only: the new index must extend the shadow by
    // exactly one tracker.
    if (joined->tracker != running_.size()) {
      fail("join-index-dense", t,
           static_cast<std::int64_t>(running_.size()),
           static_cast<std::int64_t>(joined->tracker),
           "TrackerJoined index does not extend the tracker range densely");
    }
    running_.push_back({0, 0});
    pooled_.push_back(true);
    draining_.push_back(false);
    retired_.push_back(false);
    check_tracker_slots(joined->tracker, t);
  } else if (const auto* activated = std::get_if<obs::JobActivated>(&event.payload)) {
    activated_.push_back(hadoop::JobRef{activated->workflow, activated->job});
  } else if (const auto* plan = std::get_if<obs::PlanGenerated>(&event.payload)) {
    check_plan(plan->workflow, t);
  } else if (const auto* reorder =
                 std::get_if<obs::QueueReordered>(&event.payload)) {
    // Rollback path: rho regressed. The plan itself is immutable, but the
    // monotonicity re-check here pins the "including post-rollback" clause.
    check_plan(reorder->workflow, t);
  }
}

void InvariantAuditor::check_tracker_slots(std::size_t tracker, SimTime t) const {
  const auto& state = engine_.cluster().tracker(tracker);
  const auto& counts = running_.at(tracker);
  for (const SlotType s : {SlotType::kMap, SlotType::kReduce}) {
    const auto idx = static_cast<std::size_t>(s);
    const std::int64_t expected = state.capacity(s);
    const std::int64_t actual =
        static_cast<std::int64_t>(state.free_slots(s)) + counts[idx];
    if (expected != actual) {
      fail("slot-conservation", t, expected, actual,
           "tracker " + std::to_string(tracker) + " " +
               (s == SlotType::kMap ? "map" : "reduce") +
               " free slots + running attempts != capacity");
    }
  }
}

void InvariantAuditor::check_life(const char* invariant, std::size_t tracker,
                                  Life expected, const char* event, SimTime t) const {
  const Life life = engine_.cluster().tracker(tracker).life();
  if (life != expected) {
    fail(invariant, t, static_cast<std::int64_t>(expected),
         static_cast<std::int64_t>(life),
         std::string(event) + " for tracker " + std::to_string(tracker) +
             " that the cluster records in another life stage");
  }
}

void InvariantAuditor::check_tracker_record(std::size_t tracker, SimTime t) const {
  // The record's lifecycle, as three bits the event stream also determines:
  // slots pooled (up or down, not yet declared lost), draining, retired.
  const auto& state = engine_.cluster().tracker(tracker);
  const auto bits = [](bool pooled, bool draining, bool retired) {
    return std::int64_t{pooled} << 2 | std::int64_t{draining} << 1 |
           std::int64_t{retired};
  };
  const std::int64_t shadow =
      bits(pooled_[tracker], draining_[tracker], retired_[tracker]);
  const std::int64_t record =
      bits(state.life() == Life::kUp || state.life() == Life::kDown,
           state.drain() != hadoop::TrackerState::Drain::kNone,
           state.life() == Life::kRetired);
  if (record != shadow) {
    fail("tracker-record", t, shadow, record,
         "tracker " + std::to_string(tracker) +
             " record disagrees with the event-built shadow (bits: pooled, "
             "draining, retired)");
  }
}

void InvariantAuditor::check_cluster(SimTime t) const {
  const auto& cluster = engine_.cluster();
  std::uint64_t pooled_free[2] = {0, 0};
  for (std::size_t i = 0; i < cluster.tracker_count(); ++i) {
    check_tracker_slots(i, t);
    check_tracker_record(i, t);
    for (const SlotType s : {SlotType::kMap, SlotType::kReduce}) {
      if (pooled_[i]) {
        pooled_free[static_cast<std::size_t>(s)] += cluster.tracker(i).free_slots(s);
      }
    }
  }
  for (const SlotType s : {SlotType::kMap, SlotType::kReduce}) {
    const auto idx = static_cast<std::size_t>(s);
    if (pooled_free[idx] != cluster.total_free(s)) {
      fail("cluster-free-total", t, static_cast<std::int64_t>(pooled_free[idx]),
           cluster.total_free(s),
           "sum of pooled trackers' free slots disagrees with the aggregate "
           "counter");
    }
  }
}

void InvariantAuditor::check_scheduler(SimTime t) const {
  const auto* woha =
      dynamic_cast<const core::WohaScheduler*>(&engine_.scheduler());
  if (woha == nullptr) return;

  const auto& job_tracker = engine_.job_tracker();
  // Each slot type's ordering holds a queued workflow iff it is runnable
  // for that type.
  const auto runnable = [&job_tracker](std::uint32_t id, SlotType type) {
    return job_tracker.workflow(WorkflowId(id)).available_jobs(type) > 0;
  };
  try {
    woha->queue().check_structure(runnable);
  } catch (const InvariantViolation&) {
    throw;
  } catch (const std::logic_error& e) {
    fail("queue-structure", t, 0, 1, e.what());
  }

  for (const SlotType type : {SlotType::kMap, SlotType::kReduce}) {
    std::vector<core::SchedulerQueue::QueueEntry> entries;
    woha->queue().top(
        type, kSampledWorkflows,
        [&runnable, type](std::uint32_t id) { return runnable(id, type); }, entries);
    check_queue_entries(entries, *woha, t);
  }
}

void InvariantAuditor::check_queue_entries(
    const std::vector<core::SchedulerQueue::QueueEntry>& entries,
    const core::WohaScheduler& woha, SimTime t) const {
  const auto& job_tracker = engine_.job_tracker();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& entry = entries[i];
    if (i > 0) {
      // top() promises descending priority: (-lag, id) ascending.
      const auto prev = std::make_pair(-entries[i - 1].lag, entries[i - 1].id);
      const auto cur = std::make_pair(-entry.lag, entry.id);
      if (cur < prev) {
        fail("queue-top-order", t, entries[i - 1].lag, entry.lag,
             "top() entries not in descending-priority order", entry.id);
      }
    }
    const std::int64_t derived_lag =
        static_cast<std::int64_t>(entry.requirement) -
        static_cast<std::int64_t>(entry.rho);
    if (entry.lag != derived_lag) {
      fail("lag-consistency", t, derived_lag, entry.lag,
           "queue entry lag != requirement - rho", entry.id);
    }
    const auto& wf_rt = job_tracker.workflow(WorkflowId(entry.id));
    if (entry.rho > wf_rt.tasks_scheduled()) {
      // Queue rho only regresses (count_lost); the runtime counter never
      // does — so the queue can never claim more progress than the engine.
      fail("rho-ceiling", t,
           static_cast<std::int64_t>(wf_rt.tasks_scheduled()),
           static_cast<std::int64_t>(entry.rho),
           "queue rho exceeds WorkflowRuntime::tasks_scheduled()", entry.id);
    }
    std::uint64_t finished = 0;
    for (std::uint32_t j = 0; j < wf_rt.job_count(); ++j) {
      finished += wf_rt.job(j).finished(SlotType::kMap);
      finished += wf_rt.job(j).finished(SlotType::kReduce);
    }
    if (entry.rho < finished) {
      fail("rho-floor", t, static_cast<std::int64_t>(finished),
           static_cast<std::int64_t>(entry.rho),
           "queue rho below the workflow's completed-task count — a finished "
           "task was never counted as scheduled",
           entry.id);
    }
    if (const auto* plan = woha.plan_of(WorkflowId(entry.id))) {
      if (entry.requirement > plan->total_tasks()) {
        fail("requirement-ceiling", t,
             static_cast<std::int64_t>(plan->total_tasks()),
             static_cast<std::int64_t>(entry.requirement),
             "progress requirement exceeds the plan's total task count",
             entry.id);
      }
      if (!retries_possible_ && entry.rho > plan->total_tasks()) {
        fail("rho-plan-ceiling", t,
             static_cast<std::int64_t>(plan->total_tasks()),
             static_cast<std::int64_t>(entry.rho),
             "rho exceeds the plan's total tasks in a run with no retry path",
             entry.id);
      }
    }
  }
}

void InvariantAuditor::check_plan(std::uint32_t workflow, SimTime t) const {
  const auto* woha =
      dynamic_cast<const core::WohaScheduler*>(&engine_.scheduler());
  if (woha == nullptr) return;
  const auto* plan = woha->plan_of(WorkflowId(workflow));
  if (plan == nullptr) return;  // already dequeued (completed/failed)
  if (plan->resource_cap < 1) {
    fail("plan-cap", t, 1, plan->resource_cap,
         "scheduling plan generated with a zero resource cap", workflow);
  }
  for (std::size_t i = 1; i < plan->num_steps(); ++i) {
    if (plan->step_ttd(i) >= plan->step_ttd(i - 1)) {
      fail("plan-ttd-decreasing", t, plan->step_ttd(i - 1) - 1,
           plan->step_ttd(i),
           "F_i steps must strictly decrease in time-to-deadline", workflow);
    }
    if (plan->step_req(i) < plan->step_req(i - 1)) {
      fail("plan-monotone", t,
           static_cast<std::int64_t>(plan->step_req(i - 1)),
           static_cast<std::int64_t>(plan->step_req(i)),
           "F_i cumulative requirements must be non-decreasing", workflow);
    }
  }
}

void InvariantAuditor::full_sweep() {
  ++sweeps_run_;
  const SimTime t = engine_.now();
  check_cluster(t);
  check_scheduler(t);
  check_admission(t);
  check_runnable_index(t);
}

void InvariantAuditor::check_runnable_index(SimTime t) {
  const auto& tracker = engine_.job_tracker();
  std::erase_if(activated_, [&tracker](hadoop::JobRef ref) {
    const hadoop::JobState state = tracker.job(ref).state();
    return state == hadoop::JobState::kComplete || state == hadoop::JobState::kFailed;
  });
  const auto label = [](hadoop::JobRef ref) {
    return std::string("w")
        .append(std::to_string(ref.workflow))
        .append("/j")
        .append(std::to_string(ref.job));
  };
  for (const SlotType s : {SlotType::kMap, SlotType::kReduce}) {
    const std::string type = s == SlotType::kMap ? "map" : "reduce";
    std::vector<hadoop::JobRef> expected;
    for (const hadoop::JobRef ref : activated_) {
      if (tracker.job(ref).has_available(s)) expected.push_back(ref);
    }
    std::vector<hadoop::JobRef> indexed;
    tracker.visit_runnable_jobs(s, [&indexed](hadoop::JobRef ref) {
      indexed.push_back(ref);
      return true;
    });
    const auto [e, i] =
        std::mismatch(expected.begin(), expected.end(), indexed.begin(), indexed.end());
    if (e != expected.end() || i != indexed.end()) {
      fail("runnable-index-order", t,
           e == expected.end() ? std::int64_t{-1} : std::int64_t{e->job},
           i == indexed.end() ? std::int64_t{-1} : std::int64_t{i->job},
           type + " runnable job " + std::to_string(e - expected.begin()) +
               " in activation order is " +
               (e == expected.end() ? std::string("none") : label(*e)) +
               ", the tracker's index has " +
               (i == indexed.end() ? std::string("none") : label(*i)),
           e == expected.end() ? i->workflow : e->workflow);
    }
    if (expected.size() != tracker.available_jobs(s)) {
      fail("runnable-index-count", t, static_cast<std::int64_t>(expected.size()),
           static_cast<std::int64_t>(tracker.available_jobs(s)),
           type + " available_jobs disagrees with the recomputed runnable jobs");
    }
  }
}

void InvariantAuditor::check_admission(SimTime t) const {
  // Conservation against engine ground truth: every submission was either
  // admitted (WorkflowSubmitted) or rejected (WorkflowRejected), and shed
  // workflows were admitted first.
  const auto stats = engine_.admission_stats();
  if (stats.submitted != admitted_seen_ + rejected_seen_) {
    fail("admission-conservation", t,
         static_cast<std::int64_t>(stats.submitted),
         static_cast<std::int64_t>(admitted_seen_ + rejected_seen_),
         "submitted != admitted + rejected (event stream vs engine counters)");
  }
  if (stats.rejected != rejected_seen_) {
    fail("admission-rejected-count", t,
         static_cast<std::int64_t>(stats.rejected),
         static_cast<std::int64_t>(rejected_seen_),
         "WorkflowRejected events disagree with the engine's reject counter");
  }
  if (stats.shed != shed_seen_) {
    fail("admission-shed-count", t, static_cast<std::int64_t>(stats.shed),
         static_cast<std::int64_t>(shed_seen_),
         "WorkflowShed events disagree with the engine's shed counter");
  }
  if (stats.shed > stats.admitted) {
    fail("admission-shed-bound", t, static_cast<std::int64_t>(stats.admitted),
         static_cast<std::int64_t>(stats.shed),
         "more workflows shed than were ever admitted");
  }
  // Pending-budget bound: with a budget-enforcing policy, the admitted and
  // unfinished set (and its recorded peak) can never exceed the budget —
  // sweeps run on heartbeat boundaries, after any submission-time shedding
  // settled.
  const auto& ac = engine_.config().admission;
  if (ac.enabled() && ac.max_pending_workflows > 0) {
    const std::int64_t budget = ac.max_pending_workflows;
    const std::int64_t pending = engine_.job_tracker().active_workflows();
    if (pending > budget) {
      fail("pending-budget-bound", t, budget, pending,
           "admitted-unfinished workflows exceed max_pending_workflows under "
           "a budget-enforcing admission policy");
    }
    if (static_cast<std::int64_t>(stats.pending_peak) > budget) {
      fail("pending-peak-bound", t, budget,
           static_cast<std::int64_t>(stats.pending_peak),
           "recorded pending peak exceeds the enforced budget");
    }
  }
}

}  // namespace woha::audit
