#include "core/woha_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <variant>

#include "analysis/race_detector.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/scoped_timer.hpp"

namespace woha::core {

WohaScheduler::WohaScheduler(WohaConfig config)
    : config_(config), queue_(make_queue(config.queue)) {
  plan_cache_.set_capacity(config.plan_cache_capacity);
}

void WohaScheduler::observe(obs::EventBus* bus, obs::MetricsRegistry* registry) {
  WorkflowScheduler::observe(bus, registry);
  assign_ns_ = registry ? &registry->histogram(
                              "woha.queue_assign_ns",
                              obs::exponential_buckets(100.0, 4.0, 12))
                        : nullptr;
  plan_ns_ = registry ? &registry->histogram(
                            "woha.plan_generation_ns",
                            obs::exponential_buckets(1000.0, 4.0, 14))
                      : nullptr;
  plan_cache_.bind_counters(
      registry ? &registry->counter("woha.plan_cache_hits") : nullptr,
      registry ? &registry->counter("woha.plan_cache_misses") : nullptr,
      registry ? &registry->counter("woha.plan_cache_evictions") : nullptr);
}

std::string WohaScheduler::name() const {
  return std::string("WOHA-") + core::to_string(config_.job_priority);
}

void WohaScheduler::on_pending_submissions(
    const std::vector<wf::WorkflowSpec>& specs) {
  const std::uint32_t total_slots =
      config_.cluster_slots_override ? config_.cluster_slots_override : cluster_slots_;
  // Prewarm only pays off with >= 2 distinct plans; an estimator makes
  // planning inputs depend on submission order, so it must stay serial.
  if (!config_.plan_cache || config_.plan_jobs == 1 || config_.estimator ||
      total_slots == 0 || specs.size() < 2) {
    return;
  }
  std::vector<std::pair<std::uint64_t, const wf::WorkflowSpec*>> unique;
  std::unordered_set<std::uint64_t> seen;
  for (const wf::WorkflowSpec& spec : specs) {
    const std::uint64_t key =
        plan_fingerprint(spec, total_slots, config_.job_priority,
                         config_.cap_policy, config_.fixed_cap,
                         config_.plan_deadline_factor);
    if (seen.insert(key).second) unique.emplace_back(key, &spec);
  }
  if (unique.size() < 2) return;

  // Plan generation is pure in (spec, slots, knobs): every worker reads
  // only immutable inputs and writes its own slot, so no synchronization
  // beyond wait_idle is needed. The batch is not timed: the
  // plan-generation histogram takes one sample per submission, in
  // on_workflow_submitted, whether the plan was prewarmed or not.
  std::vector<std::shared_ptr<const SchedulingPlan>> plans(unique.size());
  std::vector<std::exception_ptr> errors(unique.size());
  // Touchpoint instances for the per-plan output slots: workers write their
  // own slot, the install loop reads them only after wait_idle's HB edge.
  const std::uint64_t slot_base = analysis::new_instance_block(unique.size());
  {
    ThreadPool pool(ThreadPool::resolve(config_.plan_jobs));
    for (std::size_t i = 0; i < unique.size(); ++i) {
      pool.submit([this, &plans, &errors, &unique, i, total_slots, slot_base]() {
        try {
          analysis::touch_write("prewarm.plan", slot_base + i,
                                "WohaScheduler prewarm worker");
          const wf::WorkflowSpec& spec = *unique[i].second;
          const auto rank = job_priority_ranks(spec, config_.job_priority);
          plans[i] = std::make_shared<const SchedulingPlan>(plan_for_submission(
              spec, rank, total_slots, config_.cap_policy, config_.fixed_cap,
              config_.plan_deadline_factor));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  // Install in submission order. A failed computation plants nothing: the
  // corresponding on_workflow_submitted recomputes serially and surfaces
  // the same exception at the same point a serial run would.
  for (std::size_t i = 0; i < unique.size(); ++i) {
    analysis::touch_read("prewarm.plan", slot_base + i,
                         "WohaScheduler prewarm install");
    if (!errors[i]) plan_cache_.insert(unique[i].first, std::move(plans[i]));
  }
  WOHA_LOG(LogLevel::kInfo, "woha")
      << "prewarmed " << plan_cache_.size() << " plan(s) for " << specs.size()
      << " pending workflow(s) with " << ThreadPool::resolve(config_.plan_jobs)
      << " thread(s)";
}

void WohaScheduler::on_workflow_submitted(WorkflowId wf, SimTime now) {
  const hadoop::WorkflowRuntime& rt = tracker_->workflow(wf);

  // ---- Client-side work (Fig. 1 steps (c)-(d)) ----
  const std::uint32_t total_slots =
      config_.cluster_slots_override ? config_.cluster_slots_override : cluster_slots_;
  if (total_slots == 0) {
    throw std::logic_error("WohaScheduler: cluster slot count not set");
  }
  // The estimator supplies the durations the client plans with; when
  // absent, the configuration's values are trusted as-is.
  const wf::WorkflowSpec planning_spec =
      config_.estimator ? config_.estimator->estimated_spec(rt.spec()) : rt.spec();
  const auto compute = [&]() {
    const auto rank = job_priority_ranks(planning_spec, config_.job_priority);
    return plan_for_submission(planning_spec, rank, total_slots, config_.cap_policy,
                               config_.fixed_cap, config_.plan_deadline_factor);
  };
  // Recurrent instances fingerprint equal (the estimator's output is part
  // of the fingerprint, so a learning estimator naturally splits the key).
  std::shared_ptr<const SchedulingPlan> plan;
  {
    const obs::ScopedTimer plan_timer(plan_ns_);
    if (config_.plan_cache) {
      plan = plan_cache_.get_or_compute(
          plan_fingerprint(planning_spec, total_slots, config_.job_priority,
                           config_.cap_policy, config_.fixed_cap,
                           config_.plan_deadline_factor),
          compute);
    } else {
      plan = std::make_shared<const SchedulingPlan>(compute());
    }
  }
  WOHA_LOG(LogLevel::kInfo, "woha")
      << "plan for workflow " << wf.value() << ": cap=" << plan->resource_cap
      << " makespan=" << plan->simulated_makespan << " steps=" << plan->num_steps();
  if (bus_ && bus_->active()) {
    bus_->publish(now, obs::PlanGenerated{wf.value(), plan->resource_cap,
                                          plan->simulated_makespan,
                                          plan->num_steps(),
                                          plan->total_tasks()});
  }

  // ---- Master-side registration ----
  WorkflowState st;
  st.plan = std::move(plan);
  ProgressTracker progress(st.plan.get(), rt.deadline());
  states_.emplace(wf.value(), std::move(st));
  queue_->insert(wf.value(), std::move(progress));
}

void WohaScheduler::on_job_activated(hadoop::JobRef job, SimTime now) {
  (void)now;
  WorkflowState& st = states_.at(job.workflow);
  const auto& rank = st.plan->job_rank;
  // Keep active_jobs sorted by ascending rank (rank 0 served first).
  const auto pos = std::lower_bound(
      st.active_jobs.begin(), st.active_jobs.end(), job.job,
      [&rank](std::uint32_t a, std::uint32_t b) { return rank[a] < rank[b]; });
  st.active_jobs.insert(pos, job.job);
  // A job with pending tasks just became schedulable: any memoized "this
  // workflow has nothing assignable" probe answer may have flipped.
  queue_->note_can_use_changed(job.workflow);
}

void WohaScheduler::on_task_finished(hadoop::JobRef job, SlotType t, SimTime now) {
  (void)now;
  (void)t;
  // Two false -> true probe flips can hide behind this callback. A finished
  // map can complete a job's map phase, which is what gates its pending
  // reduces (Job::has_available(kReduce) requires map_phase_done). And the
  // engine reports *failed* attempts through the same hook after requeueing
  // the task (fail_task), which restores availability of the task's own
  // type. A successful reduce flips nothing, but the callback cannot tell
  // success from retry, and a spurious note only costs one re-probe.
  queue_->note_can_use_changed(job.workflow);
}

void WohaScheduler::on_job_completed(hadoop::JobRef job, SimTime now) {
  (void)now;
  WorkflowState& st = states_.at(job.workflow);
  std::erase(st.active_jobs, job.job);
}

void WohaScheduler::on_workflow_completed(WorkflowId wf, SimTime now) {
  (void)now;
  queue_->remove(wf.value());
  // Keep the plan alive (tests inspect it); drop only the job list.
  states_.at(wf.value()).active_jobs.clear();
}

void WohaScheduler::on_tasks_lost(hadoop::JobRef job, SlotType t,
                                  std::uint32_t count, SimTime now) {
  (void)t;
  // rho counted these tasks as progress; they will run again, so the
  // workflow's lag must grow back. No-op for already-dequeued workflows.
  queue_->on_progress_lost(job.workflow, count);
  if (bus_ && bus_->active()) {
    bus_->publish(now, obs::QueueReordered{job.workflow, count});
  }
}

std::optional<std::uint32_t> WohaScheduler::pick_job(
    std::uint32_t wf, const hadoop::SlotOffer& slot) const {
  // O(1) fast-fail: the per-workflow availability count tells us whether
  // the scan below could possibly find anything. With hundreds of active
  // workflows, assign() probes pick_job once per queue candidate — this
  // check is what keeps that probe cheap on saturated clusters.
  if (tracker_->workflow(WorkflowId(wf)).available_jobs(slot.type) == 0) {
    return std::nullopt;
  }
  const WorkflowState& st = states_.at(wf);
  for (std::uint32_t j : st.active_jobs) {
    const hadoop::JobRef ref{wf, j};
    if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) return j;
  }
  return std::nullopt;
}

std::optional<hadoop::JobRef> WohaScheduler::select_task(
    const hadoop::SlotOffer& slot, SimTime now) {
  std::chrono::steady_clock::time_point t0;
  if (assign_ns_) t0 = std::chrono::steady_clock::now();
  // Cluster-wide availability early-out: when no workflow has an assignable
  // task of this type, assign() would refresh orderings and probe every
  // candidate only to return kNone. Skipping it is decision-identical (the
  // refresh is deferred to the next assign; orderings depend only on `now`)
  // and keeps the empty-offer heartbeat storm O(1). nothing_available is
  // false while tracing, so published decision snapshots are unchanged.
  std::uint32_t wf = SchedulerQueue::kNone;
  if (!nothing_available(slot.type)) {
    wf = queue_->assign(
        now, [this, &slot](std::uint32_t id) { return pick_job(id, slot).has_value(); });
  }
  if (assign_ns_) {
    assign_ns_->observe(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
  }
  std::optional<hadoop::JobRef> choice;
  if (wf != SchedulerQueue::kNone) {
    const auto j = pick_job(wf, slot);
    if (!j) {
      throw std::logic_error("WohaScheduler: queue accepted a workflow without tasks");
    }
    choice = hadoop::JobRef{wf, *j};
  }

  if (bus_ && bus_->active()) {
    // Explainability snapshot: the queue head as left by this decision (the
    // orderings were refreshed inside assign; the winner's rho is already
    // bumped). Read-only — tracing can never perturb the next decision.
    //
    // The event object is long-lived and published borrowed: its ranking
    // vector and scheduler-name string keep their buffers, so a traced run
    // makes no per-decision allocations (the old code rebuilt both on every
    // consult — measurable at heartbeat-storm rates).
    if (!std::holds_alternative<obs::SchedulerDecision>(trace_event_.payload)) {
      trace_event_.payload.emplace<obs::SchedulerDecision>();
      std::get<obs::SchedulerDecision>(trace_event_.payload).scheduler = name();
    }
    auto& d = std::get<obs::SchedulerDecision>(trace_event_.payload);
    trace_event_.time = now;
    d.slot = slot.type;
    d.tracker = slot.tracker;
    d.assigned = choice.has_value();
    d.workflow = choice ? choice->workflow : 0;
    d.job = choice ? choice->job : obs::SchedulerDecision::kNoJob;
    top_scratch_.clear();
    queue_->top(obs::kMaxRankedCandidates, top_scratch_);
    d.ranking.clear();
    for (const SchedulerQueue::QueueEntry& e : top_scratch_) {
      d.ranking.push_back(obs::SchedulerDecision::Candidate{
          e.id, obs::SchedulerDecision::kNoJob, e.lag, e.requirement, e.rho});
    }
    bus_->publish_borrowed(trace_event_);
  }
  return choice;
}

std::uint32_t WohaScheduler::select_tasks(
    const hadoop::SlotOffer& slot, std::uint32_t limit,
    const std::function<void(hadoop::JobRef)>& start, SimTime now) {
  // Traced runs keep the historical one-decision-per-consult cadence (and
  // its per-decision SchedulerDecision events) by falling back to the base
  // sequential loop.
  if (bus_ && bus_->active()) {
    return WorkflowScheduler::select_tasks(slot, limit, start, now);
  }

  // A per-tracker eligibility filter makes can_use depend on the offering
  // tracker, which is outside the rejection memo's (id, domain) contract —
  // drop the memo before the filtered consult, and again on the first
  // unfiltered consult after it (stamps written under a filter do not imply
  // rejection without it).
  const bool filtered = slot.eligible != nullptr;
  if (filtered || last_offer_filtered_) queue_->invalidate_probe_memo();
  last_offer_filtered_ = filtered;

  std::chrono::steady_clock::time_point t0;
  if (assign_ns_) t0 = std::chrono::steady_clock::now();
  std::uint32_t started = 0;
  // Cluster-wide availability early-out, checked once per batch: with
  // nothing assignable the whole batch would come up empty. Mid-batch
  // exhaustion is caught by the queue walk itself (and memoized).
  if (!nothing_available(slot.type)) {
    // One stack pointer per closure keeps both inside std::function's
    // small-buffer storage — no per-consult allocation.
    struct ProbeContext {
      WohaScheduler* self;
      const hadoop::SlotOffer* slot;
      const std::function<void(hadoop::JobRef)>* start;
    };
    ProbeContext ctx{this, &slot, &start};
    ProbeContext* const pc = &ctx;
    const std::function<bool(std::uint32_t)> can_use = [pc](std::uint32_t id) {
      return pc->self->pick_job(id, *pc->slot).has_value();
    };
    const std::function<void(std::uint32_t)> on_assign = [pc](std::uint32_t wf) {
      const auto j = pc->self->pick_job(wf, *pc->slot);
      if (!j) {
        throw std::logic_error(
            "WohaScheduler: queue accepted a workflow without tasks");
      }
      (*pc->start)(hadoop::JobRef{wf, *j});
    };
    started = queue_->assign_batch(now, static_cast<std::size_t>(slot.type),
                                   limit, can_use, on_assign);
  }
  if (assign_ns_) {
    // One latency sample per batch: the histogram then measures the cost of
    // a consult as the engine experiences it, whatever the batch width.
    assign_ns_->observe(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
  }
  return started;
}

const SchedulingPlan* WohaScheduler::plan_of(WorkflowId wf) const {
  const auto it = states_.find(wf.value());
  return it == states_.end() ? nullptr : it->second.plan.get();
}

}  // namespace woha::core
