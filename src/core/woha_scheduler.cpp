#include "core/woha_scheduler.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "analysis/race_detector.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/scoped_timer.hpp"

namespace woha::core {

WohaScheduler::WohaScheduler(WohaConfig config)
    : config_(config), queue_(make_queue(config.queue)) {}

WohaScheduler::~WohaScheduler() {
  if (tracker_ != nullptr) tracker_->watch_runnable_workflows(nullptr);
}

void WohaScheduler::attach(const hadoop::JobTracker* tracker) {
  WorkflowScheduler::attach(tracker);
  tracker_->watch_runnable_workflows(this);
}

void WohaScheduler::on_workflow_runnable_changed(WorkflowId wf, SlotType t,
                                                 bool runnable) {
  // Reports arrive synchronously with each flip, before the select call
  // that could observe it; the queue ignores workflows it no longer holds.
  queue_->set_runnable(wf.value(), t, runnable);
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
}

void WohaScheduler::record_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("woha.plan_cache_hits").add(plan_cache_.hits());
  registry.counter("woha.plan_cache_misses").add(plan_cache_.misses());
}

std::string WohaScheduler::name() const {
  return std::string("WOHA-") + core::to_string(config_.job_priority);
}

void WohaScheduler::on_pending_submissions(
    const std::vector<wf::WorkflowSpec>& specs) {
  const std::uint32_t total_slots = cluster_slots_;
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
  if (cluster_slots_ == 0) {
    throw std::logic_error("WohaScheduler: cluster slot count not set");
  }
  // The estimator supplies the durations the client plans with; when
  // absent, the configuration's values are trusted as-is.
  const wf::WorkflowSpec planning_spec =
      config_.estimator ? config_.estimator->estimated_spec(rt.spec()) : rt.spec();
  const auto compute = [&]() {
    const auto rank = job_priority_ranks(planning_spec, config_.job_priority);
    return plan_for_submission(planning_spec, rank, cluster_slots_, config_.cap_policy,
                               config_.fixed_cap, config_.plan_deadline_factor);
  };
  // Recurrent instances fingerprint equal (the estimator's output is part
  // of the fingerprint, so a learning estimator naturally splits the key).
  std::shared_ptr<const SchedulingPlan> plan;
  {
    const obs::ScopedTimer plan_timer(plan_ns_);
    if (config_.plan_cache) {
      plan = plan_cache_.get_or_compute(
          plan_fingerprint(planning_spec, cluster_slots_, config_.job_priority,
                           config_.cap_policy, config_.fixed_cap,
                           config_.plan_deadline_factor),
          compute);
    } else {
      plan = std::make_shared<const SchedulingPlan>(compute());
    }
  }
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
  if (states_.size() <= wf.value()) states_.resize(wf.value() + 1);
  states_[wf.value()] = std::move(st);
  queue_->insert(wf.value(), std::move(progress));
}

void WohaScheduler::on_job_activated(hadoop::JobRef job, SimTime now) {
  (void)now;
  WorkflowState& st = states_[job.workflow];
  const auto& rank = st.plan->job_rank;
  // Keep active_jobs sorted by ascending rank (rank 0 served first).
  const auto pos = std::lower_bound(
      st.active_jobs.begin(), st.active_jobs.end(), job.job,
      [&rank](std::uint32_t a, std::uint32_t b) { return rank[a] < rank[b]; });
  st.active_jobs.insert(pos, job.job);
}

void WohaScheduler::on_job_completed(hadoop::JobRef job, SimTime now) {
  (void)now;
  std::erase(states_[job.workflow].active_jobs, job.job);
}

void WohaScheduler::on_workflow_completed(WorkflowId wf, SimTime now) {
  (void)now;
  queue_->remove(wf.value());
  // Keep the plan alive (tests inspect it); drop only the job list.
  states_[wf.value()].active_jobs.clear();
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
  // O(1) fast-fail: NaiveQueue probes every queued workflow, and this count
  // is what keeps that probe cheap for the ones with nothing to run.
  if (tracker_->workflow(WorkflowId(wf)).available_jobs(slot.type) == 0) {
    return std::nullopt;
  }
  for (std::uint32_t j : states_[wf].active_jobs) {
    const hadoop::JobRef ref{wf, j};
    if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) return j;
  }
  return std::nullopt;
}

std::optional<hadoop::JobRef> WohaScheduler::select_task(
    const hadoop::SlotOffer& slot, SimTime now) {
  std::uint32_t wf = SchedulerQueue::kNone;
  {
    const obs::ScopedTimer assign_timer(assign_ns_);
    wf = queue_->assign(now, slot.type, [this, &slot](std::uint32_t id) {
      const std::optional<std::uint32_t> j = pick_job(id, slot);
      if (j) probed_job_ = *j;
      return j.has_value();
    });
  }
  std::optional<hadoop::JobRef> choice;
  if (wf != SchedulerQueue::kNone) choice = hadoop::JobRef{wf, probed_job_};

  // Explainability snapshot: the workflows runnable for this slot type as
  // the queue ranks them after this decision (the orderings were refreshed
  // inside assign; the winner's rho is already bumped). Read-only — tracing
  // can never perturb the next decision.
  publish_decision(slot, choice, now, [this, &slot](auto& ranking) {
    top_scratch_.clear();
    queue_->top(
        slot.type, obs::kMaxRankedCandidates,
        [this, &slot](std::uint32_t id) {
          return tracker_->workflow(WorkflowId(id)).available_jobs(slot.type) > 0;
        },
        top_scratch_);
    for (const SchedulerQueue::QueueEntry& e : top_scratch_) {
      ranking.push_back(obs::SchedulerDecision::Candidate{
          e.id, obs::SchedulerDecision::kNoJob, e.lag, e.requirement, e.rho});
    }
  });
  return choice;
}

const SchedulingPlan* WohaScheduler::plan_of(WorkflowId wf) const {
  return wf.value() < states_.size() ? states_[wf.value()].plan.get() : nullptr;
}

}  // namespace woha::core
