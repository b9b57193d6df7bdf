#include "hadoop/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/scoped_timer.hpp"

namespace woha::hadoop {

Engine::Engine(EngineConfig config, std::unique_ptr<WorkflowScheduler> scheduler)
    : config_(config),
      sim_(config.cluster.heartbeat_period),
      cluster_(config.cluster),
      scheduler_(std::move(scheduler)),
      rng_(config.seed),
      attempts_(cluster_.tracker_count(), config.cluster.map_slots_per_tracker,
                config.cluster.reduce_slots_per_tracker) {
  if (!scheduler_) throw std::invalid_argument("Engine: scheduler is null");
  if (config_.activation_latency < 0) {
    throw std::invalid_argument("Engine: negative activation latency");
  }
  // Each check accepts only values in range, so NaN fails every one.
  if (!(std::isfinite(config_.duration_scale) && config_.duration_scale > 0.0)) {
    throw std::invalid_argument("Engine: duration_scale must be finite and positive");
  }
  if (!(std::isfinite(config_.duration_jitter_sigma) &&
        config_.duration_jitter_sigma >= 0.0)) {
    throw std::invalid_argument("Engine: duration_jitter_sigma must be finite and >= 0");
  }
  if (!(config_.task_failure_prob >= 0.0 && config_.task_failure_prob <= 1.0)) {
    throw std::invalid_argument("Engine: task_failure_prob must be in [0, 1]");
  }
  if (!(std::isfinite(config_.remote_map_penalty) && config_.remote_map_penalty >= 1.0)) {
    throw std::invalid_argument("Engine: remote_map_penalty must be finite and >= 1");
  }
  if (config_.hdfs_replication == 0) {
    throw std::invalid_argument("Engine: hdfs_replication must be >= 1");
  }
  config_.faults.validate(cluster_.tracker_count());
  config_.admission.validate();
  config_.elasticity.validate(cluster_.tracker_count());
  fault_rows_.resize(cluster_.tracker_count());
  live_trackers_ = cluster_.tracker_count();
  elastic_on_ = config_.elasticity.any_enabled();
  if (config_.admission.enabled()) {
    admission_ = std::make_unique<AdmissionController>(
        config_.admission, &job_tracker_, config_.cluster.total_slots());
  }
  current_capacity_[0] = config_.cluster.total_map_slots();
  current_capacity_[1] = config_.cluster.total_reduce_slots();
  job_tracker_.set_event_bus(&events_);
  scheduler_->attach(&job_tracker_);
  scheduler_->observe(&events_, nullptr);
  scheduler_->on_cluster_configured(config_.cluster.total_map_slots(),
                                    config_.cluster.total_reduce_slots());
}

void Engine::set_metrics_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
  // 100 ns .. ~1.6 s in 4x steps: covers a no-op select through a full
  // plan-regeneration heartbeat.
  const auto latency = [registry](const char* name) {
    return registry ? &registry->histogram(name, obs::exponential_buckets(100.0, 4.0, 12))
                    : nullptr;
  };
  heartbeat_ns_ = latency("engine.heartbeat_service_ns");
  select_ns_ = latency("engine.select_task_ns");
  scheduler_->observe(&events_, registry);
}

void Engine::record_metrics() {
  if (registry_ == nullptr) return;
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"engine.heartbeats", heartbeats_},
      {"engine.tasks_started", tasks_executed_},
      {"engine.tasks_finished", tasks_finished_},
      {"engine.tasks_failed", tasks_failed_},
      {"engine.attempts_killed", attempts_killed_},
      {"engine.tracker_crashes", tracker_crashes_},
      {"engine.speculative_launched", speculative_launched_},
      {"admission.rejected", workflows_rejected_},
      {"shed.workflows", workflows_shed_},
      {"cluster.decommissions", decommissions_},
      {"cluster.preemptions", preemptions_},
      {"cluster.joins", trackers_joined_},
  };
  for (const auto& [name, n] : counts) registry_->counter(name).add(n);
  const std::pair<const char*, double> levels[] = {
      {"overload.pending", job_tracker_.active_workflows()},
      {"overload.pending_peak", pending_peak_},
      {"cluster.free_map_slots", cluster_.total_free(SlotType::kMap)},
      {"cluster.free_reduce_slots", cluster_.total_free(SlotType::kReduce)},
  };
  for (const auto& [name, v] : levels) registry_->gauge(name).set(v);
  scheduler_->record_metrics(*registry_);
}

void Engine::submit(wf::WorkflowSpec spec) {
  if (started_) throw std::logic_error("Engine::submit after run()");
  wf::validate(spec);
  submissions_.push_back(std::move(spec));
}

Duration Engine::actual_duration(Duration estimated) {
  double d = static_cast<double>(estimated) * config_.duration_scale;
  if (config_.duration_jitter_sigma > 0.0) {
    // Log-normal multiplicative noise with median 1: durations stay
    // positive and the estimate is the median of the actual distribution.
    d *= rng_.log_normal(0.0, config_.duration_jitter_sigma);
  }
  return std::max<Duration>(1, static_cast<Duration>(std::llround(d)));
}

void Engine::run() {
  if (started_) throw std::logic_error("Engine::run called twice");
  started_ = true;

  const std::size_t expected_workflows = submissions_.size();
  if (expected_workflows == 0) {  // nothing to run
    record_metrics();
    return;
  }

  // Hand the scheduler the full submission list before the first event so
  // it can precompute (WOHA's parallel plan prewarm). Only when admission
  // control is off: every spec is then guaranteed to reach
  // on_workflow_submitted, keeping cache tallies identical to serial.
  if (!admission_) scheduler_->on_pending_submissions(submissions_);

  // Schedule workflow submissions.
  for (std::size_t i = 0; i < submissions_.size(); ++i) {
    const SimTime at = std::max<SimTime>(0, submissions_[i].submit_time);
    first_submit_ = std::min(first_submit_, at);
    schedule_at(at, EventKind::kSubmit, i);
  }

  // Fault-injection schedule: explicit outages plus MTBF-driven crashes.
  // Fault RNG streams are independent of rng_, so enabling churn never
  // perturbs task-duration or locality draws.
  if (config_.faults.churn_enabled()) {
    for (std::size_t i = 0; i < config_.faults.events.size(); ++i) {
      schedule_at(config_.faults.events[i].crash_time, EventKind::kScriptedCrash, i);
    }
    if (config_.faults.tracker_mtbf > 0.0) {
      fault_rng_root_ = Rng(config_.faults.seed);
      tracker_fault_rngs_.reserve(cluster_.tracker_count());
      for (std::size_t i = 0; i < cluster_.tracker_count(); ++i) {
        tracker_fault_rngs_.push_back(fault_rng_root_.split());
      }
      for (std::size_t i = 0; i < cluster_.tracker_count(); ++i) {
        schedule_next_mtbf_crash(i);
      }
    }
  }

  // Elastic-membership schedule: decommissions, preemption waves, joins,
  // and the autoscaler tick. None of this consumes rng_ draws, so enabling
  // elasticity never perturbs task-duration or locality sequences.
  if (elastic_on_) {
    last_capacity_change_ = first_submit_ == kTimeInfinity ? 0 : first_submit_;
    const ElasticityConfig& el = config_.elasticity;
    for (std::size_t i = 0; i < el.decommissions.size(); ++i) {
      schedule_at(el.decommissions[i].start_time, EventKind::kDecommission, i);
    }
    for (std::size_t i = 0; i < el.preemption_waves.size(); ++i) {
      schedule_at(el.preemption_waves[i].time, EventKind::kPreemptionWave, i);
    }
    for (std::size_t i = 0; i < el.joins.size(); ++i) {
      ++pending_joins_;
      schedule_at(el.joins[i].time, EventKind::kJoin, i);
    }
    if (el.autoscaler.enabled) {
      schedule_at(el.autoscaler.check_period, EventKind::kAutoscale);
    }
  }

  // Heartbeats, staggered so the master sees a steady request stream.
  const auto hb = static_cast<std::uint64_t>(config_.cluster.heartbeat_period);
  for (std::size_t i = 0; i < cluster_.tracker_count(); ++i) {
    sim_.add_beat(static_cast<std::uint32_t>(i),
                  static_cast<SimTime>(i * hb / cluster_.tracker_count()));
  }
  // Heartbeats repeat forever, so the run stops on its own condition,
  // checked after every event: every submitted workflow is done.
  while (sim_.step(config_.horizon, *this)) {
    if (job_tracker_.workflow_count() + workflows_rejected_ == expected_workflows &&
        job_tracker_.active_workflows() == 0) {
      break;  // all submitted workflows finished (or failed, or were refused)
    }
    if (live_trackers_ == 0 && pending_restarts_ == 0 && pending_joins_ == 0 &&
        !config_.elasticity.autoscaler.enabled) {
      // Every tracker is down and none will come back: no event can make
      // progress, so stop instead of heartbeating an empty cluster forever.
      WOHA_LOG(LogLevel::kWarn, "engine")
          << "t=" << sim_.now() << " cluster permanently dead; stopping run";
      break;
    }
  }
  record_metrics();
}

bool Engine::live(const sim::Event& ev) const {
  if (static_cast<EventKind>(ev.kind) != EventKind::kFinish) return true;
  const Attempt* a = attempts_.find(finish_ref(ev));
  return a != nullptr && !cluster_.tracker(a->tracker).down();
}

void Engine::fire(const sim::Event& ev) {
  const std::size_t tracker = ev.a;
  // Loss detection, restart and drain completion stand down once their
  // tracker moved past the epoch they were scheduled under (end_drain
  // checks its own).
  const auto current = [&] { return cluster_.tracker(tracker).epoch() == ev.b; };
  switch (static_cast<EventKind>(ev.kind)) {
    case EventKind::kSubmit:
      do_submit(std::move(submissions_[ev.a]));
      break;
    case EventKind::kActivate:
      activate_job(JobRef{ev.a, static_cast<std::uint32_t>(ev.b)});
      break;
    case EventKind::kFinish:
      finish_attempt(finish_ref(ev));
      break;
    case EventKind::kScriptedCrash: {
      const TrackerFaultEvent& crash = config_.faults.events[ev.a];
      crash_tracker(crash.tracker, crash.restart_time);
      break;
    }
    case EventKind::kMtbfCrash:
      crash_tracker(tracker, sim_.now() + config_.faults.tracker_restart_delay);
      break;
    case EventKind::kDetectLoss:
      if (current()) detect_tracker_loss(tracker);
      break;
    case EventKind::kRestart:
      if (current()) restart_tracker(tracker);
      break;
    case EventKind::kDrainEnd:
      end_drain(tracker, ev.b);
      break;
    case EventKind::kDrainComplete:
      if (current()) retire_tracker(tracker, 0);
      break;
    case EventKind::kDecommission: {
      const TrackerDecommissionEvent& d = config_.elasticity.decommissions[ev.a];
      begin_decommission(d.tracker, d.drain_lease);
      break;
    }
    case EventKind::kPreemptionWave:
      preemption_wave(config_.elasticity.preemption_waves[ev.a]);
      break;
    case EventKind::kJoin:
      --pending_joins_;
      join_trackers(config_.elasticity.joins[ev.a].count);
      break;
    case EventKind::kAutoscale:
      autoscale_tick();
      // Re-armed after the tick, so what the tick scheduled for the next
      // one's instant fires first.
      schedule_after(config_.elasticity.autoscaler.check_period, EventKind::kAutoscale);
      break;
  }
}

void Engine::do_submit(wf::WorkflowSpec spec) {
  ++workflows_submitted_;
  if (admission_) {
    const AdmissionDecision decision = admission_->decide(spec, sim_.now());
    if (!decision.admit) {
      ++workflows_rejected_;
      WorkflowResult r;
      r.name = spec.name;
      r.submit_time = sim_.now();
      r.deadline = spec.relative_deadline > 0 ? sim_.now() + spec.relative_deadline
                                              : kTimeInfinity;
      r.rejected = true;
      if (events_.active()) {
        events_.publish(sim_.now(),
                        obs::WorkflowRejected{
                            static_cast<std::uint32_t>(workflows_submitted_ - 1),
                            spec.name, r.deadline, decision.reason});
      }
      rejected_results_.push_back(std::move(r));
      return;
    }
  }
  const WorkflowId id = job_tracker_.add_workflow(std::move(spec), sim_.now());
  WorkflowRuntime& wf_rt = job_tracker_.workflow(id);
  scheduler_->on_workflow_submitted(id, sim_.now());
  // Initially runnable jobs go through the same activation path as unlocked
  // dependents (submitter map task latency).
  for (std::uint32_t j : wf::initial_jobs(wf_rt.spec())) {
    const JobRef ref{id.value(), j};
    wf_rt.job(j).mark_activating();
    schedule_after(config_.activation_latency, EventKind::kActivate, ref.workflow,
                   ref.job);
  }
  if (admission_) enforce_pending_budget();
  // Pending-set accounting (cheap: one compare), kept even without
  // admission so the admit-all baseline of the rho sweep reports its
  // (unbounded) pending_peak.
  pending_peak_ = std::max(pending_peak_, job_tracker_.active_workflows());
}

void Engine::enforce_pending_budget() {
  const AdmissionConfig& ac = admission_->config();
  if (ac.policy != AdmissionPolicy::kShedLatestDeadlineFirst) return;
  while (job_tracker_.active_workflows() > ac.max_pending_workflows) {
    const std::optional<std::uint32_t> victim = admission_->pick_shed_victim();
    if (!victim) break;
    shed_workflow(*victim, sim_.now());
  }
}

void Engine::shed_workflow(std::uint32_t workflow, SimTime now) {
  WorkflowRuntime& wf_rt = job_tracker_.workflow(WorkflowId(workflow));
  if (wf_rt.failed() || wf_rt.finished()) return;
  wf_rt.mark_shed();
  ++workflows_shed_;

  const std::vector<SlotRef> victims = attempts_.of_workflow(workflow);
  for (const SlotRef victim : victims) kill_attempt(victim, obs::KillCause::kShed);
  const auto killed = static_cast<std::uint32_t>(victims.size());
  if (events_.active()) {
    events_.publish(now, obs::WorkflowShed{workflow, wf_rt.deadline(), killed});
  }
  job_tracker_.count_workflow_finished();
  scheduler_->on_workflow_failed(WorkflowId(workflow), now);
}

void Engine::activate_job(JobRef ref) {
  // The workflow may have failed while the submitter task was loading.
  if (job_tracker_.workflow(WorkflowId(ref.workflow)).failed()) return;
  job_tracker_.job(ref).mark_active(sim_.now());
  if (events_.active()) {
    events_.publish(sim_.now(), obs::JobActivated{ref.workflow, ref.job});
  }
  scheduler_->on_job_activated(ref, sim_.now());
}

void Engine::heartbeat(std::size_t tracker_index) {
  // Once every workflow finished the beats do nothing, so run() terminates.
  if (job_tracker_.active_workflows() == 0 && job_tracker_.workflow_count() > 0) {
    return;
  }
  // Down nodes do not heartbeat, and draining ones keep running what they
  // have but take no new work, so their heartbeats schedule nothing
  // (skipping them here also keeps speculation off a leaving node).
  const TrackerState& tracker = cluster_.tracker(tracker_index);
  if (!tracker.takes_work()) return;

  // Wall-clock service time is only measured with a registry attached; the
  // clock reads themselves are part of the cost we promise to avoid (a
  // timer never touches the clock when its histogram is null).
  const obs::ScopedTimer hb_timer(heartbeat_ns_);

  // Per-job blacklisting: the offered slot carries this tracker's blacklist
  // so a blacklisted job can still run elsewhere but never again on this
  // node. Until the first blacklisting the row is not even read.
  const Blacklist* blacklist =
      blacklistings_ == 0 ? nullptr : &fault_rows_[tracker_index].blacklist;
  heartbeat_tracker_ = tracker_index;  // retargets start_sink_
  if (!start_sink_) {
    start_sink_ = [this](JobRef ref) {
      start_task(ref, heartbeat_slot_type_, heartbeat_tracker_);
    };
  }

  // Offer every idle slot on this tracker; maps first (Hadoop-1's
  // assignTasks fills map slots before reduce slots). All same-type slots
  // go out as ONE consult: select_tasks is contractually decision-equivalent
  // to the sequential consult-start loop, and the start sink runs
  // start_task between picks.
  std::uint32_t assigned[2] = {0, 0};
  for (const SlotType type : {SlotType::kMap, SlotType::kReduce}) {
    const auto ti = static_cast<std::size_t>(type);
    const std::uint32_t limit = tracker.free_slots(type);
    if (limit > 0) {
      const SlotOffer offer{type, tracker_index, blacklist};
      if (job_tracker_.available_jobs(type) == 0) {
        // No job anywhere has a task of this type, and select_task may only
        // return a job that has one: the master's answer is "nothing"
        // whichever scheduler runs, so the engine gives it itself. It is
        // still one select call.
        ++select_calls_;
        if (events_.active()) {
          empty_decision_.begin(sim_.now(), type, tracker_index,
                                [this] { return scheduler_->name(); });
          empty_decision_.publish(events_);
        }
      } else {
        heartbeat_slot_type_ = type;  // retargets start_sink_
        const obs::ScopedTimer select_timer(select_ns_);
        const std::uint32_t started =
            scheduler_->select_tasks(offer, limit, start_sink_, sim_.now());
        // One consult stands for `started` successful sequential consults
        // plus, when it under-filled, the final empty one.
        select_calls_ += started + (started < limit ? 1 : 0);
        assigned[ti] += started;
      }
    }
    // Slots no pending task wants may still host speculative backups.
    if (config_.faults.speculative_execution) {
      while (tracker.free_slots(type) > 0 && try_speculate(type, tracker_index)) {
        ++assigned[static_cast<std::size_t>(type)];
      }
    }
  }

  ++heartbeats_;
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::HeartbeatServed{tracker_index, assigned[0], assigned[1],
                                         tracker.free_slots(SlotType::kMap),
                                         tracker.free_slots(SlotType::kReduce)});
  }
}

bool Engine::map_is_local(JobRef ref, std::size_t tracker_index) {
  // Randomized HDFS placement: each map attempt's split has
  // `hdfs_replication` replicas on uniformly random trackers. We draw the
  // replica set lazily per attempt rather than materializing a block map —
  // statistically equivalent for uniform placement, and it keeps memory
  // flat for huge jobs.
  (void)ref;
  const std::size_t n = cluster_.tracker_count();
  for (std::uint32_t r = 0; r < config_.hdfs_replication; ++r) {
    if (static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1)) == tracker_index) {
      return true;
    }
  }
  return false;
}

Duration Engine::draw_attempt(JobRef ref, SlotType type, std::size_t tracker_index,
                              bool& will_fail) {
  // The draw order below (jitter, locality, failure) replays the exact
  // pre-fault-model RNG sequence: with faults disabled, runs stay
  // bit-identical to builds that predate the fault subsystem.
  const JobInProgress& job = job_tracker_.job(ref);
  const Duration est =
      type == SlotType::kMap ? job.spec().map_duration : job.spec().reduce_duration;
  Duration dur = actual_duration(est);
  if (type == SlotType::kMap) {
    ++total_maps_;
    if (config_.remote_map_penalty > 1.0 && !map_is_local(ref, tracker_index)) {
      dur = static_cast<Duration>(
          std::llround(static_cast<double>(dur) * config_.remote_map_penalty));
    } else {
      ++local_maps_;
    }
  }

  // Failure injection: the attempt dies at a uniformly random point of its
  // execution, holding (and wasting) the slot until then.
  will_fail = false;
  if (config_.task_failure_prob > 0.0 && rng_.chance(config_.task_failure_prob)) {
    will_fail = true;
    dur = std::max<Duration>(1, static_cast<Duration>(
                                    static_cast<double>(dur) * rng_.uniform()));
  }
  return dur;
}

void Engine::start_task(JobRef ref, SlotType type, std::size_t tracker_index) {
  JobInProgress& job = job_tracker_.job(ref);
  if (!job.has_available(type)) {
    throw std::logic_error("Engine: scheduler returned job without available " +
                           std::string(to_string(type)) + " task (" +
                           scheduler_->name() + ")");
  }
  const std::uint32_t retry_level = job.start_task(type);
  job_tracker_.workflow(WorkflowId(ref.workflow)).count_scheduled_task();
  launch_attempt(ref, type, tracker_index, retry_level, SlotRef{});
}

SlotRef Engine::launch_attempt(JobRef ref, SlotType type, std::size_t tracker_index,
                               std::uint32_t retry_level, SlotRef original) {
  cluster_.occupy(tracker_index, type);
  const std::uint64_t id = ++tasks_executed_;
  bool will_fail = false;
  const Duration dur = draw_attempt(ref, type, tracker_index, will_fail);
  busy_ms_[static_cast<std::size_t>(type)] += static_cast<double>(dur);

  const bool speculative = static_cast<bool>(original);
  if (events_.active()) {
    if (speculative) {
      const std::uint64_t original_id = attempts_.at(original).id;
      events_.publish(sim_.now(), obs::SpeculativeLaunched{id, original_id, ref.workflow,
                                                           ref.job, type, tracker_index});
    }
    events_.publish(sim_.now(), obs::TaskStarted{id, ref.workflow, ref.job, type,
                                                 tracker_index, dur, speculative});
  }
  const Attempt attempt{id,          ref,       type,        tracker_index, sim_.now(),
                        dur,         retry_level, will_fail, speculative,   original};
  const SlotRef slot = attempts_.insert(attempt);
  schedule_after(dur, EventKind::kFinish, slot.slot, slot.generation);
  spec_candidate_add(slot, attempt);
  return slot;
}

Attempt Engine::remove_attempt(SlotRef attempt) {
  Attempt a = attempts_.take(attempt);
  spec_candidates_[static_cast<std::size_t>(a.type)].erase({a.tracker, a.id, attempt});
  // The speculation twin, if it still runs, carries the task on alone and
  // may receive a backup of its own again.
  if (Attempt* rival = attempts_.find(a.rival)) {
    rival->rival = SlotRef{};
    spec_candidate_add(a.rival, *rival);
  }
  cluster_.release(a.tracker, a.type);
  maybe_complete_drain(a.tracker);
  return a;
}

void Engine::spec_candidate_add(SlotRef ref, const Attempt& a) {
  if (!config_.faults.speculative_execution) return;
  if (a.speculative || a.rival) return;
  spec_candidates_[static_cast<std::size_t>(a.type)].emplace(a.tracker, a.id, ref);
}

void Engine::finish_attempt(SlotRef attempt) {
  const Attempt a = remove_attempt(attempt);
  JobInProgress& job = job_tracker_.job(a.ref);

  const auto publish_ended = [&](bool failed) {
    if (!events_.active()) return;
    events_.publish(sim_.now(),
                    obs::TaskEnded{a.id, a.ref.workflow, a.ref.job, a.type,
                                   a.tracker, failed, false, a.speculative,
                                   a.duration});
  };

  if (a.will_fail) {
    ++tasks_failed_;
    record_attempt_failure(a.ref, a.tracker);
    if (a.rival) {
      // The speculation twin keeps running the task alone; this failure
      // burns an attempt but re-queues nothing.
      publish_ended(true);
      return;
    }
    if (config_.faults.max_attempts > 0 &&
        a.retry_level + 1 >= config_.faults.max_attempts) {
      publish_ended(true);
      fail_workflow(a.ref.workflow, sim_.now());
      return;
    }
    job.fail_task(a.type, a.retry_level + 1);
    scheduler_->on_task_finished(a.ref, a.type, sim_.now());
    publish_ended(true);
    // The task re-enters the pending pool; the next heartbeat with a free
    // slot may schedule a fresh attempt (Hadoop's retry behaviour).
    return;
  }

  // Success. A speculation race has a winner: kill the loser (first finish
  // wins, Hadoop's speculative-execution contract).
  if (a.rival) {
    const Attempt loser = kill_attempt(a.rival, obs::KillCause::kSpeculationRace);
    speculative_wasted_ms_ += static_cast<double>(loser.duration);
    if (a.speculative) ++speculative_won_;
  }

  // Hadoop-1 stores map outputs on the slave's local disk until the job's
  // reduces fetch them; remember where they live so a node loss can
  // invalidate them. Map-only jobs commit straight to HDFS — nothing to
  // track.
  if (a.type == SlotType::kMap && config_.faults.churn_enabled() &&
      job.spec().num_reduces > 0) {
    auto& outputs = fault_rows_[a.tracker].map_outputs;
    auto it = std::ranges::lower_bound(outputs, a.ref, {}, &MapOutput::first);
    if (it == outputs.end() || it->first != a.ref) it = outputs.insert(it, {a.ref, 0});
    ++it->second;
  }

  const bool job_done = job.finish_task(a.type, sim_.now());
  ++tasks_finished_;
  scheduler_->on_task_finished(a.ref, a.type, sim_.now());
  publish_ended(false);
  if (!job_done) return;

  WorkflowRuntime& wf_rt = job_tracker_.workflow(WorkflowId(a.ref.workflow));
  if (events_.active()) {
    events_.publish(sim_.now(), obs::JobCompleted{a.ref.workflow, a.ref.job});
  }
  const auto unlocked = wf_rt.on_job_complete(a.ref.job, sim_.now());
  scheduler_->on_job_completed(a.ref, sim_.now());
  for (std::uint32_t j : unlocked) {
    const JobRef dep{a.ref.workflow, j};
    wf_rt.job(j).mark_activating();
    schedule_after(config_.activation_latency, EventKind::kActivate, dep.workflow,
                   dep.job);
  }
  if (wf_rt.finished()) {
    job_tracker_.count_workflow_finished();
    if (events_.active()) {
      events_.publish(sim_.now(),
                      obs::WorkflowCompleted{
                          a.ref.workflow,
                          wf_rt.finish_time() <= wf_rt.deadline()});
    }
    scheduler_->on_workflow_completed(WorkflowId(a.ref.workflow), sim_.now());
  }
}

Attempt Engine::kill_attempt(SlotRef attempt, obs::KillCause cause) {
  Attempt a = remove_attempt(attempt);
  // A zombie stopped executing when its node crashed; anything else stops
  // now. Busy time was charged for the full scheduled duration at start;
  // refund the part that never executed.
  const TrackerState& tracker = cluster_.tracker(a.tracker);
  const SimTime stop_time = tracker.down() ? tracker.crash_time() : sim_.now();
  const Duration executed = std::max<Duration>(0, stop_time - a.start_time);
  busy_ms_[static_cast<std::size_t>(a.type)] -=
      static_cast<double>(a.duration - executed);
  a.duration = executed;
  ++attempts_killed_;
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::TaskEnded{a.id, a.ref.workflow, a.ref.job, a.type,
                                   a.tracker, false, true, a.speculative,
                                   executed, cause});
  }
  return a;
}

void Engine::crash_tracker(std::size_t tracker_index, SimTime restart_time) {
  // Overlapping schedules collapse into one outage, and a retired
  // (decommissioned/preempted) node no longer exists to crash. A *draining*
  // node can still crash: the crash machinery then owns it, and the pending
  // drain-end event stands down on the epoch the crash bumps.
  if (cluster_.tracker(tracker_index).life() != TrackerState::Life::kUp) return;
  const std::uint64_t epoch = cluster_.crash(tracker_index, sim_.now());
  --live_trackers_;
  ++tracker_crashes_;
  if (events_.active()) {
    events_.publish(sim_.now(), obs::TrackerCrashed{tracker_index, restart_time});
  }

  // The node stops executing instantly, but the master stays oblivious: the
  // attempts keep their records and slots until the lease expires or the
  // node re-registers. Their finish events never fire (see live()).
  schedule_after(config_.faults.expiry_interval, EventKind::kDetectLoss, tracker_index,
                 epoch);
  if (restart_time != kTimeInfinity) {
    ++pending_restarts_;
    schedule_at(restart_time, EventKind::kRestart, tracker_index, epoch);
  }
}

void Engine::restart_tracker(std::size_t tracker_index) {
  // Re-registration tells the master about the loss immediately, even if
  // the lease has not expired yet (Hadoop treats a re-registering tracker
  // as a fresh node with empty disks).
  detect_tracker_loss(tracker_index);
  // A fresh worker: a drain that was in flight when it crashed is
  // forgotten, and its drain-end event dies on the epoch bump.
  cluster_.restart(tracker_index);
  ++live_trackers_;
  --pending_restarts_;
  const TrackerState& ts = cluster_.tracker(tracker_index);
  account_capacity_change(static_cast<std::int64_t>(ts.capacity(SlotType::kMap)),
                          static_cast<std::int64_t>(ts.capacity(SlotType::kReduce)));
  if (events_.active()) {
    events_.publish(sim_.now(), obs::TrackerRestarted{tracker_index});
  }
  if (config_.faults.tracker_mtbf > 0.0) schedule_next_mtbf_crash(tracker_index);
}

void Engine::detect_tracker_loss(std::size_t tracker_index) {
  const TrackerState& tracker = cluster_.tracker(tracker_index);
  if (tracker.life() != TrackerState::Life::kDown) return;
  const std::uint32_t killed = evict_tracker(tracker_index, obs::KillCause::kNodeLoss);
  cluster_.declare_lost(tracker_index);
  const std::uint32_t outputs_lost = drop_tracker(tracker_index);
  if (events_.active()) {
    events_.publish(sim_.now(), obs::TrackerLost{tracker_index, tracker.crash_time(),
                                                 killed, outputs_lost});
  }
}

std::uint32_t Engine::evict_tracker(std::size_t tracker_index, obs::KillCause cause) {
  // KILLED, not FAILED: losing the node never counts against a task's
  // attempt budget.
  const std::vector<SlotRef> victims = attempts_.on_tracker(tracker_index);
  for (const SlotRef victim : victims) {
    const Attempt a = kill_attempt(victim, cause);
    if (a.rival) continue;  // the task lives on in its speculation twin
    job_tracker_.job(a.ref).requeue_running(a.type, a.retry_level);
    scheduler_->on_task_finished(a.ref, a.type, sim_.now());
    scheduler_->on_tasks_lost(a.ref, a.type, 1, sim_.now());
  }
  return static_cast<std::uint32_t>(victims.size());
}

std::uint32_t Engine::drop_tracker(std::size_t tracker_index) {
  // Completed map outputs stranded on the node's local disk leave with it:
  // unfetched partitions are gone, so those maps re-execute from scratch
  // (fresh tasks — re-execution is not a retry).
  std::uint32_t lost = 0;
  auto& outputs = fault_rows_[tracker_index].map_outputs;
  for (const auto& [ref, count] : outputs) {
    WorkflowRuntime& w = job_tracker_.workflow(WorkflowId(ref.workflow));
    if (w.finished() || w.failed()) continue;
    JobInProgress& job = job_tracker_.job(ref);
    if (job.complete() || job.state() == JobState::kFailed) continue;
    job.invalidate_finished_maps(count);
    map_outputs_lost_ += count;
    lost += count;
    scheduler_->on_tasks_lost(ref, SlotType::kMap, count, sim_.now());
  }
  outputs.clear();
  const TrackerState& ts = cluster_.tracker(tracker_index);
  account_capacity_change(-static_cast<std::int64_t>(ts.capacity(SlotType::kMap)),
                          -static_cast<std::int64_t>(ts.capacity(SlotType::kReduce)));
  return lost;
}

void Engine::fail_workflow(std::uint32_t workflow, SimTime now) {
  WorkflowRuntime& wf_rt = job_tracker_.workflow(WorkflowId(workflow));
  if (wf_rt.failed() || wf_rt.finished()) return;
  wf_rt.mark_failed();
  ++workflows_failed_;
  if (events_.active()) {
    events_.publish(now, obs::WorkflowFailed{workflow});
  }

  for (const SlotRef victim : attempts_.of_workflow(workflow)) {
    kill_attempt(victim, obs::KillCause::kWorkflowFailed);
  }
  job_tracker_.count_workflow_finished();
  scheduler_->on_workflow_failed(WorkflowId(workflow), now);
}

void Engine::record_attempt_failure(JobRef ref, std::size_t tracker_index) {
  if (config_.faults.blacklist_task_failures == 0) return;
  const auto key = std::make_pair(ref, tracker_index);
  if (++job_tracker_failures_[key] < config_.faults.blacklist_task_failures) return;
  Blacklist& refused = fault_rows_[tracker_index].blacklist;
  if (std::ranges::find(refused, ref) != refused.end()) return;
  // Hadoop-1 caps per-job blacklisting at 25% of the cluster (JobInProgress
  // CLUSTER_BLACKLIST_PERCENT) so a flaky job can never starve itself of
  // every tracker. Always leave the majority of nodes usable.
  const std::size_t cap =
      std::max<std::size_t>(1, cluster_.tracker_count() / 4);
  std::size_t& already = blacklisted_trackers_[ref];
  if (already >= cap) return;
  ++already;
  refused.push_back(ref);
  ++blacklistings_;
  WOHA_LOG(LogLevel::kInfo, "engine")
      << "t=" << sim_.now() << " tracker " << tracker_index
      << " blacklisted for job w" << ref.workflow << "/j" << ref.job;
}

bool Engine::try_speculate(SlotType type, std::size_t tracker_index) {
  const SimTime now = sim_.now();
  // Deterministic straggler scan over the candidate index: (tracker
  // ascending, launch order within tracker) — the exact order the old
  // every-tracker sweep produced, but visiting only attempts that could
  // actually receive a backup (non-speculative, no rival yet). The
  // duration-based slowness test stands in for Hadoop's progress-rate
  // estimate (the simulator knows the true remaining time); an attempt on a
  // silently-dead node reports no progress at all, which is exactly what
  // LATE flags first — so zombies are always eligible.
  const SlotOffer offer{type, tracker_index, &fault_rows_[tracker_index].blacklist};
  for (const auto& [cand_tracker, id, slot] :
       spec_candidates_[static_cast<std::size_t>(type)]) {
    const Attempt& a = attempts_.at(slot);
    if (a.tracker == tracker_index) continue;  // back up on another node
    if (now - a.start_time < config_.faults.speculative_min_runtime) continue;
    const bool zombie = cluster_.tracker(a.tracker).down();
    if (!zombie) {
      const JobInProgress& job = job_tracker_.job(a.ref);
      const Duration est = type == SlotType::kMap ? job.spec().map_duration
                                                  : job.spec().reduce_duration;
      if (static_cast<double>(a.duration) <=
          config_.faults.speculative_slowness * static_cast<double>(est)) {
        continue;  // not slow enough to bother
      }
      if (now + est >= a.start_time + a.duration) {
        continue;  // a backup would not beat the original anyway
      }
    }
    if (!offer.allows(a.ref)) continue;

    // Launch the backup. It occupies a slot and burns budget metrics but is
    // NOT new task progress: no job/rho accounting. A launch moves no
    // record, so `a` stays valid.
    ++speculative_launched_;
    attempts_.at(slot).rival =
        launch_attempt(a.ref, type, tracker_index, a.retry_level, slot);
    // The original now has a rival: retire it from the candidate set (the
    // key is a copy: `slot` lives in the node this erases). We return
    // immediately, so the invalidated loop iterator is never advanced.
    spec_candidates_[static_cast<std::size_t>(type)].erase({a.tracker, a.id, slot});
    return true;
  }
  return false;
}

void Engine::schedule_next_mtbf_crash(std::size_t tracker_index) {
  if (config_.faults.tracker_mtbf <= 0.0) return;
  const double wait =
      tracker_fault_rngs_[tracker_index].exponential(1.0 / config_.faults.tracker_mtbf);
  const Duration delay = std::max<Duration>(1, static_cast<Duration>(std::llround(wait)));
  schedule_after(delay, EventKind::kMtbfCrash, tracker_index);
}

// ---- elastic membership -----------------------------------------------------

void Engine::begin_decommission(std::size_t tracker_index, Duration lease) {
  // Already leaving or down: a decommission of a dead/draining/retired node
  // is a no-op (the operator's intent is already being honoured).
  if (!cluster_.tracker(tracker_index).takes_work()) return;
  const std::uint64_t epoch =
      cluster_.begin_drain(tracker_index, TrackerState::Drain::kDecommission);
  const SimTime lease_deadline = sim_.now() + lease;
  if (events_.active()) {
    events_.publish(sim_.now(), obs::TrackerDraining{tracker_index, lease_deadline});
  }
  if (cluster_.tracker(tracker_index).idle()) {
    retire_tracker(tracker_index, 0);
    return;
  }
  schedule_at(lease_deadline, EventKind::kDrainEnd, tracker_index, epoch);
}

void Engine::end_drain(std::size_t tracker_index, std::uint64_t epoch) {
  // Stale once the tracker moved on: it retired early, or a crash won the
  // race mid-drain and lease-expiry loss detection owns the node now (the
  // KILLED + re-queue semantics are the crash path's).
  const TrackerState& tracker = cluster_.tracker(tracker_index);
  if (tracker.epoch() != epoch) return;
  // Master-initiated eviction: unlike crash loss there is no detection
  // delay, and like crash loss the kills are never charged to budgets.
  const std::uint32_t migrated =
      evict_tracker(tracker_index, tracker.drain() == TrackerState::Drain::kPreemption
                                       ? obs::KillCause::kPreemption
                                       : obs::KillCause::kDrainMigration);
  drain_migrated_ += migrated;
  retire_tracker(tracker_index, migrated);
}

void Engine::retire_tracker(std::size_t tracker_index, std::uint32_t migrated) {
  const bool preempted =
      cluster_.tracker(tracker_index).drain() == TrackerState::Drain::kPreemption;
  cluster_.retire(tracker_index);  // pending drain-end / completion events go stale
  // Map outputs stranded on the node's local disk leave with it, exactly as
  // in Hadoop's decommission: completed maps of in-flight jobs re-execute.
  drop_tracker(tracker_index);
  --live_trackers_;
  ++(preempted ? preemptions_ : decommissions_);
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::TrackerDecommissioned{tracker_index, migrated});
  }
}

void Engine::maybe_complete_drain(std::size_t tracker_index) {
  if (!elastic_on_) return;
  const TrackerState& tracker = cluster_.tracker(tracker_index);
  // Preempted nodes terminate at the warned instant no matter what; only a
  // graceful decommission of an up node retires early when it goes idle.
  if (tracker.life() != TrackerState::Life::kUp ||
      tracker.drain() != TrackerState::Drain::kDecommission) {
    return;
  }
  if (!tracker.idle()) return;
  // Same-tick deferral: let the in-flight attempt bookkeeping (TaskEnded
  // events, scheduler notifications) settle before the node retires, so
  // observers never see a retirement precede its last attempt's end. A
  // draining node starts nothing new, so an unmoved epoch means it is
  // still up, draining and idle.
  schedule_at(sim_.now(), EventKind::kDrainComplete, tracker_index, tracker.epoch());
}

void Engine::preemption_wave(const PreemptionWave& wave) {
  // Victims: the highest-indexed trackers that are up and not already
  // leaving — spot markets reclaim the most recently granted capacity
  // first. Warned in ascending index order for a deterministic stream.
  std::vector<std::size_t> victims;
  for (std::size_t i = cluster_.tracker_count();
       i-- > 0 && victims.size() < wave.count;) {
    if (cluster_.tracker(i).takes_work()) victims.push_back(i);
  }
  std::reverse(victims.begin(), victims.end());
  for (const std::size_t i : victims) {
    const std::uint64_t epoch =
        cluster_.begin_drain(i, TrackerState::Drain::kPreemption);
    const SimTime termination = sim_.now() + wave.warning;
    if (events_.active()) {
      events_.publish(sim_.now(), obs::PreemptionWarning{i, termination});
    }
    schedule_at(termination, EventKind::kDrainEnd, i, epoch);
  }
}

void Engine::join_trackers(std::uint32_t count) {
  for (std::uint32_t n = 0; n < count; ++n) {
    const std::size_t i = cluster_.add_tracker();
    attempts_.add_tracker();
    fault_rows_.emplace_back();
    if (config_.faults.tracker_mtbf > 0.0) {
      // Fresh split off the fault root: churn on joined nodes is as
      // deterministic as on initial ones (split order == join order).
      tracker_fault_rngs_.push_back(fault_rng_root_.split());
    }
    ++live_trackers_;
    ++trackers_joined_;
    const TrackerState& ts = cluster_.tracker(i);
    account_capacity_change(static_cast<std::int64_t>(ts.capacity(SlotType::kMap)),
                            static_cast<std::int64_t>(ts.capacity(SlotType::kReduce)));
    if (events_.active()) {
      events_.publish(sim_.now(), obs::TrackerJoined{i});
    }
    sim_.add_beat(static_cast<std::uint32_t>(i),
                  sim_.now() + config_.cluster.heartbeat_period);
    if (config_.faults.tracker_mtbf > 0.0) schedule_next_mtbf_crash(i);
  }
}

std::optional<std::size_t> Engine::pick_drain_victim() const {
  for (std::size_t i = cluster_.tracker_count(); i-- > 0;) {
    if (cluster_.tracker(i).takes_work()) return i;
  }
  return std::nullopt;
}

void Engine::autoscale_tick() {
  const AutoscalerConfig& as = config_.elasticity.autoscaler;
  // Draining trackers that are up, a subset of live_trackers_: one that
  // crashed mid-drain is neither.
  std::size_t draining = 0;
  for (std::size_t i = 0; i < cluster_.tracker_count(); ++i) {
    const TrackerState& tracker = cluster_.tracker(i);
    draining += tracker.life() == TrackerState::Life::kUp &&
                tracker.drain() != TrackerState::Drain::kNone;
  }
  AutoscaleSignal sig;
  sig.now = sim_.now();
  sig.live_trackers = live_trackers_;
  sig.draining_trackers = draining;
  sig.pending_workflows = job_tracker_.active_workflows();
  sig.free_map_slots = cluster_.total_free(SlotType::kMap);
  sig.free_reduce_slots = cluster_.total_free(SlotType::kReduce);

  std::int32_t delta = 0;
  if (config_.autoscale_policy) {
    delta = config_.autoscale_policy(sig);
  } else if (sig.pending_workflows > as.scale_out_pending) {
    delta = static_cast<std::int32_t>(as.step);
  } else if (sig.pending_workflows < as.scale_in_pending) {
    delta = -static_cast<std::int32_t>(as.step);
  }

  if (delta > 0) {
    const std::size_t max_trackers =
        as.max_trackers != 0
            ? as.max_trackers
            : 4 * static_cast<std::size_t>(config_.cluster.num_trackers);
    const std::size_t room =
        max_trackers > live_trackers_ ? max_trackers - live_trackers_ : 0;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(delta), room));
    if (n > 0) join_trackers(n);
  } else if (delta < 0) {
    // Draining trackers are still "live" until retired; count them out so
    // repeated ticks cannot drain the cluster past min_trackers.
    std::size_t effective = live_trackers_ - draining;
    for (std::int32_t k = 0; k < -delta; ++k) {
      if (effective <= as.min_trackers) break;
      const std::optional<std::size_t> victim = pick_drain_victim();
      if (!victim) break;
      begin_decommission(*victim, as.drain_lease);
      --effective;
    }
  }
}

void Engine::account_capacity_change(std::int64_t map_delta,
                                     std::int64_t reduce_delta) {
  if (!elastic_on_) return;  // static denominator; nothing to integrate
  const SimTime now = sim_.now();
  if (now > last_capacity_change_) {
    const auto window = static_cast<double>(now - last_capacity_change_);
    offered_slot_ms_[0] += static_cast<double>(current_capacity_[0]) * window;
    offered_slot_ms_[1] += static_cast<double>(current_capacity_[1]) * window;
    last_capacity_change_ = now;
  }
  current_capacity_[0] += map_delta;
  current_capacity_[1] += reduce_delta;
}

RunSummary Engine::summarize() const {
  RunSummary out;
  std::uint32_t with_deadline = 0;
  std::uint32_t missed = 0;
  for (const auto& wf_ptr : job_tracker_.workflows()) {
    const WorkflowRuntime& w = *wf_ptr;
    WorkflowResult r;
    r.id = w.id();
    r.name = w.spec().name;
    r.submit_time = w.submit_time();
    r.deadline = w.deadline();
    r.finish_time = w.finish_time();
    // Shed workflows read as failed() internally (same teardown guards) but
    // report as shed, not as fault casualties.
    r.shed = w.shed();
    r.failed = w.failed() && !w.shed();
    if (w.finished()) {
      r.workspan = w.finish_time() - w.submit_time();
      r.tardiness = w.deadline() == kTimeInfinity
                        ? 0
                        : std::max<Duration>(0, w.finish_time() - w.deadline());
      r.met_deadline = w.finish_time() <= w.deadline();
      out.makespan = std::max(out.makespan, w.finish_time());
    } else {
      // Unfinished at horizon (or failed permanently): count as a miss with
      // tardiness up to now.
      r.met_deadline = false;
      r.tardiness = w.deadline() == kTimeInfinity
                        ? 0
                        : std::max<Duration>(0, sim_.now() - w.deadline());
    }
    if (w.deadline() != kTimeInfinity) {
      ++with_deadline;
      if (!r.met_deadline) ++missed;
    }
    out.max_tardiness = std::max(out.max_tardiness, r.tardiness);
    out.total_tardiness += r.tardiness;
    out.workflows.push_back(std::move(r));
  }
  // Rejected submissions never entered the JobTracker; they still count as
  // misses when they carried a deadline (turning work away is not free).
  for (const WorkflowResult& r : rejected_results_) {
    if (r.deadline != kTimeInfinity) {
      ++with_deadline;
      ++missed;
    }
    out.workflows.push_back(r);
  }
  out.deadline_miss_ratio =
      with_deadline ? static_cast<double>(missed) / with_deadline : 0.0;

  const SimTime start = first_submit_ == kTimeInfinity ? 0 : first_submit_;
  const double span = static_cast<double>(std::max<SimTime>(1, out.makespan - start));
  const auto& cc = config_.cluster;
  if (elastic_on_) {
    // Offered capacity varied over the run: use the slot-ms integral from
    // first submission to the later of makespan / last capacity change.
    const SimTime end = std::max(out.makespan, last_capacity_change_);
    double offered[2];
    for (std::size_t s = 0; s < 2; ++s) {
      const auto tail = static_cast<double>(
          std::max<SimTime>(0, end - last_capacity_change_));
      offered[s] = offered_slot_ms_[s] +
                   static_cast<double>(current_capacity_[s]) * tail;
      offered[s] = std::max(offered[s], 1.0);
    }
    out.map_slot_utilization = busy_ms_[0] / offered[0];
    out.reduce_slot_utilization = busy_ms_[1] / offered[1];
    out.overall_utilization = (busy_ms_[0] + busy_ms_[1]) / (offered[0] + offered[1]);
  } else {
    out.map_slot_utilization =
        busy_ms_[0] / (span * static_cast<double>(cc.total_map_slots()));
    out.reduce_slot_utilization =
        busy_ms_[1] / (span * static_cast<double>(cc.total_reduce_slots()));
    out.overall_utilization = (busy_ms_[0] + busy_ms_[1]) /
                              (span * static_cast<double>(cc.total_slots()));
  }
  out.tasks_executed = tasks_executed_;
  out.tasks_failed = tasks_failed_;
  out.tasks_finished = tasks_finished_;
  out.events_fired = sim_.events_fired();
  out.heartbeats = heartbeats_;
  out.select_calls = select_calls_;
  out.map_locality_ratio =
      total_maps_ ? static_cast<double>(local_maps_) / static_cast<double>(total_maps_)
                  : 1.0;
  out.tracker_crashes = tracker_crashes_;
  out.attempts_killed = attempts_killed_;
  out.map_outputs_lost = map_outputs_lost_;
  out.workflows_failed = workflows_failed_;
  out.blacklistings = blacklistings_;
  out.speculative_launched = speculative_launched_;
  out.speculative_won = speculative_won_;
  out.speculative_wasted_ms = speculative_wasted_ms_;
  out.workflows_submitted = workflows_submitted_;
  out.workflows_rejected = workflows_rejected_;
  out.workflows_shed = workflows_shed_;
  out.pending_peak = pending_peak_;
  out.tracker_decommissions = decommissions_;
  out.tracker_preemptions = preemptions_;
  out.trackers_joined = trackers_joined_;
  out.drain_migrated = drain_migrated_;
  return out;
}

}  // namespace woha::hadoop
