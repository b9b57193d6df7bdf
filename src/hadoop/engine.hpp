// The simulation engine: wires the discrete-event core, the cluster, the
// JobTracker, and a WorkflowScheduler into a runnable experiment.
//
// Faithfulness notes (all observable in tests):
//  * Scheduling happens only on heartbeats: a slot freed mid-period is not
//    reassigned until its tracker's next heartbeat (Hadoop-1 behaviour;
//    paper: "scheduling events in WOHA are triggered by heartbeat
//    messages").
//  * Each heartbeat lets the scheduler fill every idle slot of that tracker
//    (Hadoop-1 assigns multiple tasks per heartbeat).
//  * Job activation models WOHA's submitter job: when a wjob's last
//    prerequisite finishes, it becomes schedulable only after
//    `activation_latency` (jar loading + task init on a slave).
//  * Actual task durations can deviate from the spec durations the
//    schedulers/plans see, via multiplicative log-normal jitter
//    (duration_jitter_sigma) and a systematic scale factor — used by the
//    estimation-error ablation bench.
//  * Node faults (EngineConfig::faults) follow Hadoop-1 semantics: a
//    crashed TaskTracker goes silent, the JobTracker notices only at lease
//    expiry (or re-registration), running attempts are KILLED and re-queued,
//    and completed map outputs of in-flight jobs die with the node's local
//    disk. See fault.hpp and DESIGN.md ("Fault model").
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hadoop/admission.hpp"
#include "hadoop/attempt_store.hpp"
#include "hadoop/cluster.hpp"
#include "hadoop/fault.hpp"
#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"
#include "obs/decision_publisher.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/simulation.hpp"

namespace woha::hadoop {

/// Snapshot handed to EngineConfig::autoscale_policy on every autoscaler
/// tick. All fields are ground truth at the tick instant.
struct AutoscaleSignal {
  SimTime now = 0;
  /// Trackers that are up (not crashed, not retired) — includes draining.
  std::size_t live_trackers = 0;
  /// Of those, how many are currently draining out.
  std::size_t draining_trackers = 0;
  /// Admitted-and-unfinished workflows (the backlog-pressure signal).
  std::uint32_t pending_workflows = 0;
  std::uint32_t free_map_slots = 0;
  std::uint32_t free_reduce_slots = 0;
};

struct EngineConfig {
  ClusterConfig cluster;
  /// Delay between "all prerequisites finished" and "job schedulable"
  /// (submitter map task: jar load + split init). The paper's design shifts
  /// this cost off the master; it still takes wall-clock time on a slave.
  Duration activation_latency = seconds(3);
  /// Multiplicative log-normal sigma applied to actual task durations
  /// (0 = deterministic: actual == estimated).
  double duration_jitter_sigma = 0.0;
  /// Systematic scale on actual durations (1.0 = estimates are unbiased).
  /// The plan generator always sees the *spec* durations, so values != 1
  /// model estimation error.
  double duration_scale = 1.0;
  /// RNG seed for duration jitter and tracker selection tie-breaks.
  std::uint64_t seed = 1;
  /// Stop the simulation at this time even if work remains (safety net).
  SimTime horizon = kTimeInfinity;

  // --- failure injection -------------------------------------------------
  /// Probability that a task attempt fails (at a uniformly random point of
  /// its execution). Failed attempts release their slot and the task
  /// returns to the pending pool, exactly like a Hadoop task retry.
  /// p == 1.0 is allowed (every attempt fails) — only meaningful together
  /// with faults.max_attempts > 0.
  double task_failure_prob = 0.0;

  /// Node-level fault model: tracker churn, loss detection, attempt
  /// budgets, blacklisting, speculative execution. Defaults disable
  /// everything, leaving the engine bit-identical to the fault-free build.
  FaultConfig faults;

  // --- overload & elasticity ---------------------------------------------
  /// Admission control and deadline-aware load shedding at submission time
  /// (admission.hpp). Default kAdmitAll keeps today's behaviour exactly.
  AdmissionConfig admission;
  /// Elastic membership: graceful decommissions, preemption waves, dynamic
  /// joins, autoscaler (fault.hpp). Defaults disable everything.
  ElasticityConfig elasticity;
  /// Custom autoscaler rule; returns the desired tracker delta (> 0 joins
  /// that many, < 0 drains that many, 0 holds). Null uses the threshold
  /// rule in ElasticityConfig::autoscaler. Only consulted while
  /// elasticity.autoscaler.enabled; min/max/step caps apply either way.
  std::function<std::int32_t(const AutoscaleSignal&)> autoscale_policy;

  // --- data locality model ------------------------------------------------
  /// Factor applied to a map task's duration when it runs on a tracker that
  /// does not hold a replica of its input split (1.0 disables the model).
  /// Mirrors HDFS's node-local vs remote read cost.
  double remote_map_penalty = 1.0;
  /// HDFS replication factor used by the locality model.
  std::uint32_t hdfs_replication = 3;

  /// Attach an audit::InvariantAuditor to the run (metrics::run_experiment
  /// honours this; the engine itself never depends on the audit library).
  /// Off means no bus subscription, so publish sites reduce to one branch
  /// and the run is bit- and wall-clock-identical to an unaudited one.
  bool audit = false;
};

/// Final per-workflow outcome.
struct WorkflowResult {
  WorkflowId id;
  std::string name;
  SimTime submit_time = 0;
  SimTime deadline = kTimeInfinity;
  SimTime finish_time = -1;       ///< -1 if unfinished at horizon
  Duration workspan = -1;         ///< finish - submit
  Duration tardiness = 0;         ///< max(0, finish - deadline)
  bool met_deadline = false;
  /// A task exhausted its attempt budget: the workflow terminated without
  /// finishing (finish_time stays -1). Shed workflows are reported via
  /// `shed`, not here.
  bool failed = false;
  /// Turned away at submission by the admission controller; the workflow
  /// never entered the JobTracker (id stays default). Counts as a miss when
  /// it carried a deadline.
  bool rejected = false;
  /// Admitted but later evicted by the shedding policy to keep the pending
  /// budget. Counts as a miss when it carried a deadline.
  bool shed = false;
};

struct RunSummary {
  std::vector<WorkflowResult> workflows;
  SimTime makespan = 0;              ///< last finish time
  double deadline_miss_ratio = 0.0;  ///< misses / workflows-with-deadline
  Duration max_tardiness = 0;
  Duration total_tardiness = 0;
  double map_slot_utilization = 0.0;     ///< busy map-slot-time / offered
  double reduce_slot_utilization = 0.0;  ///< busy reduce-slot-time / offered
  double overall_utilization = 0.0;
  std::uint64_t tasks_executed = 0;  ///< attempts started (incl. retried)
  std::uint64_t tasks_failed = 0;    ///< attempts that failed and retried
  std::uint64_t tasks_finished = 0;  ///< attempts that finished successfully
  std::uint64_t events_fired = 0;
  /// Heartbeats served: beats of a tracker that takes work while a workflow
  /// is unfinished.
  std::uint64_t heartbeats = 0;
  /// Master-side scheduling overhead: WorkflowScheduler::select_task calls
  /// (the paper's claim that the plan-following scheduler adds negligible
  /// master overhead). Their wall-clock latency is the registry histogram
  /// engine.select_task_ns, measured only with a registry attached.
  std::uint64_t select_calls = 0;
  /// Fraction of map tasks that ran node-local (1.0 when the locality
  /// model is disabled).
  double map_locality_ratio = 1.0;

  // --- fault model (all zero when EngineConfig::faults is default) -------
  std::uint64_t tracker_crashes = 0;     ///< TaskTracker outages injected
  std::uint64_t attempts_killed = 0;     ///< KILLED attempts (not FAILED)
  std::uint64_t map_outputs_lost = 0;    ///< completed maps re-executed
  std::uint64_t workflows_failed = 0;    ///< attempt budget exhausted
  std::uint64_t blacklistings = 0;       ///< (job, tracker) pairs blacklisted
  std::uint64_t speculative_launched = 0;  ///< backup attempts started
  std::uint64_t speculative_won = 0;       ///< backups that beat the original
  /// Slot-time burned by speculation losers (the cost side of the backup
  /// bet; the benefit shows up as lower tardiness under churn).
  double speculative_wasted_ms = 0.0;

  // --- overload & elasticity (all zero when both subsystems are off) -----
  std::uint64_t workflows_submitted = 0;  ///< offered to the master
  std::uint64_t workflows_rejected = 0;   ///< turned away at admission
  std::uint64_t workflows_shed = 0;       ///< evicted to keep the budget
  /// Peak admitted-and-unfinished workflow count over the run — the bounded
  /// vs unbounded queue signal of the rho sweep.
  std::uint32_t pending_peak = 0;
  std::uint64_t tracker_decommissions = 0;  ///< graceful retirements
  std::uint64_t tracker_preemptions = 0;    ///< spot terminations
  std::uint64_t trackers_joined = 0;        ///< dynamic registrations
  /// Attempts killed and re-queued because their node's drain lease (or
  /// preemption warning) ran out before they finished.
  std::uint64_t drain_migrated = 0;
};

class Engine {
 public:
  Engine(EngineConfig config, std::unique_ptr<WorkflowScheduler> scheduler);

  /// Queue a workflow for submission at spec.submit_time. Must be called
  /// before run().
  void submit(wf::WorkflowSpec spec);

  /// The engine's event bus. Subscribe exporters/tests before run(); with
  /// no subscribers every publish site reduces to a single branch.
  [[nodiscard]] obs::EventBus& events() { return events_; }
  [[nodiscard]] const obs::EventBus& events() const { return events_; }

  /// Attach a metrics registry (nullptr detaches). The latency histograms
  /// are resolved here and filled during the run; the counters and gauges,
  /// the scheduler's included, are the run's own tallies, added once when
  /// run() returns. With no registry attached the engine reads no clock.
  void set_metrics_registry(obs::MetricsRegistry* registry);

  /// The engine RNG's full state. Determinism-under-observability tests
  /// compare this across bus-off/bus-on runs: equal final states prove the
  /// observability layer never consumed a draw.
  [[nodiscard]] std::array<std::uint64_t, 5> rng_state() const {
    return rng_.state();
  }

  /// Run to completion (or to config.horizon).
  void run();

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const JobTracker& job_tracker() const { return job_tracker_; }
  [[nodiscard]] const Cluster& cluster() const { return cluster_; }
  [[nodiscard]] const WorkflowScheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] SimTime now() const { return sim_.now(); }

  /// Mutable cluster access for auditor failure-path tests, which corrupt
  /// slot accounting mid-run to prove the auditor trips. Production code
  /// must never call this.
  [[nodiscard]] Cluster& cluster_for_test() { return cluster_; }

  /// Collect results after run().
  [[nodiscard]] RunSummary summarize() const;

  /// Ground-truth admission accounting for the invariant auditor:
  /// submitted == admitted + rejected must hold at all times, and shed
  /// never exceeds admitted.
  struct AdmissionStats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint32_t pending_peak = 0;
  };
  [[nodiscard]] AdmissionStats admission_stats() const {
    return {workflows_submitted_,
            workflows_submitted_ - workflows_rejected_,
            workflows_rejected_, workflows_shed_, pending_peak_};
  }

 private:
  /// What a scheduled sim::Event stands for, and the ids it carries.
  enum class EventKind : std::uint32_t {
    kSubmit,          ///< a: index into submissions_
    kActivate,        ///< a: workflow, b: job
    kFinish,          ///< a: attempt record, b: its generation
    kScriptedCrash,   ///< a: index into faults.events
    kMtbfCrash,       ///< a: tracker
    kDetectLoss,      ///< a: tracker, b: the epoch it was scheduled under
    kRestart,         ///< a: tracker, b: epoch
    kDrainEnd,        ///< a: tracker, b: epoch
    kDrainComplete,   ///< a: tracker, b: epoch
    kDecommission,    ///< a: index into elasticity.decommissions
    kPreemptionWave,  ///< a: index into elasticity.preemption_waves
    kJoin,            ///< a: index into elasticity.joins
    kAutoscale,       ///< re-armed one check period after each tick
  };

  // --- event dispatch: sim::Simulation::step calls heartbeat, live, fire --
  friend class sim::Simulation;
  void schedule_at(SimTime when, EventKind kind, std::size_t a = 0, std::uint64_t b = 0) {
    sim_.schedule_at(when, static_cast<std::uint32_t>(kind),
                     static_cast<std::uint32_t>(a), b);
  }
  void schedule_after(Duration delay, EventKind kind, std::size_t a = 0,
                      std::uint64_t b = 0) {
    sim_.schedule_after(delay, static_cast<std::uint32_t>(kind),
                        static_cast<std::uint32_t>(a), b);
  }
  /// False only for a cancelled finish: its attempt was removed, or its
  /// node crashed (a down node executes nothing). Such an event neither
  /// fires nor counts.
  [[nodiscard]] bool live(const sim::Event& ev) const;
  /// The attempt a kFinish event names.
  [[nodiscard]] static SlotRef finish_ref(const sim::Event& ev) {
    return {ev.a, static_cast<std::uint32_t>(ev.b)};
  }
  /// The one switch over every event kind. Tracker events whose epoch moved
  /// since they were scheduled still fire, and stand down.
  void fire(const sim::Event& ev);

  void do_submit(wf::WorkflowSpec spec);
  /// A tracker's beat: offer its free slots to the scheduler. Does nothing
  /// on a tracker that takes no work, or once every workflow finished.
  void heartbeat(std::size_t tracker_index);
  void activate_job(JobRef ref);
  void start_task(JobRef ref, SlotType type, std::size_t tracker_index);
  /// The one way an attempt starts, for a scheduler pick and a speculative
  /// backup of attempt `original` (default: none) alike: occupy the slot,
  /// draw the duration, charge busy time, take the id, publish TaskStarted
  /// (preceded by SpeculativeLaunched for a backup), store the attempt in
  /// a record of its slot, schedule its finish and enter it into the
  /// speculation candidates. Returns the new attempt's ref.
  SlotRef launch_attempt(JobRef ref, SlotType type, std::size_t tracker_index,
                         std::uint32_t retry_level, SlotRef original);
  /// The one way an attempt leaves: take it out of its record (which leaves
  /// its finish event stale), drop it from the speculation candidates,
  /// release the slot and check whether a drain has completed. A speculation
  /// twin that still runs becomes an ordinary attempt again (eligible for a
  /// backup of its own). Returns the removed record, `rival` unchanged.
  Attempt remove_attempt(SlotRef attempt);
  /// Attempt finished on its own: success or injected failure.
  void finish_attempt(SlotRef attempt);
  [[nodiscard]] Duration actual_duration(Duration estimated);
  /// True when the map input split of the next task of `ref` has a replica
  /// on `tracker_index` under the randomized HDFS placement model.
  [[nodiscard]] bool map_is_local(JobRef ref, std::size_t tracker_index);
  /// The common stochastic part of launching an attempt; draws duration
  /// jitter, map locality, and injected failure in a fixed order (the order
  /// is load-bearing: fault-free runs must replay the exact pre-fault-model
  /// RNG sequence).
  [[nodiscard]] Duration draw_attempt(JobRef ref, SlotType type,
                                      std::size_t tracker_index, bool& will_fail);

  // --- fault machinery ----------------------------------------------------
  void crash_tracker(std::size_t tracker_index, SimTime restart_time);
  void restart_tracker(std::size_t tracker_index);
  /// JobTracker learns the tracker is gone (lease expiry or the node
  /// re-registering): kill its attempts, re-queue the lost tasks, declare
  /// it lost and invalidate its map outputs. A no-op unless the tracker is
  /// down and not yet declared lost.
  void detect_tracker_loss(std::size_t tracker_index);
  /// Kill every attempt on the tracker in launch order and re-queue each
  /// task that has no running speculation twin. Returns the number of
  /// attempts killed.
  std::uint32_t evict_tracker(std::size_t tracker_index, obs::KillCause cause);
  /// A tracker just left the pool: invalidate the map outputs on its local
  /// disk and retire its offered capacity. Returns the number of map outputs
  /// lost.
  std::uint32_t drop_tracker(std::size_t tracker_index);
  /// Remove one attempt without letting it finish: remove it, refund
  /// un-executed busy time, emit the KILLED event. The attempt stopped
  /// executing at its node's crash instant if the node is down, else now.
  /// `cause` names the kill site on the emitted TaskEnded so forensics can
  /// classify it. Returns the removed record, `duration` cut to the part
  /// that executed.
  Attempt kill_attempt(SlotRef attempt, obs::KillCause cause);
  /// Task exhausted its attempt budget: fail the whole workflow, kill its
  /// other running attempts, notify the scheduler.
  void fail_workflow(std::uint32_t workflow, SimTime now);
  /// Charge one injected failure toward (job, tracker) blacklisting.
  void record_attempt_failure(JobRef ref, std::size_t tracker_index);
  /// Launch at most one speculative backup into a free slot of
  /// `tracker_index`; returns whether one was launched.
  bool try_speculate(SlotType type, std::size_t tracker_index);
  /// Enter a running attempt into the speculation scan's candidate set.
  /// Eligibility is (non-speculative, no rival); a no-op for ineligible
  /// attempts or when speculation is off.
  void spec_candidate_add(SlotRef ref, const Attempt& a);
  void schedule_next_mtbf_crash(std::size_t tracker_index);

  // --- overload & elasticity machinery ------------------------------------
  /// Shed an admitted workflow (deadline-aware load shedding): tear it
  /// down like fail_workflow but tagged shed, kill its running attempts.
  void shed_workflow(std::uint32_t workflow, SimTime now);
  /// Enforce the shed policy's pending budget after a submission, then
  /// record the pending peak.
  void enforce_pending_budget();
  /// Start a graceful decommission: drain now, retire when the node goes
  /// idle or the lease expires, whichever comes first.
  void begin_decommission(std::size_t tracker_index, Duration lease);
  /// A drain lease ran out, or a preemption warning expired: unless the
  /// tracker moved past `epoch` since, kill + re-queue everything still
  /// running on it and retire it.
  void end_drain(std::size_t tracker_index, std::uint64_t epoch);
  /// Retire a fully drained tracker out of the cluster for good.
  void retire_tracker(std::size_t tracker_index, std::uint32_t migrated);
  /// A draining (non-preempting) tracker may have just gone idle; if so,
  /// complete its decommission at the current instant (scheduled as a
  /// same-tick event so in-flight bookkeeping settles first).
  void maybe_complete_drain(std::size_t tracker_index);
  void preemption_wave(const PreemptionWave& wave);
  /// Register `count` fresh trackers with the master right now.
  void join_trackers(std::uint32_t count);
  void autoscale_tick();
  /// Integrate offered slot-capacity over time (elastic runs only), then
  /// apply a capacity delta. Call at the instant capacity changes.
  void account_capacity_change(std::int64_t map_delta, std::int64_t reduce_delta);
  /// The highest-indexed tracker that takes work, if any.
  [[nodiscard]] std::optional<std::size_t> pick_drain_victim() const;

  /// Add the run's tallies to the attached registry's counters, set its
  /// gauges to the end-of-run levels, then let the scheduler add its own.
  /// Called on every exit from run().
  void record_metrics();

  EngineConfig config_;
  sim::Simulation sim_;
  Cluster cluster_;
  JobTracker job_tracker_;
  std::unique_ptr<WorkflowScheduler> scheduler_;
  Rng rng_;
  /// Specs by submission index; each is moved out when its submission fires.
  std::vector<wf::WorkflowSpec> submissions_;
  bool started_ = false;

  // Observability. The bus is owned here so every component shares one
  // stream; the registry is borrowed (callers own snapshots/dumping). The
  // latency histograms are null with no registry attached, which keeps the
  // timers off the clock.
  obs::EventBus events_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Histogram* heartbeat_ns_ = nullptr;
  obs::Histogram* select_ns_ = nullptr;

  // Running attempts, one record per tracker slot (attempt_store.hpp). A
  // finish event or rival link names a record and its generation, so it
  // misses once its attempt is gone. An attempt's id is its launch count
  // (tasks_executed_ after its launch), so launch order is id order.
  AttemptStore attempts_;

  // Start-task sink handed to WorkflowScheduler::select_tasks, built once
  // and retargeted per offer through heartbeat_tracker_ and
  // heartbeat_slot_type_, so a heartbeat allocates no std::function.
  std::function<void(JobRef)> start_sink_;
  std::size_t heartbeat_tracker_ = 0;
  SlotType heartbeat_slot_type_ = SlotType::kMap;
  /// Decision trace of the offers the engine answers itself (nothing of the
  /// slot type is runnable): unassigned, nothing ranked.
  obs::DecisionPublisher empty_decision_;

  // spec_candidates_[type]: running attempts eligible to *receive* a
  // speculative backup (non-speculative, no rival), keyed (tracker, attempt
  // id, ref): the (tracker ascending, launch order within tracker) order of
  // a sweep over every tracker, without visiting the attempts that cannot
  // take a backup. The unique id never lets the ref take part in the order.
  // Only maintained when faults.speculative_execution is on.
  std::set<std::tuple<std::size_t, std::uint64_t, SlotRef>> spec_candidates_[2];

  // Fault state, one row per tracker: built for the initial trackers,
  // appended by join_trackers, as the attempt store's rows are.
  //  * map_outputs: (job, count) of the job's completed maps whose output
  //    sits on the tracker's local disk, in JobRef order, so drop_tracker
  //    reports losses in that order. Only tracked for jobs with reduces,
  //    and only when churn is enabled.
  //  * blacklist: the jobs the tracker refuses. An offer points at it once
  //    anything is blacklisted (blacklistings_ > 0), and carries null before.
  using MapOutput = std::pair<JobRef, std::uint32_t>;
  struct FaultRow {
    std::vector<MapOutput> map_outputs;
    Blacklist blacklist;
  };
  std::vector<FaultRow> fault_rows_;
  /// Injected failures per (job, tracker), toward blacklist_task_failures.
  std::map<std::pair<JobRef, std::size_t>, std::uint32_t> job_tracker_failures_;
  /// Trackers blacklisted per job, toward the 25 % cap.
  std::map<JobRef, std::size_t> blacklisted_trackers_;
  std::vector<Rng> tracker_fault_rngs_;
  /// Root of the fault RNG streams; joined trackers draw fresh splits from
  /// it, so churn stays deterministic under dynamic membership.
  Rng fault_rng_root_{0};
  std::size_t live_trackers_ = 0;
  std::size_t pending_restarts_ = 0;

  // Overload & elasticity state.
  std::unique_ptr<AdmissionController> admission_;
  bool elastic_on_ = false;  ///< config_.elasticity.any_enabled(), cached
  std::vector<WorkflowResult> rejected_results_;
  std::size_t pending_joins_ = 0;  ///< scheduled-but-unfired join events
  std::uint64_t workflows_submitted_ = 0;
  std::uint64_t workflows_rejected_ = 0;
  std::uint64_t workflows_shed_ = 0;
  std::uint32_t pending_peak_ = 0;
  std::uint64_t decommissions_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t trackers_joined_ = 0;
  std::uint64_t drain_migrated_ = 0;
  // Offered-capacity integral (slot-ms per slot type) for utilization
  // denominators under elastic membership; maintained only when
  // elastic_on_ (static capacity formula otherwise).
  double offered_slot_ms_[2] = {0.0, 0.0};
  std::int64_t current_capacity_[2] = {0, 0};
  SimTime last_capacity_change_ = 0;

  // Accounting for utilization: integral of busy slots over time.
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t tasks_failed_ = 0;
  std::uint64_t tasks_finished_ = 0;
  std::uint64_t local_maps_ = 0;
  std::uint64_t total_maps_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t select_calls_ = 0;
  SimTime first_submit_ = kTimeInfinity;
  double busy_ms_[2] = {0.0, 0.0};  // per SlotType: sum of task durations

  // Fault metrics.
  std::uint64_t tracker_crashes_ = 0;
  std::uint64_t attempts_killed_ = 0;
  std::uint64_t map_outputs_lost_ = 0;
  std::uint64_t workflows_failed_ = 0;
  std::uint64_t blacklistings_ = 0;
  std::uint64_t speculative_launched_ = 0;
  std::uint64_t speculative_won_ = 0;
  double speculative_wasted_ms_ = 0.0;
};

}  // namespace woha::hadoop
