// Node-level fault model: TaskTracker churn, loss detection, attempt
// limits, blacklisting, and speculative execution.
//
// Hadoop-1 semantics modelled here (defaults in parentheses):
//  * A crashed TaskTracker stops heartbeating; the JobTracker only learns of
//    the loss when the tracker's lease expires (`expiry_interval`, 10 min —
//    mapred.tasktracker.expiry.interval) or when the node re-registers after
//    a reboot, whichever comes first.
//  * On detection, running attempts on the node are lost and re-queued, and
//    completed map outputs of in-flight jobs are invalidated: map outputs
//    live on the slave's local disk in Hadoop-1, so unfetched partitions die
//    with the node and the maps re-execute.
//  * Attempts killed by node loss do NOT count against `max_attempts`
//    (Hadoop's KILLED vs FAILED distinction); injected task failures do.
//  * After `blacklist_task_failures` failures of one job's tasks on one
//    tracker, that tracker is blacklisted for that job
//    (mapred.max.tracker.failures).
//  * Speculative execution launches a backup attempt for stragglers;
//    first finish wins and the loser is killed (LATE-style, OSDI'08).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace woha::hadoop {

/// One scheduled TaskTracker outage. `restart_time == kTimeInfinity` means
/// the node never comes back.
struct TrackerFaultEvent {
  std::uint32_t tracker = 0;
  SimTime crash_time = 0;
  SimTime restart_time = kTimeInfinity;
};

struct FaultConfig {
  /// Explicit outage schedule (validated: per-tracker chronological,
  /// non-overlapping).
  std::vector<TrackerFaultEvent> events;
  /// Mean time between failures per tracker in ms; > 0 enables MTBF-driven
  /// crashes (exponential inter-crash times drawn from an independent,
  /// per-tracker RNG stream seeded by `seed`).
  double tracker_mtbf = 0.0;
  /// Downtime of an MTBF-driven crash before the node reboots and
  /// re-registers.
  Duration tracker_restart_delay = minutes(2);
  /// JobTracker lease: a silent tracker is declared lost this long after
  /// its crash (Hadoop-1 default 10 min).
  Duration expiry_interval = minutes(10);
  /// Per-task attempt budget; exceeding it fails the task, its job, and its
  /// workflow. 0 = unlimited retries (the pre-fault-model behaviour; Hadoop
  /// defaults to 4 — see DESIGN.md "Fault model" for the deviation).
  std::uint32_t max_attempts = 0;
  /// Failures of one job's tasks on one tracker before that tracker is
  /// blacklisted for the job. 0 = blacklisting off (Hadoop-1 default 4).
  std::uint32_t blacklist_task_failures = 0;
  /// Launch backup attempts for stragglers (first finish wins).
  bool speculative_execution = false;
  /// An attempt is a straggler once its projected runtime exceeds
  /// `speculative_slowness` x the spec estimate and a fresh backup would
  /// finish earlier than the original's projected completion.
  double speculative_slowness = 1.5;
  /// Never speculate an attempt younger than this (Hadoop waits a minute
  /// for progress reports to stabilise).
  Duration speculative_min_runtime = seconds(30);
  /// Seed of the fault-injection RNG stream. Kept separate from
  /// EngineConfig::seed so enabling churn never perturbs task-duration or
  /// locality draws.
  std::uint64_t seed = 0x5eedfau;

  /// True when any tracker can crash.
  [[nodiscard]] bool churn_enabled() const {
    return !events.empty() || tracker_mtbf > 0.0;
  }
  /// True when any part of the fault model changes engine behaviour.
  [[nodiscard]] bool any_enabled() const {
    return churn_enabled() || speculative_execution || max_attempts > 0 ||
           blacklist_task_failures > 0;
  }

  /// Throws std::invalid_argument on nonsensical settings; `tracker_count`
  /// bounds event tracker indices. Zero-length outages (restart_time ==
  /// crash_time) are rejected along with inverted ones: an outage the
  /// master could never observe is a schedule bug, not a no-op.
  void validate(std::size_t tracker_count) const;
};

// ---- elastic membership -----------------------------------------------------
//
// Capacity changes beyond crash/restart churn: operators drain nodes out
// gracefully, spot markets preempt them with a short warning, and fresh
// nodes join a running cluster. All three are first-class, deterministic
// schedule entries; the autoscaler turns backlog pressure into the same
// drain/join primitives at runtime.

/// Graceful decommission: at start_time the tracker stops accepting work
/// (its heartbeats offer nothing, but its running attempts keep going).
/// Attempts that finish within `drain_lease` migrate nothing; when the
/// lease expires, the stragglers are killed and re-queued and the node
/// retires. Unlike a crash, the master participates from the first instant.
struct TrackerDecommissionEvent {
  std::uint32_t tracker = 0;
  SimTime start_time = 0;
  Duration drain_lease = minutes(2);
};

/// Spot-style preemption wave: at `time`, the `count` highest-indexed live
/// trackers receive a termination warning. They stop accepting work
/// immediately and are killed `warning` later — running attempts are
/// re-queued at termination without any lease-expiry delay (the warning IS
/// the detection), which is what distinguishes preemption from crash loss.
/// Preempted trackers never come back.
struct PreemptionWave {
  SimTime time = 0;
  std::uint32_t count = 0;
  Duration warning = seconds(120);
};

/// `count` fresh trackers (the cluster's per-tracker slot shape) register
/// with the master at `time` and are immediately eligible for work.
struct TrackerJoinEvent {
  SimTime time = 0;
  std::uint32_t count = 1;
};

/// Pending-backlog autoscaler: every `check_period` the engine samples the
/// admitted-unfinished workflow count (the same progress-lag signal the
/// admission controller budgets) and scales out by `step` joins above
/// `scale_out_pending`, or drains `step` trackers below `scale_in_pending`.
/// EngineConfig::autoscale_policy can replace the threshold rule wholesale.
struct AutoscalerConfig {
  bool enabled = false;
  Duration check_period = seconds(30);
  /// Join `step` trackers when pending workflows exceed this.
  std::uint32_t scale_out_pending = 8;
  /// Drain one tracker when pending workflows drop below this.
  std::uint32_t scale_in_pending = 1;
  std::uint32_t step = 1;
  /// Never scale past this many trackers (0 = 4x the initial count).
  std::uint32_t max_trackers = 0;
  /// Never drain below this many live trackers.
  std::uint32_t min_trackers = 1;
  /// Drain lease used for autoscaler-initiated decommissions.
  Duration drain_lease = minutes(2);
};

struct ElasticityConfig {
  std::vector<TrackerDecommissionEvent> decommissions;
  std::vector<PreemptionWave> preemption_waves;
  std::vector<TrackerJoinEvent> joins;
  AutoscalerConfig autoscaler;

  /// True when any part changes engine behaviour.
  [[nodiscard]] bool any_enabled() const {
    return !decommissions.empty() || !preemption_waves.empty() ||
           !joins.empty() || autoscaler.enabled;
  }

  /// Throws std::invalid_argument on nonsensical settings; `tracker_count`
  /// bounds decommission tracker indices.
  void validate(std::size_t tracker_count) const;
};

}  // namespace woha::hadoop
