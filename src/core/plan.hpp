// The Scheduling Plan: progress requirement list F_i (paper Section IV-A,
// Algorithm 1 "Generate Progress Requirements").
//
// A plan is computed *client-side* at workflow submission by simulating the
// workflow's execution on a capped number of slots under a fixed
// intra-workflow job order. The result is a step function F_i: at ttd
// (time-to-deadline) time units before the deadline, at least F_i(ttd) tasks
// of W_i must have been handed to slots for the workflow to be on track.
// Because the simulated finish is anchored at the deadline, a plan generated
// with a generous cap is "lazy" (requires nothing early, everything late) —
// the resource-cap binary search in resource_cap.hpp fixes that.
//
// Storage is structure-of-arrays: the step function lives in two parallel
// flat vectors (ttd and cumulative requirement) rather than an array of
// structs. The scheduler's hot walk (ProgressTracker::advance_to) reads
// *only* ttd until a step fires, so halving the bytes per step halves the
// cache lines the per-heartbeat queue refresh touches. PlanView exposes the
// arrays as raw pointers for that walk, extending the existing
// shared_ptr<const SchedulingPlan> sharing with a zero-copy facade.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "workflow/workflow.hpp"

namespace woha::core {

/// Trivially copyable, zero-copy view of a plan's step arrays. Valid only
/// while the viewed plan is alive (recurrent instances share plans through
/// shared_ptr<const SchedulingPlan>, so the owner outlives every tracker).
struct PlanView {
  const Duration* ttd = nullptr;        ///< strictly decreasing
  const std::uint64_t* req = nullptr;   ///< strictly increasing cumulative
  std::size_t size = 0;
};

class SchedulingPlan {
 public:
  /// Job indices from highest to lowest intra-workflow priority.
  std::vector<std::uint32_t> job_order;
  /// rank[j] = position of job j in job_order (0 = schedule first).
  std::vector<std::uint32_t> job_rank;
  /// The resource cap n the plan was generated with.
  std::uint32_t resource_cap = 0;
  /// Simulated makespan of the workflow under the cap (start at 0).
  Duration simulated_makespan = 0;

  // ---- progress requirement list F_i ------------------------------------
  // Steps are stored in chronological order == strictly decreasing ttd;
  // req is the total number of tasks that must have been scheduled once
  // that ttd has been reached (i.e. at absolute time deadline - ttd).

  void reserve_steps(std::size_t n) {
    step_ttd_.reserve(n);
    step_req_.reserve(n);
  }
  void append_step(Duration ttd, std::uint64_t cumulative_req) {
    step_ttd_.push_back(ttd);
    step_req_.push_back(cumulative_req);
  }

  [[nodiscard]] std::size_t num_steps() const { return step_ttd_.size(); }
  [[nodiscard]] Duration step_ttd(std::size_t i) const { return step_ttd_[i]; }
  [[nodiscard]] std::uint64_t step_req(std::size_t i) const { return step_req_[i]; }
  [[nodiscard]] const std::vector<Duration>& step_ttds() const { return step_ttd_; }
  [[nodiscard]] const std::vector<std::uint64_t>& step_reqs() const {
    return step_req_;
  }
  [[nodiscard]] PlanView view() const {
    return PlanView{step_ttd_.data(), step_req_.data(), step_ttd_.size()};
  }

  /// Total tasks in the workflow (the last step's cumulative requirement).
  [[nodiscard]] std::uint64_t total_tasks() const {
    return step_req_.empty() ? 0 : step_req_.back();
  }

  /// F_i(ttd): tasks that must have been scheduled when `ttd` remains until
  /// the deadline. Steps at larger-or-equal ttd have occurred.
  /// O(log steps) binary search; the runtime scheduler uses the incremental
  /// ProgressTracker walk instead.
  [[nodiscard]] std::uint64_t required_at(Duration ttd) const;

 private:
  std::vector<Duration> step_ttd_;
  std::vector<std::uint64_t> step_req_;
};

/// Algorithm 1 prepared for one workflow and job order. The constructor
/// validates the spec and builds the dependents lists and the job order;
/// each run() then simulates one cap in reused buffers, so a cap search pays
/// for the preparation once per workflow rather than once per probe. run()
/// mutates those buffers: one PlanSimulator belongs to one thread.
class PlanSimulator {
 public:
  /// Throws std::invalid_argument for an invalid spec or a job_rank that is
  /// not a permutation of 0..jobs-1.
  PlanSimulator(const wf::WorkflowSpec& spec, const std::vector<std::uint32_t>& job_rank);

  /// Algorithm 1 on `resource_cap` (>= 1) slots. `peak_busy`, when given,
  /// receives the most slots the run held at once. A run whose peak is below
  /// its cap never ran out of slots, so every cap >= that peak replays it
  /// step for step.
  [[nodiscard]] SchedulingPlan run(std::uint32_t resource_cap,
                                   std::uint32_t* peak_busy = nullptr);

 private:
  struct Job {
    std::uint32_t maps;
    std::uint32_t reduces;
    std::uint32_t prereqs;
    Duration map_duration;
    Duration reduce_duration;
  };
  /// Remaining counters of one job during a run.
  struct JobState {
    std::uint32_t maps_left;
    std::uint32_t reduces_left;
    std::uint32_t unfinished_prereqs;
    /// Max completion time among prerequisites whose final wave has been
    /// scheduled. A dependent activates at this instant once every
    /// prerequisite has committed — NOT at the completion time of the
    /// last-*scheduled* prerequisite, which can finish earlier than one
    /// scheduled before it (shorter reduce phase).
    SimTime ready_time;
  };
  struct Event {
    SimTime time;
    std::uint32_t value;  ///< slot count (FREE) or job index (ADD)
    bool add;
  };

  void activate(std::uint32_t job);
  void finish(std::uint32_t job, SimTime done);
  void push(Event e);

  std::vector<Job> jobs_;
  std::vector<std::uint32_t> job_rank_;
  std::vector<std::uint32_t> job_order_;
  /// Dependents of job j: deps_[dep_begin_[j] .. dep_begin_[j + 1]).
  std::vector<std::uint32_t> dep_begin_;
  std::vector<std::uint32_t> deps_;

  // Per-run buffers.
  std::vector<JobState> state_;
  /// Active job queue A as a bitset over ranks; bits below word
  /// active_low_ are all clear.
  std::vector<std::uint64_t> active_;
  std::size_t active_low_ = 0;
  std::vector<Event> events_;  ///< min-heap on time
  /// (time, tasks scheduled at that instant), appended in time order.
  std::vector<std::pair<SimTime, std::uint64_t>> schedule_;
};

/// Algorithm 1: simulate W_i on `resource_cap` slots, jobs picked by
/// ascending `job_rank` (rank 0 first), maps before reduces within a job,
/// reduces gated on map-phase completion, and record every scheduling
/// instant. `resource_cap` must be >= 1. The spec is not required to have a
/// deadline (ttd anchoring is relative to the simulated makespan).
/// Equivalent to PlanSimulator(spec, job_rank).run(resource_cap).
///
/// Deviation from the paper's pseudo-code, documented in DESIGN.md: the
/// printed Algorithm 1 never returns slots to the pool (no FREE events are
/// generated after line 4), which cannot be intended — we emit a FREE event
/// when each scheduled wave completes, and we drain all schedulable jobs per
/// event time rather than one job per event (equivalent to processing the
/// co-temporal event batch).
[[nodiscard]] SchedulingPlan generate_plan(const wf::WorkflowSpec& spec,
                                           std::uint32_t resource_cap,
                                           const std::vector<std::uint32_t>& job_rank);

}  // namespace woha::core
