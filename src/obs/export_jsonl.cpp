#include "obs/export_jsonl.hpp"

#include "obs/json.hpp"

namespace woha::obs {

namespace {

void write_payload(JsonWriter& w, const WorkflowSubmitted& p) {
  w.member("workflow", p.workflow);
  w.member("name", p.name);
  if (p.deadline != kTimeInfinity) w.member("deadline", p.deadline);
  w.member("jobs", p.jobs);
}

void write_payload(JsonWriter& w, const WorkflowCompleted& p) {
  w.member("workflow", p.workflow);
  w.member("met_deadline", p.met_deadline);
}

void write_payload(JsonWriter& w, const WorkflowFailed& p) {
  w.member("workflow", p.workflow);
}

void write_payload(JsonWriter& w, const WorkflowRejected& p) {
  w.member("submission", p.submission);
  w.member("name", p.name);
  if (p.deadline != kTimeInfinity) w.member("deadline", p.deadline);
  w.member("reason", p.reason);
}

void write_payload(JsonWriter& w, const WorkflowShed& p) {
  w.member("workflow", p.workflow);
  if (p.deadline != kTimeInfinity) w.member("deadline", p.deadline);
  w.member("attempts_killed", p.attempts_killed);
}

void write_payload(JsonWriter& w, const JobActivated& p) {
  w.member("workflow", p.workflow);
  w.member("job", p.job);
}

void write_payload(JsonWriter& w, const JobCompleted& p) {
  w.member("workflow", p.workflow);
  w.member("job", p.job);
}

void write_payload(JsonWriter& w, const TaskStarted& p) {
  w.member("attempt", p.attempt);
  w.member("workflow", p.workflow);
  w.member("job", p.job);
  w.member("slot", to_string(p.slot));
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  w.member("scheduled_duration", p.scheduled_duration);
  if (p.speculative) w.member("speculative", true);
}

void write_payload(JsonWriter& w, const TaskEnded& p) {
  w.member("attempt", p.attempt);
  w.member("workflow", p.workflow);
  w.member("job", p.job);
  w.member("slot", to_string(p.slot));
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  if (p.failed) w.member("failed", true);
  if (p.killed) w.member("killed", true);
  if (p.killed && p.cause != KillCause::kNone) {
    w.member("cause", to_string(p.cause));
  }
  if (p.speculative) w.member("speculative", true);
  w.member("ran_for", p.ran_for);
}

void write_payload(JsonWriter& w, const SpeculativeLaunched& p) {
  w.member("attempt", p.attempt);
  w.member("original_attempt", p.original_attempt);
  w.member("workflow", p.workflow);
  w.member("job", p.job);
  w.member("slot", to_string(p.slot));
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
}

void write_payload(JsonWriter& w, const HeartbeatServed& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  w.member("assigned_map", p.assigned_map);
  w.member("assigned_reduce", p.assigned_reduce);
  w.member("free_map", p.free_map);
  w.member("free_reduce", p.free_reduce);
}

void write_payload(JsonWriter& w, const TrackerCrashed& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  if (p.restart_time != kTimeInfinity) w.member("restart_time", p.restart_time);
}

void write_payload(JsonWriter& w, const TrackerLost& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  w.member("crash_time", p.crash_time);
  w.member("attempts_killed", p.attempts_killed);
  w.member("map_outputs_lost", p.map_outputs_lost);
}

void write_payload(JsonWriter& w, const TrackerRestarted& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
}

void write_payload(JsonWriter& w, const TrackerDraining& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  w.member("lease_deadline", p.lease_deadline);
}

void write_payload(JsonWriter& w, const TrackerDecommissioned& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  w.member("migrated", p.migrated);
}

void write_payload(JsonWriter& w, const TrackerJoined& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
}

void write_payload(JsonWriter& w, const PreemptionWarning& p) {
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  w.member("termination_time", p.termination_time);
}

void write_payload(JsonWriter& w, const PlanGenerated& p) {
  w.member("workflow", p.workflow);
  w.member("resource_cap", p.resource_cap);
  w.member("simulated_makespan", p.simulated_makespan);
  w.member("steps", static_cast<std::uint64_t>(p.steps));
  w.member("total_tasks", p.total_tasks);
}

void write_payload(JsonWriter& w, const QueueReordered& p) {
  w.member("workflow", p.workflow);
  w.member("tasks_lost", p.tasks_lost);
}

void write_payload(JsonWriter& w, const SchedulerDecision& p) {
  w.member("scheduler", p.scheduler);
  w.member("slot", to_string(p.slot));
  w.member("tracker", static_cast<std::uint64_t>(p.tracker));
  w.member("assigned", p.assigned);
  if (p.assigned) {
    w.member("workflow", p.workflow);
    if (p.job != SchedulerDecision::kNoJob) w.member("job", p.job);
  }
  w.key("ranking");
  w.begin_array();
  for (const auto& c : p.ranking) {
    w.begin_object();
    w.member("workflow", c.workflow);
    if (c.job != SchedulerDecision::kNoJob) w.member("job", c.job);
    w.member("score", c.score);
    w.member("requirement", c.requirement);
    w.member("rho", c.rho);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

const char* to_string(KillCause cause) {
  switch (cause) {
    case KillCause::kNone: return "none";
    case KillCause::kNodeLoss: return "node-loss";
    case KillCause::kSpeculationRace: return "speculation-race";
    case KillCause::kWorkflowFailed: return "workflow-failed";
    case KillCause::kShed: return "shed";
    case KillCause::kDrainMigration: return "drain-migration";
    case KillCause::kPreemption: return "preemption";
  }
  return "?";
}

const char* kind_name(const Payload& payload) {
  struct Namer {
    const char* operator()(const WorkflowSubmitted&) { return "workflow-submitted"; }
    const char* operator()(const WorkflowCompleted&) { return "workflow-completed"; }
    const char* operator()(const WorkflowFailed&) { return "workflow-failed"; }
    const char* operator()(const WorkflowRejected&) { return "workflow-rejected"; }
    const char* operator()(const WorkflowShed&) { return "workflow-shed"; }
    const char* operator()(const JobActivated&) { return "job-activated"; }
    const char* operator()(const JobCompleted&) { return "job-completed"; }
    const char* operator()(const TaskStarted&) { return "task-started"; }
    const char* operator()(const TaskEnded&) { return "task-ended"; }
    const char* operator()(const SpeculativeLaunched&) {
      return "speculative-launched";
    }
    const char* operator()(const HeartbeatServed&) { return "heartbeat"; }
    const char* operator()(const TrackerCrashed&) { return "tracker-crashed"; }
    const char* operator()(const TrackerLost&) { return "tracker-lost"; }
    const char* operator()(const TrackerRestarted&) { return "tracker-restarted"; }
    const char* operator()(const TrackerDraining&) { return "tracker-draining"; }
    const char* operator()(const TrackerDecommissioned&) {
      return "tracker-decommissioned";
    }
    const char* operator()(const TrackerJoined&) { return "tracker-joined"; }
    const char* operator()(const PreemptionWarning&) { return "preemption-warning"; }
    const char* operator()(const PlanGenerated&) { return "plan-generated"; }
    const char* operator()(const QueueReordered&) { return "queue-reordered"; }
    const char* operator()(const SchedulerDecision&) { return "scheduler-decision"; }
  };
  return std::visit(Namer{}, payload);
}

std::string event_to_json(const Event& event) {
  JsonWriter w;
  w.begin_object();
  w.member("t", event.time);
  w.member("type", std::string(kind_name(event.payload)));
  std::visit([&w](const auto& p) { write_payload(w, p); }, event.payload);
  w.end_object();
  return w.take();
}

JsonlExporter::JsonlExporter(EventBus& bus, std::ostream& out)
    : bus_(bus), out_(out) {
  subscription_ = bus_.subscribe([this](const Event& e) {
    if (closed_) {
      ++dropped_;
      return;
    }
    out_ << event_to_json(e) << '\n';
    ++lines_;
  });
}

void JsonlExporter::close() {
  if (closed_) return;
  closed_ = true;
  out_.flush();
}

JsonlExporter::~JsonlExporter() { bus_.unsubscribe(subscription_); }

}  // namespace woha::obs
