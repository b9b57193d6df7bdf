#include "obs/export_chrome.hpp"

#include "obs/json.hpp"

namespace woha::obs {

namespace {

/// Simulated ms -> trace_event microseconds.
std::int64_t us(SimTime t) { return t * 1000; }

std::string task_name(std::uint32_t workflow, std::uint32_t job) {
  return "w" + std::to_string(workflow) + "/j" + std::to_string(job);
}

}  // namespace

ChromeTraceExporter::ChromeTraceExporter(EventBus& bus, std::ostream& out,
                                         ChromeTraceOptions options)
    : bus_(bus), out_(out), options_(options) {
  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  subscription_ = bus_.subscribe([this](const Event& e) { on_event(e); });
}

ChromeTraceExporter::~ChromeTraceExporter() {
  finish();
  bus_.unsubscribe(subscription_);
}

void ChromeTraceExporter::finish() {
  if (finished_) return;
  finished_ = true;
  out_ << "]}\n";
  out_.flush();
}

void ChromeTraceExporter::emit(const std::string& json_object) {
  if (!first_) out_ << ",\n";
  first_ = false;
  out_ << json_object;
  ++events_;
}

void ChromeTraceExporter::ensure_process(std::uint64_t pid, const std::string& name) {
  if (known_pids_[pid]) return;
  known_pids_[pid] = true;
  JsonWriter w;
  w.begin_object();
  w.member("ph", "M");
  w.member("name", "process_name");
  w.member("pid", pid);
  w.key("args");
  w.begin_object();
  w.member("name", name);
  w.end_object();
  w.end_object();
  emit(w.take());
}

void ChromeTraceExporter::ensure_thread(std::uint64_t pid, std::uint64_t tid,
                                        const std::string& name) {
  const auto key = std::make_pair(pid, tid);
  if (known_tids_[key]) return;
  known_tids_[key] = true;
  JsonWriter w;
  w.begin_object();
  w.member("ph", "M");
  w.member("name", "thread_name");
  w.member("pid", pid);
  w.member("tid", tid);
  w.key("args");
  w.begin_object();
  w.member("name", name);
  w.end_object();
  w.end_object();
  emit(w.take());
}

std::uint64_t ChromeTraceExporter::acquire_lane(std::size_t tracker, SlotType slot,
                                                std::uint64_t attempt) {
  auto& pool = lanes_[{tracker, slot}];
  std::size_t lane = 0;
  while (lane < pool.size() && pool[lane] != 0) ++lane;
  if (lane == pool.size()) pool.push_back(0);
  pool[lane] = attempt;
  const std::uint64_t tid =
      (slot == SlotType::kMap ? 0 : kReduceTidBase) + lane;
  const std::uint64_t pid = kTrackerPidBase + tracker;
  ensure_process(pid, "TaskTracker " + std::to_string(tracker));
  ensure_thread(pid, tid,
                std::string(to_string(slot)) + " slot " + std::to_string(lane));
  return tid;
}

void ChromeTraceExporter::instant(SimTime t, std::uint64_t pid, std::uint64_t tid,
                                  const std::string& name,
                                  const std::string& args_json) {
  JsonWriter w;
  w.begin_object();
  w.member("ph", "i");
  w.member("s", "t");
  w.member("name", name);
  w.member("ts", us(t));
  w.member("pid", pid);
  w.member("tid", tid);
  if (!args_json.empty()) {
    w.key("args");
    w.raw_value(args_json);
  }
  w.end_object();
  emit(w.take());
}

void ChromeTraceExporter::handle(SimTime t, const TaskStarted& p) {
  const std::uint64_t pid = kTrackerPidBase + p.tracker;
  const std::uint64_t tid = acquire_lane(p.tracker, p.slot, p.attempt);
  open_slices_[p.attempt] = {pid, tid};
  JsonWriter w;
  w.begin_object();
  w.member("ph", "B");
  w.member("name", task_name(p.workflow, p.job));
  w.member("cat", p.speculative ? "task,speculative" : "task");
  w.member("ts", us(t));
  w.member("pid", pid);
  w.member("tid", tid);
  w.key("args");
  w.begin_object();
  w.member("attempt", p.attempt);
  w.member("workflow", p.workflow);
  w.member("job", p.job);
  w.member("speculative", p.speculative);
  w.end_object();
  w.end_object();
  emit(w.take());
}

void ChromeTraceExporter::handle(SimTime t, const TaskEnded& p) {
  const auto it = open_slices_.find(p.attempt);
  if (it == open_slices_.end()) return;  // exporter attached mid-run
  const auto [pid, tid] = it->second;
  open_slices_.erase(it);
  auto& pool = lanes_[{p.tracker, p.slot}];
  for (auto& occupant : pool) {
    if (occupant == p.attempt) {
      occupant = 0;
      break;
    }
  }
  JsonWriter w;
  w.begin_object();
  w.member("ph", "E");
  w.member("ts", us(t));
  w.member("pid", pid);
  w.member("tid", tid);
  w.key("args");
  w.begin_object();
  w.member("outcome", p.killed ? "killed" : (p.failed ? "failed" : "success"));
  if (p.killed && p.cause != KillCause::kNone) {
    w.member("kill_cause", to_string(p.cause));
  }
  w.member("ran_for", p.ran_for);
  w.end_object();
  w.end_object();
  emit(w.take());
}

void ChromeTraceExporter::handle_job_activated(SimTime t, const JobActivated& p) {
  if (!options_.prerequisites) return;
  job_activated_[{p.workflow, p.job}] = t;
  // Flow arrows: each prerequisite's completion feeds this activation. The
  // "s" end binds to the prerequisite's job span (emitted at its own
  // completion); trace viewers sort by ts, so emission order is free.
  const std::uint64_t tid = kJobTidBase + p.workflow;
  for (const std::uint32_t prereq : options_.prerequisites(p.workflow, p.job)) {
    const auto done = job_completed_.find({p.workflow, prereq});
    if (done == job_completed_.end()) continue;
    const std::uint64_t flow_id = (static_cast<std::uint64_t>(p.workflow) << 32) |
                                  (static_cast<std::uint64_t>(prereq) << 16) |
                                  p.job;
    for (const char* ph : {"s", "f"}) {
      JsonWriter w;
      w.begin_object();
      w.member("ph", ph);
      w.member("name", "dag");
      w.member("cat", "dag");
      w.member("id", flow_id);
      w.member("ts", us(ph[0] == 's' ? done->second : t));
      w.member("pid", kMasterPid);
      w.member("tid", tid);
      if (ph[0] == 'f') w.member("bp", "e");
      w.end_object();
      emit(w.take());
    }
  }
}

void ChromeTraceExporter::handle_job_completed(SimTime t, const JobCompleted& p) {
  if (!options_.prerequisites) return;
  job_completed_[{p.workflow, p.job}] = t;
  const auto started = job_activated_.find({p.workflow, p.job});
  if (started == job_activated_.end()) return;  // attached mid-run
  const std::uint64_t tid = kJobTidBase + p.workflow;
  ensure_thread(kMasterPid, tid, "w" + std::to_string(p.workflow) + " jobs");
  JsonWriter w;
  w.begin_object();
  w.member("ph", "X");
  w.member("name", task_name(p.workflow, p.job));
  w.member("cat", "job");
  w.member("ts", us(started->second));
  w.member("dur", us(t - started->second));
  w.member("pid", kMasterPid);
  w.member("tid", tid);
  w.key("args");
  w.begin_object();
  w.member("workflow", p.workflow);
  w.member("job", p.job);
  w.end_object();
  w.end_object();
  emit(w.take());
}

void ChromeTraceExporter::on_event(const Event& event) {
  if (finished_) {
    ++dropped_;
    return;
  }
  const SimTime t = event.time;
  ensure_process(kMasterPid, "JobTracker (master)");

  struct Visitor {
    ChromeTraceExporter& ex;
    SimTime t;

    void operator()(const WorkflowSubmitted& p) {
      ex.ensure_thread(kMasterPid, kWorkflowTid, "workflows");
      JsonWriter a;
      a.begin_object();
      a.member("workflow", p.workflow);
      a.member("name", p.name);
      if (p.deadline != kTimeInfinity) a.member("deadline_ms", p.deadline);
      a.member("jobs", p.jobs);
      a.end_object();
      ex.instant(t, kMasterPid, kWorkflowTid,
                 "submit w" + std::to_string(p.workflow), a.take());
    }
    void operator()(const WorkflowCompleted& p) {
      ex.ensure_thread(kMasterPid, kWorkflowTid, "workflows");
      JsonWriter a;
      a.begin_object();
      a.member("workflow", p.workflow);
      a.member("met_deadline", p.met_deadline);
      a.end_object();
      ex.instant(t, kMasterPid, kWorkflowTid,
                 "finish w" + std::to_string(p.workflow) +
                     (p.met_deadline ? "" : " (MISSED)"),
                 a.take());
    }
    void operator()(const WorkflowFailed& p) {
      ex.ensure_thread(kMasterPid, kWorkflowTid, "workflows");
      ex.instant(t, kMasterPid, kWorkflowTid,
                 "FAILED w" + std::to_string(p.workflow), "");
    }
    void operator()(const WorkflowRejected& p) {
      ex.ensure_thread(kMasterPid, kWorkflowTid, "workflows");
      JsonWriter a;
      a.begin_object();
      a.member("reason", p.reason);
      if (p.deadline != kTimeInfinity) a.member("deadline_ms", p.deadline);
      a.end_object();
      ex.instant(t, kMasterPid, kWorkflowTid, "REJECTED " + p.name, a.take());
    }
    void operator()(const WorkflowShed& p) {
      ex.ensure_thread(kMasterPid, kWorkflowTid, "workflows");
      JsonWriter a;
      a.begin_object();
      a.member("attempts_killed", p.attempts_killed);
      if (p.deadline != kTimeInfinity) a.member("deadline_ms", p.deadline);
      a.end_object();
      ex.instant(t, kMasterPid, kWorkflowTid,
                 "SHED w" + std::to_string(p.workflow), a.take());
    }
    void operator()(const JobActivated& p) { ex.handle_job_activated(t, p); }
    void operator()(const JobCompleted& p) { ex.handle_job_completed(t, p); }
    void operator()(const TaskStarted& p) { ex.handle(t, p); }
    void operator()(const TaskEnded& p) { ex.handle(t, p); }
    void operator()(const SpeculativeLaunched& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      JsonWriter a;
      a.begin_object();
      a.member("backs_up_attempt", p.original_attempt);
      a.end_object();
      ex.instant(t, pid, 0, "speculative " + task_name(p.workflow, p.job),
                 a.take());
    }
    void operator()(const HeartbeatServed&) {}
    void operator()(const TrackerCrashed& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      JsonWriter a;
      a.begin_object();
      if (p.restart_time != kTimeInfinity) a.member("restart_at_ms", p.restart_time);
      a.end_object();
      ex.instant(t, pid, 0, "CRASH", a.take());
    }
    void operator()(const TrackerLost& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      JsonWriter a;
      a.begin_object();
      a.member("attempts_killed", p.attempts_killed);
      a.member("map_outputs_lost", p.map_outputs_lost);
      a.end_object();
      ex.instant(t, pid, 0, "declared lost", a.take());
    }
    void operator()(const TrackerRestarted& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      ex.instant(t, pid, 0, "re-registered", "");
    }
    void operator()(const TrackerDraining& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      JsonWriter a;
      a.begin_object();
      a.member("lease_deadline_ms", p.lease_deadline);
      a.end_object();
      ex.instant(t, pid, 0, "draining", a.take());
    }
    void operator()(const TrackerDecommissioned& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      JsonWriter a;
      a.begin_object();
      a.member("migrated", p.migrated);
      a.end_object();
      ex.instant(t, pid, 0, "decommissioned", a.take());
    }
    void operator()(const TrackerJoined& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      ex.instant(t, pid, 0, "joined", "");
    }
    void operator()(const PreemptionWarning& p) {
      const std::uint64_t pid = kTrackerPidBase + p.tracker;
      ex.ensure_process(pid, "TaskTracker " + std::to_string(p.tracker));
      JsonWriter a;
      a.begin_object();
      a.member("termination_time_ms", p.termination_time);
      a.end_object();
      ex.instant(t, pid, 0, "PREEMPTION WARNING", a.take());
    }
    void operator()(const PlanGenerated& p) {
      ex.ensure_thread(kMasterPid, kWorkflowTid, "workflows");
      JsonWriter a;
      a.begin_object();
      a.member("resource_cap", p.resource_cap);
      a.member("simulated_makespan_ms", p.simulated_makespan);
      a.member("steps", static_cast<std::uint64_t>(p.steps));
      a.member("total_tasks", p.total_tasks);
      a.end_object();
      ex.instant(t, kMasterPid, kWorkflowTid,
                 "plan w" + std::to_string(p.workflow), a.take());
    }
    void operator()(const QueueReordered& p) {
      ex.ensure_thread(kMasterPid, kDecisionTid, "decisions");
      JsonWriter a;
      a.begin_object();
      a.member("tasks_lost", p.tasks_lost);
      a.end_object();
      ex.instant(t, kMasterPid, kDecisionTid,
                 "reorder w" + std::to_string(p.workflow), a.take());
    }
    void operator()(const SchedulerDecision& p) {
      ex.ensure_thread(kMasterPid, kDecisionTid, "decisions");
      JsonWriter a;
      a.begin_object();
      a.member("scheduler", p.scheduler);
      a.member("slot", to_string(p.slot));
      a.member("tracker", static_cast<std::uint64_t>(p.tracker));
      a.key("ranking");
      a.begin_array();
      for (const auto& c : p.ranking) {
        a.begin_object();
        a.member("workflow", c.workflow);
        if (c.job != SchedulerDecision::kNoJob) a.member("job", c.job);
        a.member("score", c.score);
        a.member("requirement", c.requirement);
        a.member("rho", c.rho);
        a.end_object();
      }
      a.end_array();
      a.end_object();
      const std::string name =
          p.assigned ? "assign " + task_name(p.workflow, p.job) : "idle";
      ex.instant(t, kMasterPid, kDecisionTid, name, a.take());
    }
  };
  std::visit(Visitor{*this, t}, event.payload);
}

}  // namespace woha::obs
