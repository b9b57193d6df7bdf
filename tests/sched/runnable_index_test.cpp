// FIFO, Fair, EDF, EDF-JOB and WOHA read the JobTracker's runnable reports
// instead of scanning. These tests run the four baselines against
// test-local copies of the scanning versions they replaced (FIFO's job
// list, Fair's and EDF's workflow lists, EDF-JOB's std::map of active
// jobs), and WOHA on each indexed queue (DSL, BST, BSTplain) against WOHA
// on NaiveQueue, which ignores runnable reports and probes every queued
// workflow. They require the same decisions: the same task starts (time,
// tracker, slot, workflow, job) in the same order and the same run summary,
// with and without a bus subscriber, and no ranked candidate that cannot
// use the offered slot type; a baseline must also publish the same decision
// rankings as its reference. They run on random DAGs and on the scale
// workload, with retries, tracker crashes (lost map outputs),
// blacklist-filtered offers, speculation, shedding and an elastic drain.
// Directed cases pin the orders the indices must get right: an older job
// that becomes runnable again goes first, and a filtered offer skips the
// head of the index. A property test checks the baselines' shared ordering,
// sched::RunnableOrder, against std::set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "hadoop/job_tracker.hpp"
#include "sched/decomposed_edf_scheduler.hpp"
#include "sched/edf_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/runnable_order.hpp"
#include "trace/scale_workload.hpp"
#include "workflow/analysis.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

using hadoop::JobRef;
using hadoop::SlotOffer;
using Candidate = obs::SchedulerDecision::Candidate;

// ---- the references: the baselines as they scanned before the index ------

class ScanningFifo final : public hadoop::WorkflowScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "FIFO"; }
  void on_workflow_submitted(WorkflowId, SimTime) override {}
  void on_job_activated(JobRef job, SimTime) override { queue_.push_back(job); }
  void on_job_completed(JobRef job, SimTime) override {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job), queue_.end());
  }
  void on_workflow_failed(WorkflowId wf, SimTime) override {
    std::erase_if(queue_, [wf](JobRef ref) { return ref.workflow == wf.value(); });
  }
  std::optional<JobRef> select_task(const SlotOffer& slot, SimTime now) override {
    std::optional<JobRef> choice;
    for (const JobRef ref : queue_) {
      if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) {
        choice = ref;
        break;
      }
    }
    publish_decision(slot, choice, now, [&](auto& ranking) {
      for (const JobRef ref : queue_) {
        if (ranking.size() == obs::kMaxRankedCandidates) break;
        if (!tracker_->job(ref).has_available(slot.type)) continue;
        ranking.push_back(Candidate{ref.workflow, ref.job,
                                    static_cast<std::int64_t>(ranking.size()), 0, 0});
      }
    });
    return choice;
  }

 private:
  std::vector<JobRef> queue_;
};

class ScanningFair final : public hadoop::WorkflowScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Fair"; }
  void on_workflow_submitted(WorkflowId wf, SimTime) override {
    workflows_.push_back(Share{wf, 0});
  }
  void on_job_activated(JobRef job, SimTime) override {
    active_jobs_[job.workflow].push_back(job.job);
  }
  void on_task_finished(JobRef job, SlotType, SimTime) override {
    for (auto& share : workflows_) {
      if (share.id.value() == job.workflow) {
        --share.running_tasks;
        return;
      }
    }
  }
  void on_workflow_completed(WorkflowId wf, SimTime) override {
    std::erase_if(workflows_, [wf](const Share& s) { return s.id == wf; });
    active_jobs_.erase(wf.value());
  }
  std::optional<JobRef> select_task(const SlotOffer& slot, SimTime now) override {
    Share* best = nullptr;
    std::optional<JobRef> choice;
    for (auto& share : workflows_) {
      if (best && share.running_tasks >= best->running_tasks) continue;
      if (tracker_->workflow(share.id).available_jobs(slot.type) == 0) continue;
      const auto it = active_jobs_.find(share.id.value());
      if (it == active_jobs_.end()) continue;
      for (const std::uint32_t j : it->second) {
        const JobRef ref{share.id.value(), j};
        if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) {
          best = &share;
          choice = ref;
          break;
        }
      }
    }
    // The runnable workflows by (running tasks, id), before this pick.
    publish_decision(slot, choice, now, [&](auto& ranking) {
      std::vector<const Share*> runnable;
      for (const Share& share : workflows_) {
        if (tracker_->workflow(share.id).available_jobs(slot.type) > 0) {
          runnable.push_back(&share);
        }
      }
      std::ranges::sort(runnable, [](const Share* a, const Share* b) {
        return std::tie(a->running_tasks, a->id) < std::tie(b->running_tasks, b->id);
      });
      for (const Share* share : runnable) {
        if (ranking.size() == obs::kMaxRankedCandidates) break;
        ranking.push_back(Candidate{share->id.value(), obs::SchedulerDecision::kNoJob,
                                    share->running_tasks, 0, 0});
      }
    });
    if (best) ++best->running_tasks;
    return choice;
  }

 private:
  struct Share {
    WorkflowId id;
    std::uint32_t running_tasks = 0;
  };
  std::vector<Share> workflows_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> active_jobs_;
};

/// Every unfinished workflow in (deadline, id) order, scanned per offer;
/// jobs stay on their workflow's list after they complete.
class ScanningEdf final : public hadoop::WorkflowScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "EDF"; }
  void on_workflow_submitted(WorkflowId wf, SimTime) override {
    const SimTime deadline = tracker_->workflow(wf).deadline();
    const auto pos = std::find_if(
        by_deadline_.begin(), by_deadline_.end(), [&](WorkflowId other) {
          const SimTime od = tracker_->workflow(other).deadline();
          return od > deadline || (od == deadline && other > wf);
        });
    by_deadline_.insert(pos, wf);
  }
  void on_job_activated(JobRef job, SimTime) override {
    active_jobs_[job.workflow].push_back(job.job);
  }
  void on_workflow_completed(WorkflowId wf, SimTime) override {
    std::erase(by_deadline_, wf);
    active_jobs_.erase(wf.value());
  }
  std::optional<JobRef> select_task(const SlotOffer& slot, SimTime now) override {
    std::optional<JobRef> choice;
    for (const WorkflowId wf : by_deadline_) {
      if (tracker_->workflow(wf).available_jobs(slot.type) == 0) continue;
      const auto it = active_jobs_.find(wf.value());
      if (it == active_jobs_.end()) continue;
      for (std::uint32_t j : it->second) {
        const JobRef ref{wf.value(), j};
        if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) {
          choice = ref;
          break;
        }
      }
      if (choice) break;
    }
    publish_decision(slot, choice, now, [&](auto& ranking) {
      for (const WorkflowId wf : by_deadline_) {
        if (ranking.size() == obs::kMaxRankedCandidates) break;
        const hadoop::WorkflowRuntime& rt = tracker_->workflow(wf);
        if (rt.available_jobs(slot.type) == 0) continue;
        ranking.push_back(
            Candidate{wf.value(), obs::SchedulerDecision::kNoJob, rt.deadline(), 0, 0});
      }
    });
    return choice;
  }

 private:
  std::vector<WorkflowId> by_deadline_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> active_jobs_;
};

/// Every active job in a std::map by (virtual deadline, workflow, job),
/// scanned per offer for one with an available task.
class MapEdfJob final : public hadoop::WorkflowScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "EDF-JOB"; }
  void on_workflow_submitted(WorkflowId wf, SimTime) override {
    const hadoop::WorkflowRuntime& rt = tracker_->workflow(wf);
    const auto& spec = rt.spec();
    std::vector<SimTime> deadlines(spec.jobs.size(), kTimeInfinity);
    if (rt.deadline() != kTimeInfinity) {
      const auto downstream = wf::downstream_path_length(spec);
      for (std::uint32_t j = 0; j < spec.jobs.size(); ++j) {
        deadlines[j] = rt.deadline() - (downstream[j] - spec.jobs[j].serial_length());
      }
    }
    deadlines_[wf.value()] = std::move(deadlines);
  }
  void on_job_activated(JobRef job, SimTime) override { active_.emplace(key(job), job); }
  void on_job_completed(JobRef job, SimTime) override { active_.erase(key(job)); }
  void on_workflow_failed(WorkflowId wf, SimTime) override {
    std::erase_if(active_, [wf](const auto& entry) {
      return entry.second.workflow == wf.value();
    });
    deadlines_.erase(wf.value());
  }
  std::optional<JobRef> select_task(const SlotOffer& slot, SimTime now) override {
    std::optional<JobRef> choice;
    for (const auto& [key, ref] : active_) {
      if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) {
        choice = ref;
        break;
      }
    }
    publish_decision(slot, choice, now, [&](auto& ranking) {
      for (const auto& [key, ref] : active_) {
        if (ranking.size() >= obs::kMaxRankedCandidates) break;
        if (!tracker_->job(ref).has_available(slot.type)) continue;
        ranking.push_back(Candidate{ref.workflow, ref.job, std::get<0>(key), 0, 0});
      }
    });
    return choice;
  }

 private:
  using Key = std::tuple<SimTime, std::uint32_t, std::uint32_t>;
  Key key(JobRef job) const {
    return Key{deadlines_.at(job.workflow)[job.job], job.workflow, job.job};
  }
  std::unordered_map<std::uint32_t, std::vector<SimTime>> deadlines_;
  std::map<Key, JobRef> active_;
};

// ---- side-by-side runs ---------------------------------------------------

struct TaskStart {
  SimTime time = 0;
  std::size_t tracker = 0;
  SlotType slot = SlotType::kMap;
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
  friend bool operator==(const TaskStart&, const TaskStart&) = default;
};

std::string describe(const TaskStart& s) {
  return "t=" + std::to_string(s.time) + " tracker " + std::to_string(s.tracker) +
         (s.slot == SlotType::kMap ? " map " : " reduce ") + "w" +
         std::to_string(s.workflow) + "/j" + std::to_string(s.job);
}

/// Forwards every virtual to the scheduler under test and records each task
/// the scheduler starts, so an untraced run (no bus subscriber) still yields
/// its full start sequence.
class Recorder final : public hadoop::WorkflowScheduler {
 public:
  Recorder(std::unique_ptr<hadoop::WorkflowScheduler> inner, std::vector<TaskStart>* out)
      : inner_(std::move(inner)), out_(out) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(const hadoop::JobTracker* tracker) override {
    WorkflowScheduler::attach(tracker);
    inner_->attach(tracker);
  }
  void observe(obs::EventBus* bus, obs::MetricsRegistry* registry) override {
    inner_->observe(bus, registry);
  }
  void on_cluster_configured(std::uint32_t maps, std::uint32_t reduces) override {
    inner_->on_cluster_configured(maps, reduces);
  }
  void on_workflow_submitted(WorkflowId wf, SimTime now) override {
    inner_->on_workflow_submitted(wf, now);
  }
  void on_job_activated(JobRef job, SimTime now) override {
    inner_->on_job_activated(job, now);
  }
  void on_task_finished(JobRef job, SlotType t, SimTime now) override {
    inner_->on_task_finished(job, t, now);
  }
  void on_job_completed(JobRef job, SimTime now) override {
    inner_->on_job_completed(job, now);
  }
  void on_workflow_completed(WorkflowId wf, SimTime now) override {
    inner_->on_workflow_completed(wf, now);
  }
  void on_workflow_failed(WorkflowId wf, SimTime now) override {
    inner_->on_workflow_failed(wf, now);
  }
  void on_tasks_lost(JobRef job, SlotType t, std::uint32_t count, SimTime now) override {
    inner_->on_tasks_lost(job, t, count, now);
  }
  std::optional<JobRef> select_task(const SlotOffer& slot, SimTime now) override {
    return inner_->select_task(slot, now);
  }
  std::uint32_t select_tasks(const SlotOffer& slot, std::uint32_t limit,
                             const std::function<void(JobRef)>& start,
                             SimTime now) override {
    return inner_->select_tasks(
        slot, limit,
        [&](JobRef ref) {
          out_->push_back(TaskStart{now, slot.tracker, slot.type, ref.workflow, ref.job});
          start(ref);
        },
        now);
  }

 private:
  std::unique_ptr<hadoop::WorkflowScheduler> inner_;
  std::vector<TaskStart>* out_;
};

/// One published SchedulerDecision: the offer, the pick and the ranking.
struct Decision {
  SimTime time = 0;
  std::size_t tracker = 0;
  SlotType slot = SlotType::kMap;
  bool assigned = false;
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
  /// (workflow, job, score) per ranked candidate, in ranking order.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::int64_t>> ranking;
  friend bool operator==(const Decision&, const Decision&) = default;
};

std::string describe(const Decision& d) {
  std::string out = "t=" + std::to_string(d.time) + " tracker " +
                    std::to_string(d.tracker) + " " + to_string(d.slot) +
                    (d.assigned ? " -> w" + std::to_string(d.workflow) + "/j" +
                                      std::to_string(d.job)
                                : std::string(" idle")) +
                    ", ranking";
  for (const auto& [wf, job, score] : d.ranking) {
    out += " w" + std::to_string(wf) + "/j" + std::to_string(job) + ":" +
           std::to_string(score);
  }
  return out;
}

struct Outcome {
  std::vector<TaskStart> picks;      ///< tasks the scheduler started
  std::vector<TaskStart> published;  ///< TaskStarted events (backups too)
  std::vector<Decision> decisions;   ///< published SchedulerDecisions
  /// Ranked candidates that could not use the offered slot type: the
  /// indexed schedulers rank only runnable jobs and workflows.
  std::uint64_t stale_candidates = 0;
  hadoop::RunSummary summary;
};

Outcome run(const hadoop::EngineConfig& config,
            const std::vector<wf::WorkflowSpec>& specs,
            std::unique_ptr<hadoop::WorkflowScheduler> scheduler, bool traced) {
  Outcome out;
  hadoop::Engine engine(config,
                        std::make_unique<Recorder>(std::move(scheduler), &out.picks));
  if (traced) {
    const hadoop::JobTracker& tracker = engine.job_tracker();
    engine.events().subscribe([&out, &tracker](const obs::Event& e) {
      if (const auto* s = std::get_if<obs::TaskStarted>(&e.payload)) {
        out.published.push_back(
            TaskStart{e.time, s->tracker, s->slot, s->workflow, s->job});
      } else if (const auto* d = std::get_if<obs::SchedulerDecision>(&e.payload)) {
        Decision& rec = out.decisions.emplace_back(
            Decision{e.time, d->tracker, d->slot, d->assigned, d->workflow, d->job, {}});
        for (const auto& c : d->ranking) {
          rec.ranking.emplace_back(c.workflow, c.job, c.score);
          const hadoop::WorkflowRuntime& wf = tracker.workflow(WorkflowId(c.workflow));
          const bool runnable = c.job == obs::SchedulerDecision::kNoJob
                                    ? wf.available_jobs(d->slot) > 0
                                    : wf.job(c.job).has_available(d->slot);
          if (!runnable) ++out.stale_candidates;
        }
      }
    });
  }
  for (const wf::WorkflowSpec& spec : specs) engine.submit(spec);
  engine.run();
  out.summary = engine.summarize();
  return out;
}

void expect_same_starts(const std::vector<TaskStart>& want,
                        const std::vector<TaskStart>& got, const std::string& label) {
  const auto [w, g] = std::mismatch(want.begin(), want.end(), got.begin(), got.end());
  if (w == want.end() && g == got.end()) return;
  ADD_FAILURE() << label << ": task start " << (w - want.begin()) << " of " << want.size()
                << " (indexed run: " << got.size() << ") differs: reference "
                << (w == want.end() ? std::string("ended") : describe(*w)) << ", indexed "
                << (g == got.end() ? std::string("ended") : describe(*g));
}

void expect_same_decisions(const std::vector<Decision>& want,
                           const std::vector<Decision>& got, const std::string& label) {
  const auto [w, g] = std::mismatch(want.begin(), want.end(), got.begin(), got.end());
  if (w == want.end() && g == got.end()) return;
  ADD_FAILURE() << label << ": decision " << (w - want.begin()) << " of " << want.size()
                << " (indexed run: " << got.size() << ") differs: reference "
                << (w == want.end() ? std::string("ended") : describe(*w)) << ", indexed "
                << (g == got.end() ? std::string("ended") : describe(*g));
}

void expect_same_summary(const hadoop::RunSummary& want, const hadoop::RunSummary& got,
                         const std::string& label) {
  EXPECT_EQ(want.makespan, got.makespan) << label;
  EXPECT_EQ(want.deadline_miss_ratio, got.deadline_miss_ratio) << label;
  EXPECT_EQ(want.total_tardiness, got.total_tardiness) << label;
  EXPECT_EQ(want.overall_utilization, got.overall_utilization) << label;
  EXPECT_EQ(want.tasks_executed, got.tasks_executed) << label;
  EXPECT_EQ(want.tasks_failed, got.tasks_failed) << label;
  EXPECT_EQ(want.events_fired, got.events_fired) << label;
  EXPECT_EQ(want.select_calls, got.select_calls) << label;
  EXPECT_EQ(want.tracker_crashes, got.tracker_crashes) << label;
  EXPECT_EQ(want.attempts_killed, got.attempts_killed) << label;
  EXPECT_EQ(want.map_outputs_lost, got.map_outputs_lost) << label;
  EXPECT_EQ(want.workflows_failed, got.workflows_failed) << label;
  EXPECT_EQ(want.blacklistings, got.blacklistings) << label;
  EXPECT_EQ(want.speculative_launched, got.speculative_launched) << label;
  EXPECT_EQ(want.speculative_won, got.speculative_won) << label;
  EXPECT_EQ(want.workflows_shed, got.workflows_shed) << label;
  EXPECT_EQ(want.tracker_decommissions, got.tracker_decommissions) << label;
  EXPECT_EQ(want.drain_migrated, got.drain_migrated) << label;
  ASSERT_EQ(want.workflows.size(), got.workflows.size()) << label;
  for (std::size_t i = 0; i < want.workflows.size(); ++i) {
    EXPECT_EQ(want.workflows[i].finish_time, got.workflows[i].finish_time)
        << label << " workflow " << i;
    EXPECT_EQ(want.workflows[i].failed, got.workflows[i].failed)
        << label << " workflow " << i;
  }
}

/// Fault-path coverage summed over a test's reference runs, so each test
/// can assert that its scenarios reached the paths the index must survive.
struct Coverage {
  std::uint64_t retries = 0, crashes = 0, outputs_lost = 0, blacklistings = 0,
                backups = 0, shed = 0, drains = 0;
  void add(const hadoop::RunSummary& s) {
    retries += s.tasks_failed;
    crashes += s.tracker_crashes;
    outputs_lost += s.map_outputs_lost;
    blacklistings += s.blacklistings;
    backups += s.speculative_launched;
    shed += s.workflows_shed;
    drains += s.tracker_decommissions;
  }
};

using Factory = std::function<std::unique_ptr<hadoop::WorkflowScheduler>()>;

/// One indexed scheduler and the reference it must decide exactly like.
struct Pair {
  std::string label;
  Factory reference;
  Factory indexed;
  /// The two publish the same decision rankings (NaiveQueue's ranking also
  /// lists workflows with nothing runnable, so WOHA pairs compare picks).
  bool same_rankings = true;
};

/// The four baselines against their scanning references.
std::vector<Pair> baselines() {
  return {
      {"FIFO", [] { return std::make_unique<ScanningFifo>(); },
       [] { return std::make_unique<sched::FifoScheduler>(); }},
      {"Fair", [] { return std::make_unique<ScanningFair>(); },
       [] { return std::make_unique<sched::FairScheduler>(); }},
      {"EDF", [] { return std::make_unique<ScanningEdf>(); },
       [] { return std::make_unique<sched::EdfScheduler>(); }},
      {"EDF-JOB", [] { return std::make_unique<MapEdfJob>(); },
       [] { return std::make_unique<sched::DecomposedEdfScheduler>(); }},
  };
}

Factory woha_on(core::QueueKind kind) {
  return [kind] {
    core::WohaConfig config;
    config.job_priority = core::JobPriorityPolicy::kLpf;
    config.queue = kind;
    return std::make_unique<core::WohaScheduler>(config);
  };
}

/// WOHA-LPF on each indexed queue against WOHA-LPF on NaiveQueue.
std::vector<Pair> woha_queues() {
  std::vector<Pair> pairs;
  for (const core::QueueKind kind :
       {core::QueueKind::kDsl, core::QueueKind::kBst, core::QueueKind::kBstPlain}) {
    pairs.push_back({std::string("WOHA-LPF/") + core::to_string(kind),
                     woha_on(core::QueueKind::kNaive), woha_on(kind), false});
  }
  return pairs;
}

/// Each indexed scheduler against its reference, untraced and with a bus
/// subscriber.
void expect_equivalent(const std::vector<Pair>& pairs,
                       const hadoop::EngineConfig& config,
                       const std::vector<wf::WorkflowSpec>& specs,
                       const std::string& label, Coverage* coverage = nullptr) {
  for (const bool traced : {false, true}) {
    for (const Pair& pair : pairs) {
      const std::string what =
          label + " " + pair.label + (traced ? " traced" : " untraced");
      const Outcome want = run(config, specs, pair.reference(), traced);
      const Outcome got = run(config, specs, pair.indexed(), traced);
      ASSERT_FALSE(want.picks.empty()) << what;
      expect_same_starts(want.picks, got.picks, what);
      expect_same_starts(want.published, got.published, what + " (bus)");
      if (pair.same_rankings) {
        expect_same_decisions(want.decisions, got.decisions, what + " (decisions)");
      }
      expect_same_summary(want.summary, got.summary, what);
      EXPECT_EQ(got.stale_candidates, 0u) << what;
      if (coverage != nullptr && !traced) coverage->add(want.summary);
    }
  }
}

std::vector<wf::WorkflowSpec> random_dags(std::uint64_t seed, std::uint32_t count) {
  Rng rng(seed);
  std::vector<wf::WorkflowSpec> specs;
  for (std::uint32_t i = 0; i < count; ++i) {
    wf::RandomDagParams params;
    params.num_jobs = static_cast<std::uint32_t>(rng.uniform_int(2, 14));
    params.num_layers = static_cast<std::uint32_t>(rng.uniform_int(1, 5));
    params.shape.num_maps = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
    params.shape.num_reduces = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    params.shape.map_duration = seconds(rng.uniform_int(10, 90));
    params.shape.reduce_duration = seconds(rng.uniform_int(10, 120));
    wf::WorkflowSpec spec = wf::random_dag(rng, params);
    spec.name = "dag-" + std::to_string(i);
    spec.submit_time = seconds(rng.uniform_int(0, 1200));
    spec.relative_deadline = minutes(rng.uniform_int(10, 90));
    specs.push_back(std::move(spec));
  }
  std::stable_sort(specs.begin(), specs.end(), [](const auto& a, const auto& b) {
    return a.submit_time < b.submit_time;
  });
  return specs;
}

hadoop::EngineConfig small_cluster(std::uint32_t trackers, std::uint64_t seed) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = trackers;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.seed = seed;
  config.horizon = hours(12);  // a scheduler that stops picking ends the run
  return config;
}

/// Every path that moves a job in or out of the index, at once: failed
/// attempts and their retries, crashes that kill attempts and invalidate
/// map outputs, one-strike blacklisting (filtered offers), speculative
/// backups, shed-latest-deadline admission and one graceful drain.
hadoop::EngineConfig chaos(hadoop::EngineConfig config, std::uint64_t seed) {
  config.duration_jitter_sigma = 0.4;
  config.task_failure_prob = 0.04;
  config.faults.seed = seed + 1;
  config.faults.tracker_mtbf = static_cast<double>(hours(2));
  config.faults.tracker_restart_delay = minutes(5);
  config.faults.expiry_interval = minutes(1);
  config.faults.max_attempts = 4;
  config.faults.blacklist_task_failures = 1;
  config.faults.speculative_execution = true;
  config.admission.policy = hadoop::AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 6;
  config.elasticity.decommissions.push_back(
      hadoop::TrackerDecommissionEvent{1, minutes(10), minutes(2)});
  return config;
}

/// The chaos configuration on the 80-tracker scale workload.
hadoop::EngineConfig chaos_at_scale() {
  auto config = chaos(small_cluster(80, 7), 7);
  config.admission.max_pending_workflows = 20;
  config.elasticity.decommissions[0].tracker = 40;
  return config;
}

TEST(RunnableIndex, MatchesScanningBaselinesOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_equivalent(baselines(), small_cluster(6, seed), random_dags(seed, 10),
                      "random DAGs seed " + std::to_string(seed));
  }
}

TEST(RunnableIndex, MatchesScanningBaselinesOnRandomDagsUnderChaos) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_equivalent(baselines(), chaos(small_cluster(8, seed), seed),
                      random_dags(seed + 100, 14),
                      "chaos random DAGs seed " + std::to_string(seed), &coverage);
  }
  EXPECT_GT(coverage.retries, 0u);
  EXPECT_GT(coverage.crashes, 0u);
  EXPECT_GT(coverage.outputs_lost, 0u);
  EXPECT_GT(coverage.blacklistings, 0u);
  EXPECT_GT(coverage.backups, 0u);
  EXPECT_GT(coverage.shed, 0u);
  EXPECT_GT(coverage.drains, 0u);
}

TEST(RunnableIndex, MatchesScanningBaselinesOnScaleWorkload) {
  Coverage coverage;
  const std::vector<wf::WorkflowSpec> specs = trace::scale_workload(80, 7);
  expect_equivalent(baselines(), small_cluster(80, 7), specs, "scale_workload(80)");
  expect_equivalent(baselines(), chaos_at_scale(), specs, "chaos scale_workload(80)",
                    &coverage);
  EXPECT_GT(coverage.retries, 0u);
  EXPECT_GT(coverage.crashes, 0u);
  EXPECT_GT(coverage.blacklistings, 0u);
}

TEST(RunnableIndex, WohaMatchesNaiveQueueOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_equivalent(woha_queues(), small_cluster(6, seed), random_dags(seed, 10),
                      "random DAGs seed " + std::to_string(seed));
  }
}

TEST(RunnableIndex, WohaMatchesNaiveQueueOnRandomDagsUnderChaos) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_equivalent(woha_queues(), chaos(small_cluster(8, seed), seed),
                      random_dags(seed + 100, 14),
                      "chaos random DAGs seed " + std::to_string(seed), &coverage);
  }
  EXPECT_GT(coverage.retries, 0u);
  EXPECT_GT(coverage.crashes, 0u);
  EXPECT_GT(coverage.outputs_lost, 0u);
  EXPECT_GT(coverage.blacklistings, 0u);
  EXPECT_GT(coverage.backups, 0u);
  EXPECT_GT(coverage.shed, 0u);
  EXPECT_GT(coverage.drains, 0u);
}

TEST(RunnableIndex, WohaMatchesNaiveQueueOnScaleWorkload) {
  Coverage coverage;
  const std::vector<wf::WorkflowSpec> specs = trace::scale_workload(80, 7);
  expect_equivalent(woha_queues(), small_cluster(80, 7), specs, "scale_workload(80)");
  expect_equivalent(woha_queues(), chaos_at_scale(), specs, "chaos scale_workload(80)",
                    &coverage);
  EXPECT_GT(coverage.retries, 0u);
  EXPECT_GT(coverage.crashes, 0u);
  EXPECT_GT(coverage.blacklistings, 0u);
}

// ---- directed cases --------------------------------------------------------

wf::WorkflowSpec one_job(std::uint32_t maps) {
  wf::WorkflowSpec spec;
  spec.name = "single";
  wf::JobSpec job;
  job.name = "job";
  job.num_maps = maps;
  job.num_reduces = 1;
  spec.jobs.push_back(job);
  return spec;
}

/// A bare JobTracker with each scheduler attached to it, side by side, so
/// a test can drive jobs through their state changes by hand.
struct SideBySide {
  hadoop::JobTracker tracker;
  std::vector<std::unique_ptr<hadoop::WorkflowScheduler>> schedulers;

  void attach(std::unique_ptr<hadoop::WorkflowScheduler> s) {
    s->attach(&tracker);
    schedulers.push_back(std::move(s));
  }
  WorkflowId submit(const wf::WorkflowSpec& spec) {
    const WorkflowId id = tracker.add_workflow(spec, 0);
    for (auto& s : schedulers) s->on_workflow_submitted(id, 0);
    return id;
  }
  void activate(JobRef ref) {
    tracker.job(ref).mark_active(0);
    for (auto& s : schedulers) s->on_job_activated(ref, 0);
  }
  /// Every scheduler's pick for `offer`; they must agree.
  std::optional<JobRef> pick(const SlotOffer& offer) {
    std::optional<JobRef> first = schedulers.front()->select_task(offer, 0);
    for (std::size_t i = 1; i < schedulers.size(); ++i) {
      EXPECT_EQ(schedulers[i]->select_task(offer, 0), first) << schedulers[i]->name();
    }
    return first;
  }
};

TEST(RunnableIndex, RequeuedTaskOfAnOlderJobIsServedBeforeNewerJobs) {
  // 70 one-job workflows: the oldest jobs' bits live one index word below
  // the newest, so the index has to move its low-water word back.
  SideBySide bench;
  bench.attach(std::make_unique<sched::FifoScheduler>());
  bench.attach(std::make_unique<ScanningFifo>());
  constexpr std::uint32_t kJobs = 70;
  for (std::uint32_t w = 0; w < kJobs; ++w) bench.submit(one_job(1));
  for (std::uint32_t w = 0; w < kJobs; ++w) bench.activate({w, 0});
  const SlotOffer map_offer{SlotType::kMap, 0, nullptr};
  for (std::uint32_t w = 0; w + 1 < kJobs; ++w) {
    const auto pick = bench.pick(map_offer);
    ASSERT_EQ(pick, (JobRef{w, 0}));
    bench.tracker.job(*pick).start_task(SlotType::kMap);
  }
  // Job 0's map fails and returns to the pending pool.
  bench.tracker.job({0, 0}).fail_task(SlotType::kMap, 1);
  EXPECT_EQ(bench.pick(map_offer), (JobRef{0, 0}));
  bench.tracker.job({0, 0}).start_task(SlotType::kMap);
  // Job 1's map finishes, then its node is lost with the output on it.
  bench.tracker.job({1, 0}).finish_task(SlotType::kMap, seconds(1));
  EXPECT_EQ(bench.pick({SlotType::kReduce, 0, nullptr}), (JobRef{1, 0}));
  bench.tracker.job({1, 0}).invalidate_finished_maps(1);
  EXPECT_EQ(bench.pick(map_offer), (JobRef{1, 0}));
  EXPECT_EQ(bench.pick({SlotType::kReduce, 0, nullptr}), std::nullopt);
  bench.tracker.job({1, 0}).start_task(SlotType::kMap);
  EXPECT_EQ(bench.pick(map_offer), (JobRef{kJobs - 1, 0}));
  EXPECT_EQ(bench.tracker.available_jobs(SlotType::kMap), 1u);
}

TEST(RunnableIndex, RequeuedTaskOfAnOlderJobGoesFirstWithinAFairShare) {
  SideBySide bench;
  bench.attach(std::make_unique<sched::FairScheduler>());
  bench.attach(std::make_unique<ScanningFair>());
  wf::WorkflowSpec two_jobs = one_job(1);
  two_jobs.jobs.push_back(two_jobs.jobs.front());
  two_jobs.jobs.back().name = "second";
  two_jobs.jobs.back().num_maps = 3;
  bench.submit(two_jobs);
  bench.activate({0, 0});
  bench.activate({0, 1});
  const SlotOffer map_offer{SlotType::kMap, 0, nullptr};
  ASSERT_EQ(bench.pick(map_offer), (JobRef{0, 0}));
  bench.tracker.job({0, 0}).start_task(SlotType::kMap);
  ASSERT_EQ(bench.pick(map_offer), (JobRef{0, 1}));
  bench.tracker.job({0, 1}).start_task(SlotType::kMap);
  bench.tracker.job({0, 0}).fail_task(SlotType::kMap, 1);
  for (auto& s : bench.schedulers) s->on_task_finished({0, 0}, SlotType::kMap, 0);
  EXPECT_EQ(bench.pick(map_offer), (JobRef{0, 0}));
}

TEST(RunnableIndex, FilteredOfferSkipsTheHeadOfTheIndex) {
  for (const Pair& pair : baselines()) {
    SideBySide bench;
    bench.attach(pair.indexed());
    bench.attach(pair.reference());
    for (std::uint32_t w = 0; w < 3; ++w) bench.submit(one_job(2));
    for (std::uint32_t w = 0; w < 3; ++w) bench.activate({w, 0});
    // Tracker 0's rows: one refuses the head of the index, one every job.
    const hadoop::Blacklist not_head = {JobRef{0, 0}};
    hadoop::Blacklist none;
    for (std::uint32_t w = 0; w < 3; ++w) none.push_back(JobRef{w, 0});
    EXPECT_EQ(bench.pick({SlotType::kMap, 0, &not_head}), (JobRef{1, 0}))
        << bench.schedulers.front()->name();
    EXPECT_EQ(bench.pick({SlotType::kMap, 0, &none}), std::nullopt);
    EXPECT_EQ(bench.pick({SlotType::kMap, 0, nullptr}), (JobRef{0, 0}));
  }
}

// ---- the shared ordering against std::set ----------------------------------

/// A key from a small space, so that scores tie, workflows repeat across
/// scores and jobs, and random inserts hit held keys.
sched::RunnableKey random_key(Rng& rng) {
  const auto job = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
  return sched::RunnableKey{rng.uniform_int(-2, 5),
                            static_cast<std::uint32_t>(rng.uniform_int(0, 11)),
                            job == 3 ? obs::SchedulerDecision::kNoJob : job};
}

void expect_same_order(const sched::RunnableOrder& order,
                       const std::set<sched::RunnableKey> (&want)[2],
                       const std::string& label) {
  for (const SlotType t : {SlotType::kMap, SlotType::kReduce}) {
    const std::set<sched::RunnableKey>& keys = want[static_cast<std::size_t>(t)];
    const std::span<const sched::RunnableKey> walk = order.walk(t);
    ASSERT_TRUE(std::ranges::equal(walk, keys)) << label << " " << to_string(t);
    std::vector<Candidate> ranking;
    order.rank(t, ranking);
    ASSERT_EQ(ranking.size(), std::min(keys.size(), obs::kMaxRankedCandidates)) << label;
    auto key = keys.begin();
    for (const Candidate& c : ranking) {
      EXPECT_EQ(std::tie(c.score, c.workflow, c.job),
                std::tie(key->score, key->workflow, key->job))
          << label;
      ++key;
    }
  }
}

TEST(RunnableOrder, MatchesAnOrderedSetUnderRandomInsertEraseAndRekey) {
  std::uint64_t inserts = 0, erases = 0, rekeys_up = 0, rekeys_down = 0, refused = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    sched::RunnableOrder order;
    std::set<sched::RunnableKey> want[2];
    for (int step = 0; step < 400; ++step) {
      const SlotType t = rng.uniform_int(0, 1) == 0 ? SlotType::kMap : SlotType::kReduce;
      std::set<sched::RunnableKey>& keys = want[static_cast<std::size_t>(t)];
      const sched::RunnableKey key = random_key(rng);
      // Mostly a held key to erase or re-key, else a random one.
      const auto last = static_cast<std::int64_t>(keys.size()) - 1;
      const sched::RunnableKey held =
          keys.empty() || rng.uniform_int(0, 3) == 0
              ? key
              : *std::next(keys.begin(), rng.uniform_int(0, last));
      const std::string label = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step);
      switch (rng.uniform_int(0, 2)) {
        case 0:  // insert; a held key is refused and changes nothing
          if (keys.contains(key)) {
            EXPECT_THROW(order.insert(t, key), std::logic_error) << label;
            ++refused;
          } else {
            order.insert(t, key);
            keys.insert(key);
            ++inserts;
          }
          break;
        case 1:  // erase; a key not held is refused and changes nothing
          if (!keys.contains(held)) {
            EXPECT_THROW(order.erase(t, held), std::logic_error) << label;
            ++refused;
          } else {
            order.erase(t, held);
            keys.erase(held);
            ++erases;
          }
          break;
        default:  // re-key a held key to one not held, either way
          if (!keys.contains(held)) {
            EXPECT_THROW(order.rekey(t, held, key), std::logic_error) << label;
            ++refused;
          } else if (!keys.contains(key)) {
            order.rekey(t, held, key);
            keys.erase(held);
            keys.insert(key);
            ++(held < key ? rekeys_up : rekeys_down);
          }
          break;
      }
      expect_same_order(order, want, label);
      if (HasFatalFailure()) return;
    }
  }
  // Every operation ran, both ways for re-keys, and so did every refusal.
  EXPECT_GT(inserts, 2000u);
  EXPECT_GT(erases, 2000u);
  EXPECT_GT(rekeys_up, 1000u);
  EXPECT_GT(rekeys_down, 1000u);
  EXPECT_GT(refused, 1000u);
}

TEST(RunnableOrder, RekeyShiftsOnlyTheSpanBetweenBothPositions) {
  sched::RunnableOrder order;
  for (std::uint32_t wf = 0; wf < 6; ++wf) order.insert(SlotType::kMap, {0, wf});
  order.insert(SlotType::kReduce, {0, 2});
  // Fair after a pick of workflow 2: it moves behind every workflow that
  // still runs nothing; the reduce order is untouched.
  const auto map_ids = [&order] {
    std::vector<std::uint32_t> ids;
    for (const sched::RunnableKey& k : order.walk(SlotType::kMap)) {
      ids.push_back(k.workflow);
    }
    return ids;
  };
  order.rekey(SlotType::kMap, {0, 2}, {1, 2});
  EXPECT_EQ(map_ids(), (std::vector<std::uint32_t>{0, 1, 3, 4, 5, 2}));
  // ...and after its task finishes it goes back between 1 and 3.
  order.rekey(SlotType::kMap, {1, 2}, {0, 2});
  EXPECT_EQ(map_ids(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(order.walk(SlotType::kReduce).size(), 1u);
  EXPECT_EQ(order.walk(SlotType::kReduce).front(), (sched::RunnableKey{0, 2}));
}

}  // namespace
}  // namespace woha
