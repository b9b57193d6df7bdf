// Golden over every way a task attempt leaves its slot. An attempt starts
// either from a scheduler pick or as a speculative backup, and it ends in
// one of three ways: it finishes, it fails and retries, or it is KILLED
// (node loss, lost speculation race, workflow failure, shedding, drain
// migration, preemption). When it leaves while its speculation twin still
// runs, the twin becomes an ordinary attempt again. This test drives small
// WOHA-LPF and FIFO runs through all of those exits at once and pins:
//
//  * an FNV-1a digest of the JSONL export (every event, in order), of the
//    RunSummary fields digest_overload covers, and of the engine RNG state,
//    so no launch or removal may move an event, a schedule or a draw;
//  * that the runs really reach every exit, derived from the event stream.
//
// Refresh the golden only after an intentional semantic change: run
//   WOHA_PRINT_GOLDENS=1 ./build/tests/integration_tests
//       --gtest_filter='AttemptLifecycle.*'
// and paste the printed value into kAttemptLifecycleGolden.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.hpp"
#include "hadoop/engine.hpp"
#include "metrics/report.hpp"
#include "obs/export_jsonl.hpp"
#include "overload_scenario.hpp"
#include "trace/arrivals.hpp"
#include "trace/deadlines.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

inline constexpr std::uint64_t kAttemptLifecycleGolden = 0xe5e56afe2cf7a388ull;

/// Where an attempt left while its speculation twin was still running.
enum class TwinExit {
  kShed,            ///< its workflow was shed
  kFailed,          ///< injected failure (the twin carries the task on)
  kNodeLoss,        ///< its tracker was declared lost
  kWorkflowFailed,  ///< a sibling task exhausted the attempt budget
  kMigration,       ///< drain lease expiry or preemption
};
constexpr std::size_t kTwinExits = 5;

/// Exits observed on the event stream of one run.
struct ExitTally {
  std::map<obs::KillCause, std::uint64_t> kills;
  std::uint64_t backups_won = 0;   ///< originals killed by a race
  std::uint64_t backups_lost = 0;  ///< backups killed by a race
  std::uint64_t workflows_failed = 0;
  std::array<std::uint64_t, kTwinExits> twin_exits{};

  // Stream state: running attempts and the current twin of each.
  std::set<std::uint64_t> running;
  std::map<std::uint64_t, std::uint64_t> twin;

  void observe(const obs::Event& e) {
    if (const auto* s = std::get_if<obs::SpeculativeLaunched>(&e.payload)) {
      twin[s->attempt] = s->original_attempt;
      twin[s->original_attempt] = s->attempt;
    } else if (const auto* s = std::get_if<obs::TaskStarted>(&e.payload)) {
      running.insert(s->attempt);
    } else if (const auto* f = std::get_if<obs::TaskEnded>(&e.payload)) {
      ended(*f);
    } else if (std::holds_alternative<obs::WorkflowFailed>(e.payload)) {
      ++workflows_failed;
    }
  }

  void ended(const obs::TaskEnded& f) {
    running.erase(f.attempt);
    if (f.killed) ++kills[f.cause];
    if (f.cause == obs::KillCause::kSpeculationRace) {
      ++(f.speculative ? backups_lost : backups_won);
    }
    const auto it = twin.find(f.attempt);
    if (it == twin.end()) return;
    const std::uint64_t other = it->second;
    twin.erase(it);
    if (const auto o = twin.find(other); o != twin.end() && o->second == f.attempt) {
      twin.erase(o);
    }
    if (running.count(other) == 0) return;
    switch (f.cause) {
      case obs::KillCause::kShed:
        ++twin_exits[static_cast<std::size_t>(TwinExit::kShed)];
        break;
      case obs::KillCause::kNodeLoss:
        ++twin_exits[static_cast<std::size_t>(TwinExit::kNodeLoss)];
        break;
      case obs::KillCause::kWorkflowFailed:
        ++twin_exits[static_cast<std::size_t>(TwinExit::kWorkflowFailed)];
        break;
      case obs::KillCause::kDrainMigration:
      case obs::KillCause::kPreemption:
        ++twin_exits[static_cast<std::size_t>(TwinExit::kMigration)];
        break;
      case obs::KillCause::kNone:
        if (f.failed) ++twin_exits[static_cast<std::size_t>(TwinExit::kFailed)];
        break;
      case obs::KillCause::kSpeculationRace:
        break;
    }
  }
};

std::vector<wf::WorkflowSpec> lifecycle_workload() {
  std::vector<wf::WorkflowSpec> workflows;
  for (std::uint32_t i = 0; i < 20; ++i) {
    auto spec = wf::diamond(2 + i % 3);
    spec.name = "wf" + std::to_string(i);
    workflows.push_back(std::move(spec));
  }
  trace::DeadlinePolicy deadlines;
  deadlines.reference_cap = 12;
  deadlines.slack_lo = 1.1;
  deadlines.slack_hi = 4.0;
  trace::assign_deadlines(workflows, 15, deadlines);
  trace::ArrivalConfig arrivals;
  arrivals.rho = 1.2;
  arrivals.cluster_slots = 30;
  trace::assign_open_loop_arrivals(workflows, 14, arrivals);
  return workflows;
}

hadoop::EngineConfig lifecycle_config() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 10;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.seed = 7;
  config.duration_jitter_sigma = 0.6;
  config.task_failure_prob = 0.2;
  config.faults.max_attempts = 3;
  config.faults.blacklist_task_failures = 1;
  config.faults.tracker_mtbf = 900.0 * 1000.0;
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(180);
  config.faults.speculative_execution = true;
  config.faults.speculative_min_runtime = seconds(20);
  config.admission.policy = hadoop::AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 4;
  config.elasticity.decommissions.push_back({2, minutes(10), seconds(30)});
  config.elasticity.decommissions.push_back({5, minutes(25), seconds(20)});
  config.elasticity.preemption_waves.push_back({minutes(18), 2, seconds(30)});
  // Over 4x FIFO's 1.10 h makespan. No run gets near it, so the golden does
  // not depend on it, but a stranded job fails the golden instead of
  // beating forever.
  config.horizon = hours(5);
  return config;
}

struct RunOutput {
  std::uint64_t digest = 0;
  ExitTally tally;
};

RunOutput run(const metrics::SchedulerEntry& entry) {
  const auto workload = lifecycle_workload();
  hadoop::Engine engine(lifecycle_config(), entry.make());
  std::ostringstream jsonl_out;
  obs::JsonlExporter jsonl(engine.events(), jsonl_out);
  RunOutput out;
  engine.events().subscribe([&out](const obs::Event& e) { out.tally.observe(e); });
  audit::InvariantAuditor auditor(engine);
  for (const auto& spec : workload) engine.submit(spec);
  engine.run();
  auditor.full_sweep();

  testing::Fnv1a h;
  h.mix(jsonl_out.str());
  h.mix(testing::digest_overload({metrics::ExperimentResult{
      entry.label, engine.summarize(), 0.0}}));
  for (const std::uint64_t word : engine.rng_state()) h.mix(word);
  out.digest = h.value();
  return out;
}

TEST(AttemptLifecycle, EveryExitIsReachedAndPinned) {
  testing::Fnv1a h;
  for (const auto& entry : metrics::paper_schedulers()) {
    if (entry.label != "FIFO" && entry.label != "WOHA-LPF") continue;
    const RunOutput r = run(entry);
    h.mix(r.digest);
    // Each run reaches every exit, otherwise the golden stops covering it.
    const ExitTally& t = r.tally;
    for (const obs::KillCause cause :
         {obs::KillCause::kNodeLoss, obs::KillCause::kSpeculationRace,
          obs::KillCause::kWorkflowFailed, obs::KillCause::kShed,
          obs::KillCause::kDrainMigration, obs::KillCause::kPreemption}) {
      EXPECT_GT(t.kills.count(cause), 0u) << entry.label << " " << to_string(cause);
    }
    EXPECT_GT(t.backups_won, 0u) << entry.label;
    EXPECT_GT(t.backups_lost, 0u) << entry.label;
    EXPECT_GT(t.workflows_failed, 0u) << entry.label;
    for (std::size_t i = 0; i < kTwinExits; ++i) {
      EXPECT_GT(t.twin_exits[i], 0u) << entry.label << " twin exit " << i;
    }
  }

  if (std::getenv("WOHA_PRINT_GOLDENS") != nullptr) {
    std::printf("golden attempt_lifecycle 0x%016llxull\n",
                static_cast<unsigned long long>(h.value()));
    return;
  }
  EXPECT_EQ(h.value(), kAttemptLifecycleGolden)
      << "an attempt launch or exit moved an event, a schedule or a draw. "
         "See the file comment before refreshing.";
}

}  // namespace
}  // namespace woha
