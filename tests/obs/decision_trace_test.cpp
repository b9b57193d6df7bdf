// Scheduler decision explainability: every select call — a scheduler's
// select_task, or an offer the engine answers itself because nothing of the
// slot's type is runnable — publishes one SchedulerDecision with the ranking
// consulted, every ranked candidate is runnable for the offered slot type,
// and subscribing the trace never changes what gets scheduled.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "hadoop/job_tracker.hpp"
#include "metrics/report.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

std::vector<wf::WorkflowSpec> small_workload() {
  std::vector<wf::WorkflowSpec> out;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.submit_time = i * seconds(20);
    spec.relative_deadline = minutes(40) + i * minutes(5);
    out.push_back(spec);
  }
  return out;
}

hadoop::EngineConfig small_cluster() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 3;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  return config;
}

struct Trace {
  std::vector<obs::SchedulerDecision> decisions;
  /// Ranked candidates without an available task of the offered type, as
  /// the tracker stood when the decision was published.
  std::uint64_t stale_candidates = 0;
  hadoop::RunSummary summary;
};

Trace run_traced(const metrics::SchedulerEntry& entry, bool subscribe) {
  hadoop::Engine engine(small_cluster(), entry.make());
  Trace trace;
  if (subscribe) {
    const hadoop::JobTracker& tracker = engine.job_tracker();
    engine.events().subscribe([&trace, &tracker](const obs::Event& e) {
      if (const auto* d = std::get_if<obs::SchedulerDecision>(&e.payload)) {
        trace.decisions.push_back(*d);
        for (const auto& c : d->ranking) {
          const hadoop::WorkflowRuntime& wf = tracker.workflow(WorkflowId(c.workflow));
          const bool runnable = c.job == obs::SchedulerDecision::kNoJob
                                    ? wf.available_jobs(d->slot) > 0
                                    : wf.job(c.job).has_available(d->slot);
          if (!runnable) ++trace.stale_candidates;
        }
      }
    });
  }
  for (const auto& spec : small_workload()) engine.submit(spec);
  engine.run();
  trace.summary = engine.summarize();
  return trace;
}

class DecisionTrace : public ::testing::TestWithParam<int> {};

TEST_P(DecisionTrace, EverySchedulerExplainsItsDecisions) {
  const auto entry =
      metrics::extended_schedulers()[static_cast<std::size_t>(GetParam())];
  const auto traced = run_traced(entry, true);

  ASSERT_FALSE(traced.decisions.empty()) << entry.label;
  // One decision per select call, whoever answered it.
  EXPECT_EQ(traced.decisions.size(), traced.summary.select_calls) << entry.label;
  EXPECT_EQ(traced.stale_candidates, 0u) << entry.label;
  std::size_t assigned = 0;
  for (const auto& d : traced.decisions) {
    EXPECT_FALSE(d.scheduler.empty());
    EXPECT_LE(d.ranking.size(), obs::kMaxRankedCandidates);
    if (d.assigned) {
      ++assigned;
      // Job-level schedulers (FIFO, EDF-JOB) name the wjob they picked.
      if (entry.label == "FIFO" || entry.label == "EDF-JOB") {
        EXPECT_NE(d.job, obs::SchedulerDecision::kNoJob);
      }
      // FIFO and Fair rank the candidates that are runnable for the offered
      // slot type, so an offer without a blacklist filter (this run has
      // none) goes to the first of them.
      if (entry.label == "FIFO" || entry.label == "Fair") {
        ASSERT_FALSE(d.ranking.empty()) << entry.label;
        EXPECT_EQ(d.ranking.front().workflow, d.workflow) << entry.label;
        EXPECT_EQ(d.ranking.front().job,
                  entry.label == "FIFO" ? d.job : obs::SchedulerDecision::kNoJob)
            << entry.label;
      }
    } else {
      // An idle decision must still explain itself: with no filter, only
      // an offer with nothing runnable for its type goes unassigned, and
      // then there is nothing to rank.
      EXPECT_EQ(d.workflow, 0u);
      EXPECT_TRUE(d.ranking.empty()) << entry.label;
    }
  }
  // The workload runs to completion, so tasks were assigned via decisions.
  EXPECT_GT(assigned, 0u) << entry.label;
  for (const auto& wf : traced.summary.workflows) {
    EXPECT_FALSE(wf.failed) << entry.label;
    EXPECT_GE(wf.finish_time, 0) << entry.label;
  }
}

TEST_P(DecisionTrace, TracingDoesNotChangeScheduling) {
  const auto entry =
      metrics::extended_schedulers()[static_cast<std::size_t>(GetParam())];
  const auto quiet = run_traced(entry, false);
  const auto traced = run_traced(entry, true);
  EXPECT_EQ(quiet.summary.makespan, traced.summary.makespan);
  EXPECT_EQ(quiet.summary.tasks_executed, traced.summary.tasks_executed);
  EXPECT_EQ(quiet.summary.select_calls, traced.summary.select_calls);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, DecisionTrace, ::testing::Range(0, 7),
                         [](const auto& info) {
                           auto label =
                               metrics::extended_schedulers()
                                   [static_cast<std::size_t>(info.param)].label;
                           for (auto& c : label)
                             if (c == '-') c = '_';
                           return label;
                         });

// WOHA's ranking carries the explainability payload of the paper's Sec. III:
// per candidate the requirement F_i(ttd), the progress rho_i, and the lag
// score the Double Skip List ordered by (descending).
TEST(DecisionTraceWoha, RankingCarriesLagOrdering) {
  const metrics::SchedulerEntry entry{
      "WOHA", [] { return std::make_unique<core::WohaScheduler>(); }};
  const auto traced = run_traced(entry, true);

  bool saw_multi_candidate = false;
  for (const auto& d : traced.decisions) {
    for (std::size_t i = 1; i < d.ranking.size(); ++i) {
      // Descending lag: the head of the snapshot is the most-lagging
      // workflow as the queue stood after this decision.
      EXPECT_GE(d.ranking[i - 1].score, d.ranking[i].score);
      saw_multi_candidate = true;
    }
    for (const auto& c : d.ranking) {
      // lag = F - rho, so the ordering key must be consistent per candidate.
      EXPECT_EQ(c.score, static_cast<std::int64_t>(c.requirement) -
                             static_cast<std::int64_t>(c.rho));
    }
  }
  EXPECT_TRUE(saw_multi_candidate);
}

}  // namespace
}  // namespace woha
