// Randomized cross-scheduler property sweep: for every scheduler and many
// random workloads, the simulator must uphold the structural invariants —
// every task runs exactly once, dependencies are respected, slot capacity is
// never exceeded, runs are deterministic, and no workflow is starved
// forever. These are the invariants every figure in the paper implicitly
// relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "metrics/report.hpp"
#include "trace/deadlines.hpp"
#include "workflow/analysis.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

struct SweepCase {
  std::uint64_t seed;
  std::size_t scheduler_index;  // into metrics::paper_schedulers()
};

std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (std::size_t s = 0; s < 6; ++s) cases.push_back(SweepCase{seed, s});
  }
  return cases;
}

std::vector<wf::WorkflowSpec> random_workload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<wf::WorkflowSpec> workload;
  const int n = static_cast<int>(rng.uniform_int(3, 8));
  for (int i = 0; i < n; ++i) {
    wf::RandomDagParams params;
    params.num_jobs = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
    params.num_layers = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    params.shape.num_maps = static_cast<std::uint32_t>(rng.uniform_int(2, 25));
    params.shape.num_reduces = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
    params.shape.map_duration = seconds(rng.uniform_int(5, 120));
    params.shape.reduce_duration = seconds(rng.uniform_int(10, 240));
    auto spec = wf::random_dag(rng, params);
    spec.name = "wf-" + std::to_string(i);
    workload.push_back(std::move(spec));
  }
  trace::DeadlinePolicy policy;
  policy.reference_cap = 16;
  policy.arrival_window = minutes(10);
  trace::assign_deadlines(workload, seed ^ 0xabcdef, policy);
  return workload;
}

class SchedulerPropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SchedulerPropertySweep, InvariantsHold) {
  const auto [seed, scheduler_index] = GetParam();
  const auto workload = random_workload(seed);
  const auto entry = metrics::paper_schedulers()[scheduler_index];

  // WorkflowIds are assigned in submission-*time* order (stable for ties),
  // not in engine.submit() call order; build the id -> spec view.
  std::vector<const wf::WorkflowSpec*> spec_of_id(workload.size());
  {
    std::vector<std::size_t> order(workload.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return workload[a].submit_time < workload[b].submit_time;
    });
    for (std::size_t id = 0; id < order.size(); ++id) {
      spec_of_id[id] = &workload[order[id]];
    }
  }

  hadoop::EngineConfig config;
  config.cluster.num_trackers = static_cast<std::uint32_t>(3 + seed % 5);
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(2);

  hadoop::Engine engine(config, entry.make());

  // Observer-enforced invariants.
  std::int64_t running[2] = {0, 0};
  const std::int64_t caps[2] = {config.cluster.total_map_slots(),
                                config.cluster.total_reduce_slots()};
  // (workflow, job) -> maps finished; reduce must not start before all maps.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> maps_done;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> started_total;

  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* s = std::get_if<obs::TaskStarted>(&e.payload)) {
      auto& r = running[static_cast<std::size_t>(s->slot)];
      ++r;
      ASSERT_LE(r, caps[static_cast<std::size_t>(s->slot)]);
      const auto key = std::make_pair(s->workflow, s->job);
      ++started_total[key];
      if (s->slot == SlotType::kReduce) {
        // All maps of this job must have completed first.
        const auto& job_spec = spec_of_id[s->workflow]->jobs[s->job];
        ASSERT_EQ(maps_done[key], job_spec.num_maps)
            << "reduce started before map phase finished";
      }
    } else if (const auto* f = std::get_if<obs::TaskEnded>(&e.payload)) {
      auto& r = running[static_cast<std::size_t>(f->slot)];
      --r;
      ASSERT_GE(r, 0);
      if (f->slot == SlotType::kMap && !f->failed) ++maps_done[{f->workflow, f->job}];
    }
  });

  for (const auto& spec : workload) engine.submit(spec);
  engine.run();

  const auto summary = engine.summarize();
  std::uint64_t expected_tasks = 0;
  for (const auto& spec : workload) expected_tasks += spec.total_tasks();
  EXPECT_EQ(summary.tasks_executed, expected_tasks) << entry.label;
  EXPECT_EQ(summary.tasks_failed, 0u);

  for (const auto& wf_result : summary.workflows) {
    // Nothing starves: every workflow finishes.
    EXPECT_GE(wf_result.finish_time, wf_result.submit_time) << entry.label;
    // Workspan at least the critical path of the workflow.
    const auto& spec = *spec_of_id[wf_result.id.value()];
    EXPECT_GE(wf_result.workspan, wf::critical_path_length(spec));
  }

  // Every job started exactly its task count (no lost or duplicated tasks).
  for (std::uint32_t w = 0; w < workload.size(); ++w) {
    for (std::uint32_t j = 0; j < spec_of_id[w]->jobs.size(); ++j) {
      const auto key = std::make_pair(w, j);
      EXPECT_EQ(started_total[key], spec_of_id[w]->jobs[j].total_tasks());
    }
  }
}

TEST_P(SchedulerPropertySweep, DeterministicAcrossRuns) {
  const auto [seed, scheduler_index] = GetParam();
  const auto workload = random_workload(seed);
  const auto entry = metrics::paper_schedulers()[scheduler_index];

  hadoop::EngineConfig config;
  config.cluster.num_trackers = 4;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;

  std::vector<SimTime> finishes[2];
  for (int run = 0; run < 2; ++run) {
    hadoop::Engine engine(config, entry.make());
    for (const auto& spec : workload) engine.submit(spec);
    engine.run();
    for (const auto& r : engine.summarize().workflows) {
      finishes[run].push_back(r.finish_time);
    }
  }
  EXPECT_EQ(finishes[0], finishes[1]) << entry.label;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsBySchedulers, SchedulerPropertySweep, ::testing::ValuesIn(make_cases()),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             std::to_string(info.param.scheduler_index);
    });

}  // namespace
}  // namespace woha
