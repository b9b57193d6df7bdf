// Ablation — client-side plan generation cost (paper Sec. IV-A claims the
// cost is acceptable because it runs on the client, not the master).
// Measures GenerateReqs and the binary-searched cap end-to-end for growing
// workflow sizes.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/job_priority.hpp"
#include "core/plan_cache.hpp"
#include "core/resource_cap.hpp"
#include "workflow/analysis.hpp"
#include "workflow/topology.hpp"

using namespace woha;

namespace {

double time_us(const std::function<void()>& fn, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::MetricsSession metrics_session(argc, argv);
  bench::banner("Ablation", "client-side plan generation cost");

  Rng rng(5);
  std::vector<std::pair<std::string, wf::WorkflowSpec>> cases;
  cases.emplace_back("fig7 (33 jobs)", wf::paper_fig7_topology());
  for (std::uint32_t jobs : {100u, 300u, 1000u}) {
    wf::RandomDagParams params;
    params.num_jobs = jobs;
    params.num_layers = 8;
    const auto spec = wf::random_dag(rng, params);
    cases.emplace_back("random (" + std::to_string(jobs) + " jobs)", spec);
  }

  TextTable table({"workflow", "tasks", "GenerateReqs (us)",
                   "min-cap search (us)", "plan steps"});
  for (auto& [label, spec] : cases) {
    spec.relative_deadline = wf::critical_path_length(spec) * 3;
    const auto rank = core::job_priority_ranks(spec, core::JobPriorityPolicy::kLpf);
    const int reps = spec.jobs.size() > 200 ? 5 : 50;

    core::SchedulingPlan last;
    const double gen_us = time_us(
        [&] { last = core::generate_plan(spec, 480, rank); }, reps);
    const double search_us = time_us(
        [&] {
          (void)core::min_feasible_cap(spec, rank, spec.relative_deadline, 480);
        },
        reps);
    table.add_row({label, TextTable::num(static_cast<std::int64_t>(spec.total_tasks())),
                   TextTable::num(gen_us, 1), TextTable::num(search_us, 1),
                   TextTable::num(static_cast<std::int64_t>(last.num_steps()))});
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::note("all of this runs on the client at submission; the master only "
              "walks the finished requirement list.");

  // Part 2 — plan cache on recurrent submissions. A coordinator resubmits
  // the same DAG every period (Fig. 12 runs 3 recurrences); the cache keys
  // plan generation's inputs, so instance 2..N cost one hash-map probe
  // instead of a full rank + binary-searched cap + plan build.
  bench::banner("Plan cache", "recurrent submission cost, cold vs cached");
  constexpr int kRecurrences = 20;
  TextTable cache_table({"workflow", "cold (us/submission)",
                         "cached (us/submission)", "speedup", "hits/misses"});
  for (auto& [label, spec] : cases) {
    const auto full_compute = [&spec]() {
      const auto rank = core::job_priority_ranks(spec, core::JobPriorityPolicy::kLpf);
      const auto cap =
          core::min_feasible_cap(spec, rank, spec.relative_deadline, 480);
      return core::generate_plan(spec, cap.value_or(480), rank);
    };
    const double cold_us = time_us([&] { (void)full_compute(); }, kRecurrences);

    core::PlanCache cache;
    const std::uint64_t key = core::plan_fingerprint(
        spec, 480, core::JobPriorityPolicy::kLpf, core::CapPolicy::kMinFeasible,
        0, 1.0);
    const double cached_us = time_us(
        [&] { (void)cache.get_or_compute(key, full_compute); }, kRecurrences);
    if (auto* registry = metrics_session.registry()) {
      registry->counter("woha.plan_cache_hits").add(cache.hits());
      registry->counter("woha.plan_cache_misses").add(cache.misses());
    }

    cache_table.add_row(
        {label, TextTable::num(cold_us, 1), TextTable::num(cached_us, 1),
         TextTable::num(cached_us > 0 ? cold_us / cached_us : 0.0, 0) + "x",
         std::to_string(cache.hits()) + "/" + std::to_string(cache.misses())});
  }
  std::printf("%s\n", cache_table.to_string().c_str());
  bench::note("cached cost amortizes the single miss over the recurrence "
              "count; WohaScheduler enables this cache by default "
              "(WohaConfig::plan_cache).");
  return 0;
}
