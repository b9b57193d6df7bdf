#include "core/resource_cap.hpp"

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>
#include <unordered_set>

#include "common/rng.hpp"
#include "core/job_priority.hpp"
#include "core/plan_cache.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"
#include "workflow/analysis.hpp"
#include "workflow/topology.hpp"

namespace woha::core {
namespace {

std::vector<std::uint32_t> identity_rank(std::size_t n) {
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t i = 0; i < n; ++i) rank[i] = i;
  return rank;
}

// ---- reference: the exhaustive search -------------------------------------
// Algorithm 1 as a plain std::set / std::map / priority-queue simulation,
// and the cap search that runs it once per probe. The library answers most
// probes without simulating; these are what it must match byte for byte.

SchedulingPlan reference_plan(const wf::WorkflowSpec& spec, std::uint32_t cap,
                              const std::vector<std::uint32_t>& rank) {
  struct Job {
    std::uint32_t maps_left, reduces_left, unfinished;
    SimTime ready = 0;
  };
  struct Event {
    SimTime time;
    std::uint64_t seq;
    bool add;
    std::uint32_t value;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  const auto n = static_cast<std::uint32_t>(spec.jobs.size());
  std::vector<Job> jobs(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    jobs[j] = Job{spec.jobs[j].num_maps, spec.jobs[j].num_reduces,
                  static_cast<std::uint32_t>(spec.jobs[j].prerequisites.size())};
  }
  const auto dependents = wf::dependents(spec);
  std::set<std::pair<std::uint32_t, std::uint32_t>> active;  // (rank, job)
  for (std::uint32_t j = 0; j < n; ++j) {
    if (jobs[j].unfinished == 0) active.insert({rank[j], j});
  }
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  events.push(Event{0, seq++, false, cap});
  std::map<SimTime, std::uint64_t> counts;
  const auto complete = [&](std::uint32_t j, SimTime done) {
    for (std::uint32_t d : dependents[j]) {
      jobs[d].ready = std::max(jobs[d].ready, done);
      if (--jobs[d].unfinished == 0) events.push(Event{jobs[d].ready, seq++, true, d});
    }
  };
  std::uint32_t free_slots = 0;
  SimTime t = 0;
  while (!events.empty()) {
    t = events.top().time;
    while (!events.empty() && events.top().time == t) {
      const Event e = events.top();
      events.pop();
      if (e.add) {
        active.insert({rank[e.value], e.value});
      } else {
        free_slots += e.value;
      }
    }
    while (free_slots > 0 && !active.empty()) {
      const auto it = active.begin();
      const std::uint32_t j = it->second;
      Job& job = jobs[j];
      const bool map = job.maps_left > 0;
      std::uint32_t& left = map ? job.maps_left : job.reduces_left;
      const std::uint32_t wave = std::min(left, free_slots);
      counts[t] += wave;
      free_slots -= wave;
      left -= wave;
      const SimTime done =
          t + (map ? spec.jobs[j].map_duration : spec.jobs[j].reduce_duration);
      events.push(Event{done, seq++, false, wave});
      if (left == 0) {
        active.erase(it);
        if (map && job.reduces_left > 0) {
          events.push(Event{done, seq++, true, j});
        } else {
          complete(j, done);
        }
      }
    }
  }
  SchedulingPlan plan;
  plan.resource_cap = cap;
  plan.simulated_makespan = t;
  plan.job_rank = rank;
  plan.job_order.resize(n);
  for (std::uint32_t j = 0; j < n; ++j) plan.job_order[rank[j]] = j;
  std::uint64_t cumulative = 0;
  for (const auto& [when, count] : counts) {
    cumulative += count;
    plan.append_step(t - when, cumulative);
  }
  return plan;
}

std::optional<std::uint32_t> reference_min_cap(const wf::WorkflowSpec& spec,
                                               const std::vector<std::uint32_t>& rank,
                                               Duration deadline, std::uint32_t max_cap) {
  if (deadline <= 0) return std::nullopt;
  if (reference_plan(spec, max_cap, rank).simulated_makespan > deadline) {
    return std::nullopt;
  }
  std::uint32_t lo = 1;
  std::uint32_t hi = max_cap;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (reference_plan(spec, mid, rank).simulated_makespan <= deadline) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

SchedulingPlan reference_plan_for_submission(const wf::WorkflowSpec& spec,
                                             const std::vector<std::uint32_t>& rank,
                                             std::uint32_t slots, double factor) {
  const auto target =
      static_cast<Duration>(static_cast<double>(spec.relative_deadline) * factor);
  auto cap = reference_min_cap(spec, rank, target, slots);
  if (!cap) cap = reference_min_cap(spec, rank, spec.relative_deadline, slots);
  return reference_plan(spec, cap.value_or(slots), rank);
}

void expect_same_plan(const SchedulingPlan& got, const SchedulingPlan& want) {
  EXPECT_EQ(got.resource_cap, want.resource_cap);
  EXPECT_EQ(got.simulated_makespan, want.simulated_makespan);
  EXPECT_EQ(got.job_order, want.job_order);
  EXPECT_EQ(got.job_rank, want.job_rank);
  EXPECT_EQ(got.step_ttds(), want.step_ttds());
  EXPECT_EQ(got.step_reqs(), want.step_reqs());
}

/// min_feasible_cap and plan_for_submission (both deadline factors) against
/// the exhaustive search for one spec, priority policy and cluster size.
void expect_matches_reference(const wf::WorkflowSpec& spec, JobPriorityPolicy policy,
                              std::uint32_t slots) {
  const auto rank = job_priority_ranks(spec, policy);
  EXPECT_EQ(min_feasible_cap(spec, rank, spec.relative_deadline, slots),
            reference_min_cap(spec, rank, spec.relative_deadline, slots));
  for (const double factor : {0.9, 1.0}) {
    expect_same_plan(
        plan_for_submission(spec, rank, slots, CapPolicy::kMinFeasible, 0, factor),
        reference_plan_for_submission(spec, rank, slots, factor));
  }
}

/// A random DAG with random per-job shapes and durations; some jobs are
/// map-only or reduce-only, Algorithm 1's other two branches.
wf::WorkflowSpec random_spec(Rng& rng) {
  wf::RandomDagParams params;
  params.num_jobs = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
  params.num_layers = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
  params.max_parents = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  params.shape.num_maps = static_cast<std::uint32_t>(rng.uniform_int(1, 16));
  params.shape.num_reduces = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
  params.shape.map_duration = rng.uniform_int(1, 90);
  params.shape.reduce_duration = rng.uniform_int(1, 150);
  wf::WorkflowSpec spec = wf::random_dag(rng, params);
  for (wf::JobSpec& job : spec.jobs) {
    const auto kind = rng.uniform_int(0, 5);
    if (kind == 0) job.num_reduces = 0;
    if (kind == 1) job.num_maps = 0;
  }
  return spec;
}

TEST(ResourceCap, NonMonotoneMakespanKeepsTheFixedProbeSequence) {
  // A Graham anomaly: cap 4 is slower than cap 3. With a 35 ms deadline and
  // 16 slots the probes are 16, 8, 4 (37 ms, infeasible), 6 and 5, so the
  // search returns 5 although cap 3 also meets the deadline. A search that
  // narrowed hi to the uncapped run's peak (6) would probe 3 and return it;
  // the answer must not depend on such a shortcut.
  wf::WorkflowSpec spec;
  spec.jobs.resize(3);
  const auto shape = [&spec](std::uint32_t j, std::uint32_t maps, std::uint32_t reduces,
                             Duration map_ms, Duration reduce_ms) {
    spec.jobs[j].name = "j" + std::to_string(j);
    spec.jobs[j].num_maps = maps;
    spec.jobs[j].num_reduces = reduces;
    spec.jobs[j].map_duration = map_ms;
    spec.jobs[j].reduce_duration = reduce_ms;
  };
  shape(0, 3, 2, 4, 9);
  shape(1, 3, 1, 8, 9);
  shape(2, 3, 2, 7, 7);
  spec.jobs[1].prerequisites = {2};
  const std::vector<std::uint32_t> rank = {2, 1, 0};

  const std::vector<Duration> makespans = {98, 51, 35, 37, 31, 31};
  for (std::uint32_t cap = 1; cap <= makespans.size(); ++cap) {
    EXPECT_EQ(generate_plan(spec, cap, rank).simulated_makespan, makespans[cap - 1])
        << "cap " << cap;
  }
  EXPECT_EQ(min_feasible_cap(spec, rank, 35, 16), 5u);
  spec.relative_deadline = 35;
  EXPECT_EQ(plan_for_submission(spec, rank, 16, CapPolicy::kMinFeasible).resource_cap, 5u);
}

TEST(ResourceCap, ReferenceSimulationMatchesGeneratePlan) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto spec = random_spec(rng);
    const auto rank = job_priority_ranks(spec, JobPriorityPolicy::kLpf);
    const auto cap = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
    expect_same_plan(generate_plan(spec, cap, rank), reference_plan(spec, cap, rank));
  }
}

class BoundedSearchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundedSearchProperty, MatchesExhaustiveSearch) {
  Rng rng(GetParam());
  int non_monotone = 0;
  for (int i = 0; i < 12; ++i) {
    wf::WorkflowSpec spec = random_spec(rng);
    const Duration cp = wf::critical_path_length(spec);
    const Duration serial = wf::total_work(spec);  // the makespan on one slot
    for (const auto policy : {JobPriorityPolicy::kHlf, JobPriorityPolicy::kLpf,
                              JobPriorityPolicy::kMpf}) {
      const auto rank = job_priority_ranks(spec, policy);
      std::uint32_t peak = 0;
      PlanSimulator sim(spec, rank);
      (void)sim.run(1'000'000, &peak);
      Duration prev = kTimeInfinity;
      bool rose = false;
      for (std::uint32_t cap = 1; cap <= peak; ++cap) {
        const Duration makespan = sim.run(cap).simulated_makespan;
        rose = rose || makespan > prev;
        prev = makespan;
      }
      non_monotone += rose ? 1 : 0;

      // Clusters smaller than the peak and far larger. Deadlines below the
      // critical path, between it and the serial makespan, above that, and
      // at or just under Graham's bound at the first two probes.
      const auto small =
          peak > 1 ? static_cast<std::uint32_t>(rng.uniform_int(1, peak - 1)) : 1u;
      for (const std::uint32_t slots : {small, peak * 40 + 7}) {
        const auto graham = [&](std::uint32_t cap) {
          return (serial - cp) / cap + cp - rng.uniform_int(0, 2);
        };
        for (const Duration deadline :
             {std::max<Duration>(1, cp - 1 - rng.uniform_int(0, cp / 4)),
              cp + rng.uniform_int(0, serial - cp), serial + 1 + rng.uniform_int(0, serial),
              graham(slots), graham(1 + (slots - 1) / 2)}) {
          spec.relative_deadline = deadline;
          SCOPED_TRACE(testing::Message() << "spec " << i << " policy "
                                          << to_string(policy) << " deadline "
                                          << deadline << " slots " << slots);
          expect_matches_reference(spec, policy, slots);
        }
      }
    }
  }
  // Graham anomalies are the reason lo/hi stay fixed; the sweep must
  // contain them.
  EXPECT_GT(non_monotone, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedSearchProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

void expect_trace_matches_reference(const std::vector<wf::WorkflowSpec>& specs,
                                    std::uint32_t slots) {
  std::unordered_set<std::uint64_t> seen;
  for (const wf::WorkflowSpec& spec : specs) {
    if (!seen.insert(plan_fingerprint(spec, slots, JobPriorityPolicy::kLpf,
                                      CapPolicy::kMinFeasible, 0, 1.0))
             .second) {
      continue;
    }
    for (const auto policy : {JobPriorityPolicy::kHlf, JobPriorityPolicy::kLpf,
                              JobPriorityPolicy::kMpf}) {
      for (const std::uint32_t cap : {slots, 8u}) {
        SCOPED_TRACE(testing::Message() << spec.name << " policy "
                                        << to_string(policy) << " slots " << cap);
        expect_matches_reference(spec, policy, cap);
      }
    }
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(ResourceCap, Fig8TraceMatchesExhaustiveSearch) {
  expect_trace_matches_reference(trace::fig8_trace(), 560);
}

TEST(ResourceCap, ScaleWorkloadMatchesExhaustiveSearch) {
  expect_trace_matches_reference(trace::scale_workload(3000, 42), 9000);
}

TEST(ResourceCap, Fig2MinimumCapIsTwo) {
  // The paper's Fig. 2(b): a cap of 2 is the smallest that lets the 2-job
  // workflow (makespan 8 units at cap 2, 12 at cap 1) meet a 9-unit
  // deadline.
  const Duration unit = minutes(1);
  const auto spec = wf::fig2_two_job_workflow(unit);
  const auto cap = min_feasible_cap(spec, identity_rank(2), 9 * unit, 6);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(*cap, 2u);
}

TEST(ResourceCap, LooseDeadlineNeedsOneSlot) {
  const Duration unit = minutes(1);
  const auto spec = wf::fig2_two_job_workflow(unit);
  // Serial makespan is 12 units; a 50-unit deadline is feasible on 1 slot.
  const auto cap = min_feasible_cap(spec, identity_rank(2), 50 * unit, 6);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(*cap, 1u);
}

TEST(ResourceCap, InfeasibleDeadlineReturnsNullopt) {
  const Duration unit = minutes(1);
  const auto spec = wf::fig2_two_job_workflow(unit);
  // Critical path is 4 units; 3 units cannot be met at any cap.
  EXPECT_FALSE(min_feasible_cap(spec, identity_rank(2), 3 * unit, 1000).has_value());
  // Zero/negative deadline likewise.
  EXPECT_FALSE(min_feasible_cap(spec, identity_rank(2), 0, 1000).has_value());
}

class MinCapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinCapProperty, ResultIsFeasibleAndLocallyMinimal) {
  Rng rng(GetParam());
  wf::RandomDagParams params;
  params.num_jobs = static_cast<std::uint32_t>(rng.uniform_int(2, 15));
  const auto spec = wf::random_dag(rng, params);
  const auto rank = job_priority_ranks(spec, JobPriorityPolicy::kLpf);

  // Pick a deadline between the critical path and the serial makespan so a
  // nontrivial cap exists.
  const Duration serial = generate_plan(spec, 1, rank).simulated_makespan;
  const Duration cp = wf::critical_path_length(spec);
  const Duration deadline = cp + (serial - cp) / 3;

  const auto cap = min_feasible_cap(spec, rank, deadline, 512);
  ASSERT_TRUE(cap.has_value());
  EXPECT_LE(generate_plan(spec, *cap, rank).simulated_makespan, deadline);
  if (*cap > 1) {
    EXPECT_GT(generate_plan(spec, *cap - 1, rank).simulated_makespan, deadline);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCapProperty, ::testing::Range<std::uint64_t>(1, 25));

TEST(ResourceCap, PlanForSubmissionPolicies) {
  const Duration unit = minutes(1);
  auto spec = wf::fig2_two_job_workflow(unit);
  spec.relative_deadline = 9 * unit;
  const auto rank = identity_rank(2);

  const auto full = plan_for_submission(spec, rank, 6, CapPolicy::kFullCluster);
  EXPECT_EQ(full.resource_cap, 6u);

  const auto fixed = plan_for_submission(spec, rank, 6, CapPolicy::kFixed, 3);
  EXPECT_EQ(fixed.resource_cap, 3u);

  const auto minimal = plan_for_submission(spec, rank, 6, CapPolicy::kMinFeasible);
  EXPECT_EQ(minimal.resource_cap, 2u);
}

TEST(ResourceCap, MinFeasibleFallsBackToFullClusterWhenImpossible) {
  const Duration unit = minutes(1);
  auto spec = wf::fig2_two_job_workflow(unit);
  spec.relative_deadline = 1 * unit;  // < critical path: hopeless
  const auto plan = plan_for_submission(spec, identity_rank(2), 6,
                                        CapPolicy::kMinFeasible);
  EXPECT_EQ(plan.resource_cap, 6u);  // best effort
}

TEST(ResourceCap, NoDeadlineFallsBackToFullCluster) {
  auto spec = wf::fig2_two_job_workflow(minutes(1));
  spec.relative_deadline = 0;
  const auto plan = plan_for_submission(spec, identity_rank(2), 6,
                                        CapPolicy::kMinFeasible);
  EXPECT_EQ(plan.resource_cap, 6u);
}

TEST(ResourceCap, ArgumentValidation) {
  const auto spec = wf::fig2_two_job_workflow(minutes(1));
  const auto rank = identity_rank(2);
  EXPECT_THROW((void)min_feasible_cap(spec, rank, minutes(9), 0),
               std::invalid_argument);
  EXPECT_THROW((void)plan_for_submission(spec, rank, 0, CapPolicy::kFullCluster),
               std::invalid_argument);
  EXPECT_THROW((void)plan_for_submission(spec, rank, 6, CapPolicy::kFixed, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace woha::core
