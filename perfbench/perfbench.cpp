// One measured iteration of one benchmark workload, printed as one JSON line.
//
//   woha_perfbench --workload NAME --seed N --mode untraced|traced|observed
//                  [--horizon-s S]
//
// Every layer is timed from the outside, through its public entry points:
//   trace   the trace:: / wf:: generators               (trace_generate_s)
//   engine  Engine construction + submit                (engine_submit_s)
//           Engine::run + summarize                     (run_s)
//   sched   a forwarding TimingScheduler decorator       (traced mode only)
//   plan    direct min_feasible_cap / plan_for_submission replays of the
//           workload's distinct specs, outside the simulation (traced only)
//   obs     one no-op EventBus subscriber and its published() count
//           (observed mode only)
// Untraced mode attaches nothing: no registry, no bus subscriber, no audit.
// --horizon-s caps every engine run's simulated horizon; the observed probe
// of the two workloads whose full observed run takes minutes uses it.
// perfbench/run.py drives this binary, repeats it, and checks its outputs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/job_priority.hpp"
#include "core/plan_cache.hpp"
#include "core/resource_cap.hpp"
#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "timing_scheduler.hpp"
#include "trace/arrivals.hpp"
#include "trace/deadlines.hpp"
#include "trace/scale_workload.hpp"
#include "workflow/topology.hpp"

#ifndef WOHA_PERFBENCH_BUILD_TYPE
#define WOHA_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WOHA_PERFBENCH_COMPILER
#define WOHA_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace woha;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host speed as this process sees it: a fixed amount of simulator-like work
/// (ordered-set and binary-heap churn, then a sort) that touches no simulator
/// code, timed three times; the fastest is returned. The host is shared, and
/// its speed drifts by tens of percent over minutes; run.py divides the
/// measured times by this figure (taken before set-up and again after the
/// runs) so that drift cancels out of the metrics.
double reference_kernel_s() {
  static volatile std::uint64_t sink = 0;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::set<std::pair<std::uint64_t, std::uint32_t>> ordered;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 60000; ++i) {
      ordered.emplace(next() % 1000003, i);
      heap.push(next());
      if (ordered.size() > 20000) {
        acc += ordered.begin()->second;
        ordered.erase(ordered.begin());
      }
      if (heap.size() > 20000) {
        acc += heap.top();
        heap.pop();
      }
    }
    std::vector<std::uint32_t> values(1u << 17);
    for (std::uint32_t& v : values) v = static_cast<std::uint32_t>(next());
    std::sort(values.begin(), values.end());
    sink = sink + acc + values[values.size() / 2];
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

enum class Policy { kWohaLpf, kFifo, kFair };
enum class Mode { kUntraced, kTraced, kObserved };

/// One engine run of a workload: its configuration and scheduler.
struct Leg {
  hadoop::EngineConfig config;
  Policy policy = Policy::kWohaLpf;
};

struct Workload {
  std::vector<wf::WorkflowSpec> specs;
  std::vector<Leg> legs;
};

hadoop::EngineConfig cluster_of(std::uint32_t trackers) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = trackers;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  return config;
}

// The four workloads. Their recipes are pinned: perfbench/pinned.json holds
// their outputs at the default and held-out seeds. Three stop at a fixed
// simulated horizon: run to completion, their cost follows the last
// straggling workflow, which moves by tens of percent from seed to seed.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "scale100k") {
    hadoop::EngineConfig config = cluster_of(100000);
    config.horizon = minutes(5);
    w.specs = trace::scale_workload(100000, seed);
    w.legs = {{config, Policy::kWohaLpf}};
  } else if (name == "baselines3k") {
    hadoop::EngineConfig config = cluster_of(3000);
    config.horizon = minutes(60);
    w.specs = trace::scale_workload(3000, seed);
    w.legs = {{config, Policy::kFifo}, {config, Policy::kFair}};
  } else if (name == "dagplan1k") {
    Rng rng(seed);
    for (std::uint32_t i = 0; i < 600; ++i) {
      wf::RandomDagParams params;
      params.num_jobs = static_cast<std::uint32_t>(rng.uniform_int(40, 200));
      params.num_layers = static_cast<std::uint32_t>(rng.uniform_int(5, 12));
      params.shape.num_maps = 3;
      params.shape.num_reduces = 1;
      wf::WorkflowSpec spec = wf::random_dag(rng, params);
      spec.name = "dag-" + std::to_string(i);
      w.specs.push_back(std::move(spec));
    }
    trace::DeadlinePolicy policy;
    policy.arrival_window = minutes(120);
    trace::assign_deadlines(w.specs, seed, policy);
    w.legs = {{cluster_of(1000), Policy::kWohaLpf}};
  } else if (name == "churn800") {
    constexpr std::uint32_t kTrackers = 800;
    hadoop::EngineConfig config = cluster_of(kTrackers);
    config.seed = seed;
    config.duration_jitter_sigma = 0.3;
    config.task_failure_prob = 0.01;
    config.faults.seed = seed + 1;
    config.faults.tracker_mtbf = static_cast<double>(hours(6));
    config.faults.max_attempts = 4;
    // One failure blacklists (job, tracker): with two, no pair reaches the
    // threshold inside the horizon, and filtered offers never happen.
    config.faults.blacklist_task_failures = 1;
    // Speculative execution stays off: Engine::try_speculate keeps a
    // reference into the attempt table across attempts_.emplace, which can
    // reallocate it, and then reads the freed record (a crash on some seeds).
    config.horizon = minutes(120);
    config.admission.policy = hadoop::AdmissionPolicy::kShedLatestDeadlineFirst;
    config.admission.max_pending_workflows = kTrackers / 4;
    w.specs = trace::scale_workload(kTrackers, seed);
    trace::ArrivalConfig arrivals;
    arrivals.shape = trace::ArrivalShape::kPoisson;
    arrivals.rho = 1.3;
    arrivals.cluster_slots = config.cluster.total_slots();
    trace::assign_open_loop_arrivals(w.specs, seed, arrivals);
    w.legs = {{config, Policy::kWohaLpf}};
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::unique_ptr<hadoop::WorkflowScheduler> make_scheduler(Policy policy) {
  switch (policy) {
    case Policy::kWohaLpf: {
      core::WohaConfig config;
      config.job_priority = core::JobPriorityPolicy::kLpf;
      config.plan_jobs = 1;
      return std::make_unique<core::WohaScheduler>(config);
    }
    case Policy::kFifo: return std::make_unique<sched::FifoScheduler>();
    case Policy::kFair: return std::make_unique<sched::FairScheduler>();
  }
  throw std::logic_error("unreachable");
}

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kWohaLpf: return "WOHA-LPF";
    case Policy::kFifo: return "FIFO";
    case Policy::kFair: return "Fair";
  }
  return "?";
}

/// Totals over a workload's engine runs (legs). Tallies are summed; latency
/// quantiles are the slowest leg's, so a regression in either baseline of a
/// two-leg workload shows.
struct LayerTotals {
  perfbench::SchedulerTimings sched;
  double consult_p50_ns = 0, consult_p99_ns = 0, consult_max_ns = 0, submit_p99_ns = 0;
  std::uint64_t events = 0, select_calls = 0, attempts_killed = 0, tracker_crashes = 0,
                workflows_shed = 0, published = 0;
};

void merge(perfbench::SchedulerTimings& into, const perfbench::SchedulerTimings& t) {
  for (auto [a, b] : {std::pair{&into.consult, &t.consult},
                      std::pair{&into.submit, &t.submit},
                      std::pair{&into.notify, &t.notify}}) {
    a->calls += b->calls;
    a->ns += b->ns;
  }
  into.picks += t.picks;
  into.empty_consults += t.empty_consults;
  into.underfilled += t.underfilled;
  into.start_ns += t.start_ns;
}

/// Replays client-side planning for every distinct spec the run submits
/// (arrivals before the horizon), outside the simulation.
struct PlanReplay {
  double min_cap_s = 0.0;
  double generate_s = 0.0;
  std::uint64_t specs = 0;
  std::uint64_t cap_sum = 0;       ///< sum of min feasible caps (0 = infeasible)
  std::int64_t makespan_sum = 0;   ///< sum of planned simulated makespans
};

PlanReplay replay_plans(const Workload& w) {
  PlanReplay out;
  const hadoop::EngineConfig& config = w.legs.front().config;
  const std::uint32_t slots = config.cluster.total_slots();
  const core::WohaConfig knobs;  // the defaults the benchmark's WOHA runs with
  std::unordered_set<std::uint64_t> seen;
  for (const wf::WorkflowSpec& spec : w.specs) {
    if (spec.submit_time >= config.horizon) continue;
    const std::uint64_t key =
        core::plan_fingerprint(spec, slots, core::JobPriorityPolicy::kLpf,
                               knobs.cap_policy, knobs.fixed_cap,
                               knobs.plan_deadline_factor);
    if (!seen.insert(key).second) continue;
    ++out.specs;
    const auto rank = core::job_priority_ranks(spec, core::JobPriorityPolicy::kLpf);
    const auto target = static_cast<Duration>(
        static_cast<double>(spec.relative_deadline) * knobs.plan_deadline_factor);
    const Clock::time_point t0 = Clock::now();
    const std::optional<std::uint32_t> cap =
        core::min_feasible_cap(spec, rank, target, slots);
    const Clock::time_point t1 = Clock::now();
    const core::SchedulingPlan plan =
        core::plan_for_submission(spec, rank, slots, knobs.cap_policy, knobs.fixed_cap,
                                  knobs.plan_deadline_factor);
    out.generate_s += seconds_since(t1);
    out.min_cap_s += std::chrono::duration<double>(t1 - t0).count();
    out.cap_sum += cap.value_or(0);
    out.makespan_sum += plan.simulated_makespan;
  }
  return out;
}

int run(const std::string& workload, std::uint64_t seed, Mode mode, SimTime horizon) {
  const double reference_before_s = reference_kernel_s();
  const Clock::time_point g0 = Clock::now();
  Workload w = make_workload(workload, seed);
  const double generate_s = seconds_since(g0);
  for (Leg& leg : w.legs) leg.config.horizon = std::min(leg.config.horizon, horizon);

  double submit_s = 0.0;
  double run_s = 0.0;
  LayerTotals totals;
  std::string outputs;
  for (const Leg& leg : w.legs) {
    const Clock::time_point s0 = Clock::now();
    std::unique_ptr<hadoop::WorkflowScheduler> scheduler = make_scheduler(leg.policy);
    perfbench::TimingScheduler* timing = nullptr;
    if (mode == Mode::kTraced) {
      auto decorated = std::make_unique<perfbench::TimingScheduler>(std::move(scheduler));
      timing = decorated.get();
      scheduler = std::move(decorated);
    }
    hadoop::Engine engine(leg.config, std::move(scheduler));
    for (const wf::WorkflowSpec& spec : w.specs) engine.submit(spec);
    if (mode == Mode::kObserved) engine.events().subscribe([](const obs::Event&) {});
    if (timing != nullptr) timing->reset();
    submit_s += seconds_since(s0);

    const Clock::time_point r0 = Clock::now();
    engine.run();
    const hadoop::RunSummary s = engine.summarize();
    run_s += seconds_since(r0);

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"scheduler\":\"%s\",\"makespan\":%lld,\"events_fired\":%llu,"
                  "\"select_calls\":%llu,\"tasks_executed\":%llu,"
                  "\"attempts_killed\":%llu,\"workflows_shed\":%llu,"
                  "\"miss_ratio\":%.17g}",
                  outputs.empty() ? "" : ",", policy_name(leg.policy),
                  static_cast<long long>(s.makespan),
                  static_cast<unsigned long long>(s.events_fired),
                  static_cast<unsigned long long>(s.select_calls),
                  static_cast<unsigned long long>(s.tasks_executed),
                  static_cast<unsigned long long>(s.attempts_killed),
                  static_cast<unsigned long long>(s.workflows_shed),
                  s.deadline_miss_ratio);
    outputs += buf;
    totals.events += s.events_fired;
    totals.select_calls += s.select_calls;
    totals.attempts_killed += s.attempts_killed;
    totals.tracker_crashes += s.tracker_crashes;
    totals.workflows_shed += s.workflows_shed;
    totals.published += engine.events().published();
    if (timing != nullptr) {
      const perfbench::SchedulerTimings& t = timing->timings();
      merge(totals.sched, t);
      totals.consult_p50_ns = std::max(totals.consult_p50_ns, t.consult_hist.quantile(0.5));
      totals.consult_p99_ns = std::max(totals.consult_p99_ns, t.consult_hist.quantile(0.99));
      totals.consult_max_ns =
          std::max(totals.consult_max_ns, static_cast<double>(t.consult_hist.max()));
      totals.submit_p99_ns = std::max(totals.submit_p99_ns, t.submit_hist.quantile(0.99));
    }
  }

  const double reference_after_s = reference_kernel_s();
  const char* mode_name = mode == Mode::kUntraced ? "untraced"
                          : mode == Mode::kTraced ? "traced"
                                                  : "observed";
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"mode\":\"%s\","
              "\"build_type\":\"%s\",\"compiler\":\"%s\",\"reference_s\":[%.9f,%.9f],"
              "\"trace_generate_s\":%.9f,\"engine_submit_s\":%.9f,\"run_s\":%.9f,"
              "\"events\":%llu,\"select_calls\":%llu,\"attempts_killed\":%llu,"
              "\"tracker_crashes\":%llu,\"workflows_shed\":%llu,"
              "\"published\":%llu,\"outputs\":[%s]",
              workload.c_str(), static_cast<unsigned long long>(seed), mode_name,
              WOHA_PERFBENCH_BUILD_TYPE, WOHA_PERFBENCH_COMPILER, reference_before_s,
              reference_after_s, generate_s,
              submit_s, run_s,
              static_cast<unsigned long long>(totals.events),
              static_cast<unsigned long long>(totals.select_calls),
              static_cast<unsigned long long>(totals.attempts_killed),
              static_cast<unsigned long long>(totals.tracker_crashes),
              static_cast<unsigned long long>(totals.workflows_shed),
              static_cast<unsigned long long>(totals.published), outputs.c_str());
  if (mode == Mode::kTraced) {
    const perfbench::SchedulerTimings& t = totals.sched;
    const PlanReplay plans = replay_plans(w);
    std::printf(",\"sched\":{\"consults\":%llu,\"consult_s\":%.9f,"
                "\"consult_p50_us\":%.6f,\"consult_p99_us\":%.6f,\"consult_max_us\":%.6f,"
                "\"empty_consults\":%llu,\"underfilled\":%llu,\"picks\":%llu,"
                "\"start_s\":%.9f,\"submits\":%llu,\"submit_s\":%.9f,"
                "\"submit_p99_us\":%.6f,\"notifies\":%llu,\"notify_s\":%.9f}"
                ",\"plan\":{\"specs\":%llu,\"min_cap_s\":%.9f,\"generate_s\":%.9f,"
                "\"cap_sum\":%llu,\"makespan_sum\":%lld}",
                static_cast<unsigned long long>(t.consult.calls), t.consult.ns * 1e-9,
                totals.consult_p50_ns * 1e-3, totals.consult_p99_ns * 1e-3,
                totals.consult_max_ns * 1e-3,
                static_cast<unsigned long long>(t.empty_consults),
                static_cast<unsigned long long>(t.underfilled),
                static_cast<unsigned long long>(t.picks), t.start_ns * 1e-9,
                static_cast<unsigned long long>(t.submit.calls), t.submit.ns * 1e-9,
                totals.submit_p99_ns * 1e-3, static_cast<unsigned long long>(t.notify.calls),
                t.notify.ns * 1e-9, static_cast<unsigned long long>(plans.specs),
                plans.min_cap_s, plans.generate_s,
                static_cast<unsigned long long>(plans.cap_sum),
                static_cast<long long>(plans.makespan_sum));
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  Mode mode = Mode::kUntraced;
  SimTime horizon = kTimeInfinity;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--horizon-s") {
      horizon = seconds(std::strtoll(value.c_str(), nullptr, 10));
    } else if (flag == "--mode" && value == "untraced") {
      mode = Mode::kUntraced;
    } else if (flag == "--mode" && value == "traced") {
      mode = Mode::kTraced;
    } else if (flag == "--mode" && value == "observed") {
      mode = Mode::kObserved;
    } else {
      std::fprintf(stderr, "unknown argument: %s %s\n", flag.c_str(), value.c_str());
      return 2;
    }
  }
  if (workload.empty() || !have_seed || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: woha_perfbench --workload NAME --seed N "
                 "[--mode untraced|traced|observed] [--horizon-s S]\n");
    return 2;
  }
  set_log_level(LogLevel::kError);  // shed/crash warnings are expected here
  try {
    return run(workload, seed, mode, horizon);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "woha_perfbench: %s\n", e.what());
    return 1;
  }
}
