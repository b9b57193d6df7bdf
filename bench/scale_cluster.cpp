// Master-scalability sweep: wall-clock cost of the heartbeat → select_task
// hot path as the cluster grows from paper scale (80 trackers) toward
// 10,000 trackers, for all five schedulers.
//
// The workload is frozen so numbers are comparable across engine changes:
// one Fig. 8 trace replica (46 workflows, 165 jobs) per 80 trackers, each
// replica drawn with its own seed — offered load scales with the slot pool,
// so the cluster stays saturated at every size. Reported per point:
// simulated makespan, events fired, select_task calls and wall-clock
// runtime. Per-select latency (the paper's master-overhead claim) is the
// histogram engine.select_task_ns in the --metrics-json snapshot.
//
// Usage:
//   bench_scale_cluster [--points 80,500,2000] [--schedulers WOHA-LPF,FIFO]
//                       [--horizon-min N] [--repeat N] [--jobs N]
//                       [--plan-jobs N] [--metrics-json out.json]
// Defaults sweep 80/200/500/1000/2000 for every scheduler; pass
// --points 10000 (or 100000 for the 100k-tracker CI smoke) for the
// full-scale run (minutes of wall clock pre-optimisation, seconds after).
// `--jobs N` (or WOHA_JOBS) fans the (point, scheduler) grid across N
// threads — results are bit-identical to --jobs 1; per-run wall-clock is
// measured inside each run so rows stay meaningful under parallelism
// (total elapsed shrinks; per-run wall does not). `--plan-jobs N` sets
// WohaConfig::plan_jobs (parallel plan prewarm; 0 = hardware
// concurrency), a bit-identical knob too — it moves wall clock, never
// schedules. `--horizon-min N` stops the
// simulation after N simulated minutes (EngineConfig::horizon): the
// 100k-tracker CI smoke uses it to sample the hot path at full scale
// under a bounded wall budget. Unlike the other knobs it IS part of the
// simulated experiment — rows are deterministic for a given horizon but
// not comparable across horizons. `--repeat N` runs the whole grid N
// times and reports the per-row *median* wall clock — the CI perf smoke
// uses it to deflake its wall assertion; the deterministic columns are
// verified identical across repeats, and
// the metrics snapshot comes from the first repeat only, so the exported
// histogram sample counts match a --repeat-free run. With --metrics-json
// the snapshot also carries the gauge process.peak_rss_mb: the process's
// peak resident memory over all repeats (getrusage).
//
// Set-up is measured too: each point's trace::scale_workload call is timed
// and its minor page faults counted (getrusage), and both are printed below
// the table. With --metrics-json their sums over the points are the gauges
// run.setup_s and run.setup_minflt, and process.wall_s is the wall time
// from the start of main to the snapshot. The CI perf smoke gates the fault
// count, which unlike a wall time does not depend on the runner's speed.
//
// --points, --horizon-min and --repeat take plain decimals (no sign, no
// trailing text), non-zero and at most kMaxTrackers, kMaxHorizonMin and
// kMaxRepeat; --schedulers takes labels of metrics::extended_schedulers
// (the paper's six and EDF-JOB), with no empty entry. Any other value
// exits 2 with the usage line before a run starts, as a malformed --jobs
// does.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "metrics/grid.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"

namespace {

constexpr std::uint64_t kMaxTrackers = 1'000'000;
constexpr std::uint64_t kMaxHorizonMin = 1'000'000;  // about 1.9 simulated years
constexpr std::uint64_t kMaxRepeat = 1'000;

constexpr const char* kUsage =
    "usage: bench_scale_cluster [--points N[,N...]] [--schedulers NAME[,NAME...]]\n"
    "                           [--horizon-min N] [--repeat N] [--jobs N]\n"
    "                           [--plan-jobs N] [--metrics-json PATH]\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "bench_scale_cluster: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parse_flag(const char* flag, const std::string& text,
                         std::uint64_t max) {
  const auto v = woha::metrics::parse_decimal(text.c_str(), 1, max);
  if (!v) {
    usage_error(std::string(flag) + " expects a plain decimal in [1, " +
                std::to_string(max) + "], got \"" + text + "\"");
  }
  return *v;
}

/// The comma-separated entries of `arg`, empty ones included.
std::vector<std::string> split_commas(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = arg.find(',', pos);
    out.push_back(arg.substr(pos, comma == std::string::npos ? arg.npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<std::uint32_t> parse_points(const std::string& arg) {
  std::vector<std::uint32_t> out;
  for (const std::string& tok : split_commas(arg)) {
    out.push_back(static_cast<std::uint32_t>(parse_flag("--points", tok, kMaxTrackers)));
  }
  return out;
}

std::vector<std::string> parse_schedulers(const std::string& arg) {
  std::vector<std::string> known;
  std::string listed;
  for (const auto& entry : woha::metrics::extended_schedulers()) {
    known.push_back(entry.label);
    listed += (listed.empty() ? "" : ", ") + entry.label;
  }
  const std::vector<std::string> out = split_commas(arg);
  for (const std::string& name : out) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      usage_error("--schedulers expects names from " + listed + ", got \"" + arg + "\"");
    }
  }
  return out;
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One point's trace generation: wall seconds and minor page faults.
struct Setup {
  std::uint32_t trackers;
  double seconds;
  long minflt;
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  using namespace woha;
  bench::MetricsSession metrics_session(argc, argv);
  const bench::JobsFlag jobs(argc, argv);

  std::vector<std::uint32_t> points = {80, 200, 500, 1000, 2000};
  std::vector<std::string> only_schedulers;
  unsigned plan_jobs = 1;
  long long horizon_min = 0;  // 0 = run to completion
  unsigned repeat = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      points = parse_points(argv[++i]);
    } else if (std::strcmp(argv[i], "--horizon-min") == 0 && i + 1 < argc) {
      horizon_min = static_cast<long long>(
          parse_flag("--horizon-min", argv[++i], kMaxHorizonMin));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<unsigned>(parse_flag("--repeat", argv[++i], kMaxRepeat));
    } else if (std::strcmp(argv[i], "--plan-jobs") == 0 && i + 1 < argc) {
      const auto parsed = metrics::parse_jobs(argv[++i]);
      if (!parsed) {
        usage_error("--plan-jobs expects a plain decimal in [0, " +
                    std::to_string(metrics::kMaxJobs) + "], got \"" + argv[i] +
                    "\"");
      }
      plan_jobs = *parsed;
    } else if (std::strcmp(argv[i], "--schedulers") == 0 && i + 1 < argc) {
      only_schedulers = parse_schedulers(argv[++i]);
    } else {
      usage_error(std::string("unknown argument: ") + argv[i]);
    }
  }

  bench::banner("Scale sweep",
                "heartbeat/select_task cost vs cluster size (frozen fig8 load)");
  std::printf("%-10s %-10s %12s %12s %12s %10s\n", "trackers", "scheduler",
              "makespan", "events", "selects", "wall_s");

  // Build the whole (cluster size, scheduler) grid up front; each cluster
  // size generates its workload once, borrowed by every scheduler's point.
  std::vector<std::unique_ptr<std::vector<wf::WorkflowSpec>>> workloads;
  std::vector<metrics::GridPoint> grid;
  std::vector<std::uint32_t> row_trackers;  // parallel to grid
  std::vector<Setup> setups;                // one per point
  for (const std::uint32_t n : points) {
    hadoop::EngineConfig config;
    config.cluster.num_trackers = n;
    config.cluster.map_slots_per_tracker = 2;
    config.cluster.reduce_slots_per_tracker = 1;
    if (horizon_min > 0) config.horizon = minutes(horizon_min);
    const long minflt_before = minor_faults();
    const auto generate_start = std::chrono::steady_clock::now();
    workloads.push_back(std::make_unique<std::vector<wf::WorkflowSpec>>(
        trace::scale_workload(n, trace::kScaleWorkloadSeed)));
    setups.push_back({n, seconds_since(generate_start), minor_faults() - minflt_before});
    // The default grid is the paper's roster; a --schedulers list may also
    // name the schedulers this repo adds (EDF-JOB).
    for (const auto& entry : only_schedulers.empty()
                                 ? metrics::paper_schedulers(plan_jobs)
                                 : metrics::extended_schedulers(plan_jobs)) {
      if (!only_schedulers.empty()) {
        bool wanted = false;
        for (const auto& s : only_schedulers) wanted |= s == entry.label;
        if (!wanted) continue;
      }
      grid.push_back(metrics::GridPoint{config, workloads.back().get(), entry});
      row_trackers.push_back(n);
    }
  }

  metrics::GridOptions options;
  options.jobs = jobs.jobs();
  const auto t0 = std::chrono::steady_clock::now();
  // Repeat 0 carries the metrics hooks so the exported snapshot has the
  // same histogram sample counts as a --repeat-free run; later repeats
  // only re-measure wall clock and re-verify the deterministic columns.
  const auto results = metrics::run_grid(grid, options, metrics_session.hooks());
  std::vector<std::vector<double>> walls(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    walls[i].push_back(results[i].wall_seconds);
  }
  for (unsigned r = 1; r < repeat; ++r) {
    const auto rerun = metrics::run_grid(grid, options, metrics::ObsHooks{});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const hadoop::RunSummary& a = results[i].summary;
      const hadoop::RunSummary& b = rerun[i].summary;
      if (a.makespan != b.makespan || a.events_fired != b.events_fired ||
          a.select_calls != b.select_calls) {
        std::fprintf(stderr,
                     "repeat %u diverged on row %zu (%s @ %u trackers): "
                     "the deterministic columns must not move across repeats\n",
                     r, i, results[i].scheduler.c_str(), row_trackers[i]);
        return 1;
      }
      walls[i].push_back(rerun[i].wall_seconds);
    }
  }
  const double elapsed = seconds_since(t0);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const hadoop::RunSummary& s = results[i].summary;
    std::printf("%-10u %-10s %12lld %12llu %12llu %10.2f\n",
                row_trackers[i], results[i].scheduler.c_str(),
                static_cast<long long>(s.makespan),
                static_cast<unsigned long long>(s.events_fired),
                static_cast<unsigned long long>(s.select_calls),
                median(walls[i]));
  }
  double setup_s = 0.0;
  long setup_minflt = 0;
  for (const Setup& setup : setups) {
    std::printf("setup: %u trackers, scale_workload %.3f s, %ld minor page faults\n",
                setup.trackers, setup.seconds, setup.minflt);
    setup_s += setup.seconds;
    setup_minflt += setup.minflt;
  }
  double run_seconds = 0.0;
  for (const auto& w : walls) {
    for (const double x : w) run_seconds += x;
  }
  std::printf("total: %.2f s elapsed for %.2f s of runs (jobs=%u, repeat=%u)\n",
              elapsed, run_seconds, ThreadPool::resolve(options.jobs), repeat);
  bench::note("wall_s is wall-clock and machine-dependent (median across "
              "--repeat); makespan, events and selects are deterministic at "
              "any --jobs and verified across repeats.");
  // The process's peak resident memory over every repeat, for the CI
  // memory ceiling (ru_maxrss is in KiB on Linux), and the set-up cost,
  // for the CI page-fault ceiling.
  if (obs::MetricsRegistry* registry = metrics_session.registry()) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    registry->gauge("process.peak_rss_mb").set(peak_mb);
    registry->gauge("run.setup_s").set(setup_s);
    registry->gauge("run.setup_minflt").set(static_cast<double>(setup_minflt));
    registry->gauge("process.wall_s").set(seconds_since(process_start));
  }
  return 0;
}
