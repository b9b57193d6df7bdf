// The parallel experiment runner: fan a grid of independent
// (EngineConfig, workload, scheduler) points out across a fixed-size thread
// pool and collect ExperimentResults in submission order.
//
// Determinism contract (tested by tests/integration/parallel_determinism_*):
// a grid run at any thread count produces RunSummarys bit-identical to the
// serial loop it replaces. This holds because every run owns ALL of its
// mutable state —
//   * its engine (simulation clock, cluster, JobTracker, attempt tables),
//   * its RNG streams (seeded from EngineConfig, never shared),
//   * its scheduler instance (built fresh from the entry's factory),
//   * its obs event bus (owned by the engine) and any per-run sinks,
//   * its metrics registry (a private scratch registry per run) —
// and because aggregation happens after the pool drains, on the calling
// thread, in submission order. The workload is shared *immutably* (grid
// points borrow it by pointer; nothing in the engine writes through it).
//
// What is NOT allowed in a parallel grid: hooks.configure closures that
// touch state shared across runs (a shared exporter, a shared recorder).
// Use GridOptions::configure_point and keep sinks per point — see the obs
// thread-confinement test.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "metrics/report.hpp"

namespace woha::metrics {

/// One independent experiment: an engine configuration, a borrowed workload
/// (not copied — sweeps share one trace across dozens of points), and the
/// scheduler to build for it.
struct GridPoint {
  hadoop::EngineConfig config;
  /// Borrowed; must outlive run_grid. Immutable during the run.
  const std::vector<wf::WorkflowSpec>* workload = nullptr;
  SchedulerEntry scheduler;
};

struct GridOptions {
  /// Worker threads: 1 = run inline on the calling thread (no pool),
  /// 0 = hardware concurrency, N = exactly N workers.
  unsigned jobs = 1;
  /// Optional per-point hook, called on the worker thread right after
  /// engine construction (and after ObsHooks::configure) with the point's
  /// submission index. Attach per-run sinks/recorders here; the closure
  /// runs concurrently across points, so it must only touch state owned by
  /// that point's index.
  std::function<void(hadoop::Engine&, std::size_t)> configure_point;
  /// Seeded schedule exploration (tests): workers dequeue points in a
  /// pseudo-random replayable order and yield at annotated touchpoints. A
  /// correct grid produces bit-identical results under every seed — the
  /// interleaving sweep pins that against the golden digests.
  SchedulePerturb perturb;
};

/// Run every grid point, at most `options.jobs` concurrently, and return
/// results in submission order. Exceptions thrown inside a run are captured
/// and rethrown (the lowest-index one) after the pool drains.
///
/// ObsHooks semantics under parallelism: each run gets a *private* registry
/// so engines never share instruments across threads; after the pool
/// drains, the private registries are merged into hooks.registry in
/// submission order (deterministic regardless of thread schedule), along
/// with the runner's own instruments:
///   grid.runs            (counter)   points executed
///   grid.run_wall_ms     (histogram) per-run wall clock
///   grid.jobs            (gauge)     resolved worker count
///   grid.pool_occupancy  (gauge)     busy-time / (elapsed * workers)
[[nodiscard]] std::vector<ExperimentResult> run_grid(
    const std::vector<GridPoint>& points, const GridOptions& options = {},
    const ObsHooks& hooks = {});

/// Strict parser behind every numeric bench flag. Accepts only a plain
/// decimal in [min, max]. Anything else — empty, a sign (so "-1" can never
/// wrap through strtoul into four billion of something), non-digits,
/// trailing garbage, or a value out of range — returns nullopt so callers
/// can fail loudly instead of running something nobody asked for.
/// Requires max <= 10^18, so the running value cannot overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal(const char* text,
                                                         std::uint64_t min,
                                                         std::uint64_t max);

/// The jobs knobs (`--jobs N`, WOHA_JOBS): parse_decimal in [0, kMaxJobs].
/// 0 = hardware concurrency, N = exactly N workers.
inline constexpr unsigned kMaxJobs = 4096;
[[nodiscard]] std::optional<unsigned> parse_jobs(const char* text);

/// The WOHA_JOBS environment knob: absent or empty = 1 (serial); otherwise
/// parse_jobs semantics. Throws std::invalid_argument on a malformed value
/// — a typo must not silently degrade a sweep to one thread.
[[nodiscard]] unsigned jobs_from_env();

}  // namespace woha::metrics
