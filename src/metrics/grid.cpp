#include "metrics/grid.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "analysis/race_detector.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics_registry.hpp"

namespace woha::metrics {

namespace {

/// Execute one grid point with fully private observability state.
/// `scratch` is the run's own registry (null when the caller attached no
/// registry at all — then nothing is recorded, matching run_experiment).
ExperimentResult run_point(const GridPoint& point, std::size_t index,
                           const GridOptions& options, const ObsHooks& caller_hooks,
                           obs::MetricsRegistry* scratch) {
  if (point.workload == nullptr) {
    throw std::invalid_argument("run_grid: grid point " + std::to_string(index) +
                                " has no workload");
  }
  ObsHooks hooks;
  hooks.registry = scratch;
  if (caller_hooks.configure || options.configure_point) {
    hooks.configure = [&caller_hooks, &options, index](hadoop::Engine& engine) {
      if (caller_hooks.configure) caller_hooks.configure(engine);
      if (options.configure_point) options.configure_point(engine, index);
    };
  }
  return run_experiment(point.config, *point.workload, point.scheduler, hooks);
}

}  // namespace

std::vector<ExperimentResult> run_grid(const std::vector<GridPoint>& points,
                                       const GridOptions& options,
                                       const ObsHooks& hooks) {
  const unsigned jobs = ThreadPool::resolve(options.jobs);
  std::vector<ExperimentResult> results(points.size());

  // One private registry per run, allocated up front on the calling thread
  // so workers only ever touch their own slot. Skipped entirely when the
  // caller attached no registry (zero overhead, like run_experiment).
  std::vector<std::unique_ptr<obs::MetricsRegistry>> scratch(points.size());
  if (hooks.registry != nullptr) {
    for (auto& r : scratch) r = std::make_unique<obs::MetricsRegistry>();
  }

  const auto grid_t0 = std::chrono::steady_clock::now();
  double busy_seconds = 0.0;

  // Touchpoint instances for the per-point result slot and scratch registry.
  // Fresh ids per run_grid call — recycled heap addresses can never alias
  // another grid's touch history.
  const std::uint64_t slot_base = analysis::new_instance_block(points.size());

  if (jobs == 1 || points.size() <= 1) {
    // Serial path: no pool, no thread hop — the reference execution the
    // parallel path must reproduce bit for bit.
    for (std::size_t i = 0; i < points.size(); ++i) {
      analysis::touch_write("grid.result", slot_base + i, "run_grid serial store");
      results[i] = run_point(points[i], i, options, hooks, scratch[i] ? scratch[i].get() : nullptr);
      busy_seconds += results[i].wall_seconds;
    }
  } else {
    std::vector<std::exception_ptr> errors(points.size());
    ThreadPool pool(jobs, options.perturb);
    for (std::size_t i = 0; i < points.size(); ++i) {
      pool.submit([&, i] {
        try {
          analysis::touch_write("grid.result", slot_base + i,
                                "run_grid worker store");
          results[i] = run_point(points[i], i, options, hooks,
                                 scratch[i] ? scratch[i].get() : nullptr);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
    busy_seconds = pool.busy_seconds();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - grid_t0)
          .count();

  if (hooks.registry != nullptr) {
    // Submission-order merge: the aggregate is independent of which worker
    // ran which point, so grid metrics are as deterministic as the runs
    // themselves (wall-clock histograms excepted, as always). The reads are
    // annotated: they are only HB-ordered after the workers' writes through
    // wait_idle(), which is exactly the edge the detector checks.
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      analysis::touch_read("grid.result", slot_base + i, "run_grid merge");
      hooks.registry->merge(*scratch[i]);
    }
    hooks.registry->counter("grid.runs").add(points.size());
    obs::Histogram& wall_ms = hooks.registry->histogram(
        "grid.run_wall_ms", obs::exponential_buckets(1.0, 4.0, 10));
    for (const ExperimentResult& r : results) wall_ms.observe(r.wall_seconds * 1e3);
    hooks.registry->gauge("grid.jobs").set(static_cast<double>(jobs));
    hooks.registry->gauge("grid.pool_occupancy")
        .set(elapsed > 0.0 ? busy_seconds / (elapsed * jobs) : 0.0);
  }
  return results;
}

std::optional<std::uint64_t> parse_decimal(const char* text, std::uint64_t min,
                                           std::uint64_t max) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  std::uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
    if (v > max) return std::nullopt;
  }
  if (v < min) return std::nullopt;
  return v;
}

std::optional<unsigned> parse_jobs(const char* text) {
  const std::optional<std::uint64_t> v = parse_decimal(text, 0, kMaxJobs);
  if (!v) return std::nullopt;
  return static_cast<unsigned>(*v);
}

unsigned jobs_from_env() {
  const char* env = std::getenv("WOHA_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  const std::optional<unsigned> jobs = parse_jobs(env);
  if (!jobs) {
    throw std::invalid_argument(
        std::string("WOHA_JOBS: expected a plain decimal in [0, ") +
        std::to_string(kMaxJobs) + "], got \"" + env + "\"");
  }
  return *jobs;
}

}  // namespace woha::metrics
