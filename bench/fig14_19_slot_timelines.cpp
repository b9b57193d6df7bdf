// Figs. 14-19 — Slot allocation timelines under the six schedulers.
//
// For the Fig. 11 workload, prints the number of map and reduce slots each
// workflow occupies over time (downsampled for the terminal) — the series
// the paper plots as stacked shaded areas. The characteristic patterns:
//   FIFO (Fig. 14): W1/W2 win every contention; W3 waits for the tail.
//   EDF  (Fig. 15): W3 monopolizes on arrival; W1's work is pushed past
//                   its deadline.
//   Fair (Fig. 16): everything interleaves thinly; nobody finishes early.
//   WOHA (Figs. 17-19): workflows take "adequate resources to keep up with
//                   their scheduling plan", yielding when ahead.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "metrics/report.hpp"
#include "metrics/timeline.hpp"
#include "trace/paper_workloads.hpp"

using namespace woha;

namespace {

void print_series(const metrics::TimelineRecorder& timeline, SlotType slot,
                  Duration period) {
  const auto samples = timeline.sample(slot, period);
  std::printf("  %-7s", slot == SlotType::kMap ? "t (min)" : "t (min)");
  for (std::uint32_t w = 0; w < timeline.workflow_count(); ++w) {
    std::printf("  W-%u", w + 1);
  }
  std::printf("   (%s slots in use)\n", to_string(slot));
  for (const auto& s : samples) {
    // Skip all-zero tail rows for brevity.
    std::uint32_t total = 0;
    for (const auto c : s.counts) total += c;
    if (total == 0 && s.time > 0) continue;
    std::printf("  %7lld", static_cast<long long>(s.time / 60000));
    for (const auto c : s.counts) std::printf("  %3u", c);
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::MetricsSession metrics_session(argc, argv);
  bench::banner("Figs. 14-19", "slot allocation timelines, Fig. 11 workload");

  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  const auto workload = trace::fig11_scenario();

  const char* figure_of[] = {"Fig. 15", "Fig. 14", "Fig. 16",
                             "Fig. 17", "Fig. 18", "Fig. 19"};
  int idx = 0;
  for (const auto& entry : metrics::paper_schedulers()) {
    metrics::TimelineRecorder timeline;
    metrics::ObsHooks hooks = metrics_session.hooks();
    hooks.configure = [&timeline](hadoop::Engine& engine) {
      engine.events().subscribe([&timeline](const obs::Event& e) { timeline.record(e); });
    };
    const auto result = metrics::run_experiment(config, workload, entry, hooks);
    std::printf("---- %s: %s ----\n", figure_of[idx++], entry.label.c_str());
    print_series(timeline, SlotType::kMap, minutes(5));
    print_series(timeline, SlotType::kReduce, minutes(5));
    const auto peaks_m = timeline.peak_occupancy(SlotType::kMap);
    const auto peaks_r = timeline.peak_occupancy(SlotType::kReduce);
    std::printf("  peak occupancy:");
    for (std::uint32_t w = 0; w < timeline.workflow_count(); ++w) {
      std::printf("  W-%u map=%u reduce=%u", w + 1, peaks_m[w], peaks_r[w]);
    }
    std::printf("  | makespan %s, misses %.0f%%\n\n",
                format_duration(result.summary.makespan).c_str(),
                result.summary.deadline_miss_ratio * 100.0);
  }
  bench::note("5-minute sampling; the paper plots the same series continuously.");
  return 0;
}
