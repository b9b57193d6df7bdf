// explain — deadline-miss forensics for canned WOHA scenarios.
//
// Runs one deterministic scenario with a SpanRecorder on the engine's event
// bus, attributes every workflow's span [submit, finish] into the conserved
// loss buckets (see src/forensics/attribution.hpp), and prints a root-cause
// table plus an end-to-end story for one workflow — by default the one with
// the largest tardiness.
//
//   --scenario overload|fig8   which canned run (default overload)
//   --rho R                    overload arrival intensity, finite and > 0
//                              (default 1.3)
//   --workflow N               narrate workflow N (a plain decimal id)
//                              instead of the worst miss
//   --spans-jsonl PATH         dump the span tree as JSONL
//   --attribution-jsonl PATH   dump per-workflow attribution records
//   --trace PATH               Chrome/Perfetto trace with DAG flow arrows
//
// A malformed flag value exits 2 with the usage line before the run.
// Everything is seeded; two invocations with the same flags are
// byte-identical (CI diffs exactly that).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "forensics/attribution.hpp"
#include "forensics/explain.hpp"
#include "forensics/export.hpp"
#include "forensics/span_recorder.hpp"
#include "hadoop/admission.hpp"
#include "hadoop/engine.hpp"
#include "metrics/grid.hpp"
#include "metrics/report.hpp"
#include "obs/export_chrome.hpp"
#include "trace/arrivals.hpp"
#include "trace/deadlines.hpp"
#include "trace/paper_workloads.hpp"
#include "workflow/topology.hpp"

using namespace woha;

namespace {

struct Options {
  std::string scenario = "overload";
  double rho = 1.3;
  std::optional<std::uint32_t> workflow;  ///< unset = pick the worst miss
  std::string spans_path;
  std::string attribution_path;
  std::string trace_path;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario overload|fig8] [--rho R] [--workflow N]\n"
               "          [--spans-jsonl PATH] [--attribution-jsonl PATH]\n"
               "          [--trace PATH]\n",
               argv0);
  return 2;
}

/// A --rho value: the whole text is one finite number greater than 0.
std::optional<double> parse_rho(const char* text) {
  if (text == nullptr) return std::nullopt;
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || !(v > 0.0)) {
    return std::nullopt;
  }
  return v;
}

/// The overload chaos scenario (mirrors the OverloadDeterminism fixture):
/// 12 diamond workflows arriving open-loop past saturation on a small
/// cluster with shedding, MTBF node churn, jitter, and speculation — every
/// attribution bucket has something to absorb.
std::vector<wf::WorkflowSpec> overload_workload(double rho) {
  std::vector<wf::WorkflowSpec> workflows;
  for (std::uint32_t i = 0; i < 12; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    workflows.push_back(std::move(spec));
  }
  trace::DeadlinePolicy deadlines;
  deadlines.reference_cap = 12;
  trace::assign_deadlines(workflows, 5, deadlines);
  trace::ArrivalConfig arrivals;
  arrivals.shape = trace::ArrivalShape::kPoisson;
  arrivals.rho = rho;
  arrivals.cluster_slots = 24;
  trace::assign_open_loop_arrivals(workflows, 7, arrivals);
  return workflows;
}

hadoop::EngineConfig overload_config() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 8;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.seed = 42;
  config.duration_jitter_sigma = 0.3;
  config.admission.policy = hadoop::AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 4;
  config.faults.tracker_mtbf = 600.0 * 1000.0;
  config.faults.tracker_restart_delay = seconds(30);
  config.faults.expiry_interval = seconds(60);
  config.faults.speculative_execution = true;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.scenario = v;
    } else if (arg == "--rho") {
      const std::optional<double> rho = parse_rho(next());
      if (!rho) return usage(argv[0]);
      opt.rho = *rho;
    } else if (arg == "--workflow") {
      const std::optional<std::uint64_t> id =
          metrics::parse_decimal(next(), 0, std::numeric_limits<std::uint32_t>::max());
      if (!id) return usage(argv[0]);
      opt.workflow = static_cast<std::uint32_t>(*id);
    } else if (arg == "--spans-jsonl") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.spans_path = v;
    } else if (arg == "--attribution-jsonl") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.attribution_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.trace_path = v;
    } else {
      return usage(argv[0]);
    }
  }

  std::vector<wf::WorkflowSpec> workload;
  hadoop::EngineConfig config;
  std::string label;
  if (opt.scenario == "overload") {
    workload = overload_workload(opt.rho);
    config = overload_config();
    char buf[32];
    std::snprintf(buf, sizeof buf, "overload rho=%.2f", opt.rho);
    label = buf;
  } else if (opt.scenario == "fig8") {
    workload = trace::fig8_trace(42);
    config.cluster = hadoop::ClusterConfig::with_totals(240, 240);
    label = "fig8 240m/240r";
  } else {
    return usage(argv[0]);
  }

  // WOHA-MPF, the paper's headline configuration.
  const metrics::SchedulerEntry entry = metrics::paper_schedulers().back();
  hadoop::Engine engine(config, entry.make());
  forensics::SpanRecorder recorder(engine.events(), &engine.job_tracker());

  // Open every output stream before the (expensive) run so an unwritable
  // path fails fast with a diagnosis instead of silently discarding output.
  std::ofstream spans_out;
  if (!opt.spans_path.empty()) {
    spans_out.open(opt.spans_path);
    if (!spans_out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   opt.spans_path.c_str());
      return 1;
    }
  }
  std::ofstream attribution_out;
  if (!opt.attribution_path.empty()) {
    attribution_out.open(opt.attribution_path);
    if (!attribution_out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   opt.attribution_path.c_str());
      return 1;
    }
  }
  std::ofstream trace_out;
  std::unique_ptr<obs::ChromeTraceExporter> chrome;
  if (!opt.trace_path.empty()) {
    trace_out.open(opt.trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   opt.trace_path.c_str());
      return 1;
    }
    obs::ChromeTraceOptions copts;
    // DAG flow arrows: the recorder already holds each workflow's spec by
    // the time its first job activates.
    copts.prerequisites = [&recorder](std::uint32_t wf_id, std::uint32_t job)
        -> std::vector<std::uint32_t> {
      const auto& spans = recorder.workflows();
      if (wf_id >= spans.size() || job >= spans[wf_id].spec.jobs.size()) return {};
      return spans[wf_id].spec.jobs[job].prerequisites;
    };
    chrome = std::make_unique<obs::ChromeTraceExporter>(engine.events(),
                                                        trace_out, copts);
  }

  for (const auto& spec : workload) engine.submit(spec);
  engine.run();
  if (chrome) chrome->finish();

  const auto records = forensics::attribute_all(recorder.workflows());

  std::printf("scenario: %s — %s, %zu workflows submitted\n", label.c_str(),
              entry.label.c_str(), records.size());
  forensics::MissRow row{label, forensics::summarize_misses(records)};
  std::printf("%s\n", forensics::format_miss_table({row}).c_str());

  // Pick the narrated workflow: requested id, else the worst miss.
  const forensics::WorkflowAttribution* pick = nullptr;
  for (const auto& r : records) {
    if (opt.workflow) {
      if (r.workflow == *opt.workflow) pick = &r;
    } else if (r.status == "completed" && r.tardiness > 0 &&
               (pick == nullptr || r.tardiness > pick->tardiness)) {
      pick = &r;
    }
  }
  int status = 0;
  if (pick != nullptr) {
    std::printf("%s", forensics::format_workflow_detail(*pick).c_str());
  } else if (opt.workflow) {
    // A typo'd id must not exit 0: scripts diffing explain output would
    // treat "was not recorded" as a healthy run.
    std::fprintf(stderr,
                 "error: workflow %u was not recorded in this scenario "
                 "(%zu workflows, ids dense from 0)\n",
                 *opt.workflow, records.size());
    status = 1;
  } else {
    std::printf("no deadline misses — nothing to explain\n");
  }

  if (spans_out.is_open()) {
    forensics::export_spans_jsonl(recorder.workflows(), recorder.rejected(),
                                  spans_out);
    std::printf("spans written to %s\n", opt.spans_path.c_str());
  }
  if (attribution_out.is_open()) {
    forensics::export_attribution_jsonl(records, attribution_out);
    std::printf("attribution written to %s\n", opt.attribution_path.c_str());
  }
  if (chrome) {
    std::printf("trace written to %s (%llu events)\n", opt.trace_path.c_str(),
                static_cast<unsigned long long>(chrome->events_written()));
  }
  return status;
}
