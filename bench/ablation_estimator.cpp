// Ablation — history-based task-time estimation closing the loop on
// estimation error.
//
// Users underestimate their job durations by 25% (duration_scale = 1.25):
// with spec estimates WOHA's plans are too optimistic and Fig. 11 deadlines
// slip (see bench_ablation_estimation_error). A HistoryEstimator trained on
// one prior execution (the "logs of historical executions" of the paper's
// Sec. IV-A) restores honest plans — and the deadlines.
//
// Deliberately serial (no --jobs): the three runs share one estimator whose
// state must flow cold -> warm, so they cannot fan out over run_grid().
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/woha_scheduler.hpp"
#include "estimate/history_recorder.hpp"
#include "metrics/report.hpp"
#include "trace/paper_workloads.hpp"

using namespace woha;

namespace {

hadoop::RunSummary run_scenario(std::shared_ptr<est::TaskTimeEstimator> estimator,
                                bool record_history,
                                obs::MetricsRegistry* registry) {
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  config.duration_scale = 1.25;  // users are 25% optimistic
  core::WohaConfig wc;
  wc.estimator = estimator;
  auto scheduler = std::make_unique<core::WohaScheduler>(wc);
  hadoop::Engine engine(config, std::move(scheduler));
  if (registry) engine.set_metrics_registry(registry);
  std::unique_ptr<est::HistoryRecorder> recorder;
  if (record_history && estimator) {
    recorder = std::make_unique<est::HistoryRecorder>(*estimator, engine);
    engine.events().subscribe([&recorder](const obs::Event& e) { recorder->observe(e); });
  }
  // Fig. 11 releases, deadlines relaxed by 15 min each so the *true*
  // (1.25x) workload sits at the feasibility edge rather than beyond it:
  // the failure mode under test is plan quality, not raw infeasibility.
  const Duration deadlines[] = {minutes(95), minutes(85), minutes(75)};
  int i = 0;
  for (auto spec : trace::fig11_scenario()) {
    spec.relative_deadline = deadlines[i++];
    engine.submit(std::move(spec));
  }
  engine.run();
  return engine.summarize();
}

}  // namespace

int main(int argc, char** argv) {
  bench::MetricsSession metrics_session(argc, argv);
  bench::banner("Ablation", "history-based estimation vs 25% optimistic configs");

  TextTable table({"estimates", "W-1", "W-2", "W-3", "misses", "max tardiness"});
  auto add_row = [&table](const char* label, const hadoop::RunSummary& summary) {
    int misses = 0;
    std::vector<std::string> row{label};
    for (const auto& wf : summary.workflows) {
      row.push_back(format_duration(wf.workspan) + (wf.met_deadline ? "" : " *MISS*"));
      misses += !wf.met_deadline;
    }
    row.push_back(std::to_string(misses));
    row.push_back(format_duration(summary.max_tardiness));
    table.add_row(row);
  };

  // 1. Spec estimates (optimistic by 25%).
  add_row("configured (25% optimistic)", run_scenario(nullptr, false, metrics_session.registry()));

  // 2. Cold history estimator: learns during the run; early plans are
  //    still optimistic.
  auto estimator = std::make_shared<est::HistoryEstimator>();
  add_row("history, cold (learning live)", run_scenario(estimator, true, metrics_session.registry()));

  // 3. Warm: the same estimator now holds one full execution of history.
  add_row("history, warm (1 prior run)", run_scenario(estimator, true, metrics_session.registry()));

  std::printf("%s\n", table.to_string().c_str());
  bench::note("history keyed by job name: one prior execution restores honest "
              "plans, saving the tightest workflow and shrinking tardiness; the "
              "residual misses show that at 1.25x load this scenario sits past "
              "the feasibility edge for the earlier instances — estimation "
              "quality helps, capacity it cannot create.");
  return 0;
}
