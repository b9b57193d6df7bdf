// Chrome trace_event exporter (loadable in Perfetto / chrome://tracing).
//
// Track layout:
//   pid 1            — "JobTracker (master)": workflow lifecycle instants on
//                      tid 1 ("workflows"), scheduler decision annotations on
//                      tid 2 ("decisions").
//   pid 100 + k      — "TaskTracker k": one thread per slot lane; task
//                      attempts are B/E slices on the lane they occupy,
//                      crash / loss / re-registration are instant events.
//
// Timestamps are simulated time (ms) scaled to the format's microseconds.
// The exporter streams: events are written as they are published, so memory
// stays O(running attempts) regardless of run length. finish() (or the
// destructor) closes the JSON; the result is a complete
// {"traceEvents":[...]} document.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/event.hpp"
#include "obs/event_bus.hpp"

namespace woha::obs {

struct ChromeTraceOptions {
  /// DAG provider for span + flow emission: given (workflow, job), return
  /// the job's prerequisite indices. When set, each job gets a complete
  /// ("X") span on a per-workflow master lane covering activation ->
  /// completion, and flow arrows connect every prerequisite's completion to
  /// its dependents' activation. When null (the default), the output is
  /// byte-identical to the pre-forensics exporter.
  std::function<std::vector<std::uint32_t>(std::uint32_t workflow,
                                           std::uint32_t job)>
      prerequisites;
};

class ChromeTraceExporter {
 public:
  ChromeTraceExporter(EventBus& bus, std::ostream& out,
                      ChromeTraceOptions options = {});
  ~ChromeTraceExporter();
  ChromeTraceExporter(const ChromeTraceExporter&) = delete;
  ChromeTraceExporter& operator=(const ChromeTraceExporter&) = delete;

  /// Close the JSON document. Idempotent; called by the destructor too.
  /// The subscription stays alive until destruction so events published
  /// after the document is closed are counted in events_dropped() instead
  /// of corrupting the closed JSON or vanishing silently.
  void finish();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::uint64_t events_written() const { return events_; }
  /// Events published after finish(); 0 while the document is open.
  [[nodiscard]] std::uint64_t events_dropped() const { return dropped_; }

 private:
  static constexpr std::uint64_t kMasterPid = 1;
  static constexpr std::uint64_t kTrackerPidBase = 100;
  static constexpr std::uint64_t kWorkflowTid = 1;
  static constexpr std::uint64_t kDecisionTid = 2;
  static constexpr std::uint64_t kJobTidBase = 10;  ///< + workflow id
  static constexpr std::uint64_t kReduceTidBase = 1000;

  void on_event(const Event& event);
  void handle(SimTime t, const TaskStarted& p);
  void handle(SimTime t, const TaskEnded& p);
  void handle_job_activated(SimTime t, const JobActivated& p);
  void handle_job_completed(SimTime t, const JobCompleted& p);
  void emit(const std::string& json_object);
  void ensure_process(std::uint64_t pid, const std::string& name);
  void ensure_thread(std::uint64_t pid, std::uint64_t tid, const std::string& name);
  /// Pick (and name) the first free lane of the tracker for this slot type.
  std::uint64_t acquire_lane(std::size_t tracker, SlotType slot,
                             std::uint64_t attempt);
  void instant(SimTime t, std::uint64_t pid, std::uint64_t tid,
               const std::string& name, const std::string& args_json);

  EventBus& bus_;
  std::ostream& out_;
  ChromeTraceOptions options_;
  EventBus::SubscriptionId subscription_;
  bool first_ = true;
  bool finished_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;

  /// (workflow, job) -> activation time; feeds the job spans and flow
  /// arrows emitted when options_.prerequisites is set.
  std::map<std::pair<std::uint32_t, std::uint32_t>, SimTime> job_activated_;
  /// (workflow, job) -> completion time (flow sources for dependents).
  std::map<std::pair<std::uint32_t, std::uint32_t>, SimTime> job_completed_;

  /// lanes_[{tracker, slot}][lane] = attempt occupying it (0 = free).
  std::map<std::pair<std::size_t, SlotType>, std::vector<std::uint64_t>> lanes_;
  /// attempt -> (pid, tid) of the slice opened for it.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      open_slices_;
  std::map<std::uint64_t, bool> known_pids_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, bool> known_tids_;
};

}  // namespace woha::obs
