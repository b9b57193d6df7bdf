// Golden over every tracker lifecycle transition. A TaskTracker is up,
// crashed but not yet noticed, declared lost, draining out (graceful
// decommission or preemption warning) or retired, and the master learns
// each change from heartbeats, lease expiry, re-registration and its own
// drain and join decisions. Every delayed event that acts on a tracker
// (loss detection, restart, drain or preemption end, the deferred drain
// completion) must fire exactly when the tracker is still in the state
// that scheduled it. This test drives small clusters under FIFO, Fair,
// EDF, EDF-JOB and WOHA-LPF through:
//
//  * an explicit schedule: detection at lease expiry, a restart before
//    expiry (the expiry event then fires stale), a permanent loss, a second
//    crash while the first crash's expiry event is pending, busy and idle
//    decommissions, a lease that expires on running work, draining trackers
//    that crash (staying down past the lease, restarting inside it, and
//    crashing at the exact lease instant) and a preemption victim that
//    crashes during its warning;
//  * MTBF churn with joins, so a joined tracker crashes too;
//  * an autoscaler with no crashes that both joins and drains,
//
// and pins an FNV-1a digest of the JSONL export (every event, in order), of
// the RunSummary fields digest_overload covers and of the engine RNG state,
// so no transition may move an event, a schedule or a draw. It also asserts
// from the event stream that each run reaches each case its scenario is
// built for. The invariant auditor rides every run.
//
// Refresh the golden only after an intentional semantic change: run
//   WOHA_PRINT_GOLDENS=1 ./build/tests/integration_tests
//       --gtest_filter='TrackerLifecycle.*'
// and paste the printed value into kTrackerLifecycleGolden.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.hpp"
#include "hadoop/engine.hpp"
#include "metrics/report.hpp"
#include "obs/export_jsonl.hpp"
#include "overload_scenario.hpp"
#include "trace/deadlines.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

inline constexpr std::uint64_t kTrackerLifecycleGolden = 0x6cbcd3b986998479ull;

/// The transitions the golden must cover, each derived from the event
/// stream.
enum class Case {
  kDetectedAtExpiry,        ///< TrackerLost exactly one lease after the crash
  kRestartBeforeExpiry,     ///< re-registered before the lease ran out
  kExpiryFiredStale,        ///< ...and the run went past that lease instant
  kPermanentLoss,           ///< lost with no restart scheduled
  kSecondCrashPending,      ///< crashed again before the first lease ran out
  kBusyDrainRetiresEarly,   ///< busy at drain start, retired in the tick of
                            ///< its last attempt's end, before the lease
  kDrainLeaseOnWork,        ///< lease expired and migrated running attempts
  kIdleDrain,               ///< retired the instant its drain began
  kDrainingCrashOutlasts,   ///< crashed while draining, down past the lease
  kDrainingCrashRestarts,   ///< crashed while draining, back inside the lease
  kCrashAtLeaseInstant,     ///< crashed while draining, at the lease instant
  kPreemptedVictimCrash,    ///< crashed during its preemption warning
  kJoinedTrackerCrash,      ///< an MTBF crash on a tracker that joined
  kAutoscaleJoin,           ///< the autoscaler added a tracker
  kAutoscaleDrain,          ///< the autoscaler drained a tracker
  kCount,
};
constexpr std::size_t kCases = static_cast<std::size_t>(Case::kCount);

const char* name(Case c) {
  static const char* const kNames[kCases] = {
      "detected-at-expiry",       "restart-before-expiry",
      "expiry-fired-stale",       "permanent-loss",
      "second-crash-pending",     "busy-drain-retires-early",
      "drain-lease-on-work",      "idle-drain",
      "draining-crash-outlasts",  "draining-crash-restarts",
      "crash-at-lease-instant",   "preempted-victim-crash",
      "joined-tracker-crash",     "autoscale-join",
      "autoscale-drain"};
  return kNames[static_cast<std::size_t>(c)];
}

/// Tracker transitions observed on the event stream of one run.
class CaseTally {
 public:
  /// `autoscaled`: every join and drain is the autoscaler's (the scenario
  /// schedules none itself).
  CaseTally(Duration expiry, bool autoscaled)
      : expiry_(expiry), autoscaled_(autoscaled) {}

  [[nodiscard]] std::uint64_t count(Case c) const {
    return counts_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  /// Loss detections at the lease instant of a crash the tracker had
  /// already recovered from (must stay zero).
  [[nodiscard]] std::uint64_t stale_detections() const { return stale_detections_; }

  void observe(const obs::Event& e) {
    const SimTime t = e.time;
    // Lease instants of crashes the tracker re-registered from: the expiry
    // event fires stale once the run passes that instant.
    for (auto it = stale_expiry_.begin(); it != stale_expiry_.end();) {
      if (t > it->second) {
        ++counts_[static_cast<std::size_t>(Case::kExpiryFiredStale)];
        it = stale_expiry_.erase(it);
      } else {
        ++it;
      }
    }
    std::visit([this, t](const auto& p) { on(p, t); }, e.payload);
  }

 private:
  struct Drain {
    SimTime deadline = 0;
    bool preempting = false;
    bool busy = false;  ///< attempts running when the drain began
    SimTime began = 0;
  };
  struct Tracker {
    std::uint32_t running = 0;
    SimTime last_end = -1;
    bool joined = false;
    SimTime crash_time = 0;
    SimTime restart_time = kTimeInfinity;
    std::optional<Drain> drain;
    /// Deadline of a decommission interrupted by the current outage.
    std::optional<SimTime> crashed_drain_deadline;
  };

  void bump(Case c) { ++counts_[static_cast<std::size_t>(c)]; }
  Tracker& at(std::size_t i) { return trackers_[i]; }

  template <class P>
  void on(const P&, SimTime) {}

  void on(const obs::TaskStarted& s, SimTime) { ++at(s.tracker).running; }

  void on(const obs::TaskEnded& f, SimTime t) {
    Tracker& tr = at(f.tracker);
    --tr.running;
    tr.last_end = t;
  }

  void on(const obs::TrackerCrashed& c, SimTime t) {
    ++crashes_;
    Tracker& tr = at(c.tracker);
    if (const auto it = stale_expiry_.find(c.tracker);
        it != stale_expiry_.end() && it->second > t) {
      bump(Case::kSecondCrashPending);
    }
    if (tr.joined && c.restart_time != kTimeInfinity) bump(Case::kJoinedTrackerCrash);
    if (tr.drain) {
      if (tr.drain->preempting) {
        if (t < tr.drain->deadline) bump(Case::kPreemptedVictimCrash);
      } else if (t == tr.drain->deadline) {
        bump(Case::kCrashAtLeaseInstant);
      } else if (c.restart_time > tr.drain->deadline) {
        bump(Case::kDrainingCrashOutlasts);
      } else {
        tr.crashed_drain_deadline = tr.drain->deadline;
      }
    }
    tr.crash_time = t;
    tr.restart_time = c.restart_time;
  }

  void on(const obs::TrackerLost& l, SimTime t) {
    const Tracker& tr = trackers_[l.tracker];
    if (const auto it = stale_expiry_.find(l.tracker);
        it != stale_expiry_.end() && it->second == t) {
      ++stale_detections_;
    }
    if (t == tr.crash_time + expiry_) bump(Case::kDetectedAtExpiry);
    if (tr.restart_time == kTimeInfinity) bump(Case::kPermanentLoss);
  }

  void on(const obs::TrackerRestarted& r, SimTime t) {
    Tracker& tr = at(r.tracker);
    if (t < tr.crash_time + expiry_) {
      bump(Case::kRestartBeforeExpiry);
      stale_expiry_[r.tracker] = tr.crash_time + expiry_;
    }
    if (tr.crashed_drain_deadline && t < *tr.crashed_drain_deadline) {
      bump(Case::kDrainingCrashRestarts);
    }
    tr.crashed_drain_deadline.reset();
    tr.drain.reset();
  }

  void on(const obs::TrackerDraining& d, SimTime t) {
    at(d.tracker).drain = Drain{d.lease_deadline, false, at(d.tracker).running > 0, t};
    if (autoscaled_) bump(Case::kAutoscaleDrain);
  }

  void on(const obs::PreemptionWarning& w, SimTime t) {
    at(w.tracker).drain = Drain{w.termination_time, true, at(w.tracker).running > 0, t};
  }

  void on(const obs::TrackerDecommissioned& d, SimTime t) {
    Tracker& tr = at(d.tracker);
    if (tr.drain && !tr.drain->preempting) {
      if (!tr.drain->busy && t == tr.drain->began) bump(Case::kIdleDrain);
      if (tr.drain->busy && d.migrated == 0 && t < tr.drain->deadline &&
          tr.last_end == t) {
        bump(Case::kBusyDrainRetiresEarly);
      }
      if (d.migrated > 0 && t == tr.drain->deadline) bump(Case::kDrainLeaseOnWork);
    }
    tr.drain.reset();
  }

  void on(const obs::TrackerJoined& j, SimTime) {
    at(j.tracker).joined = true;
    if (autoscaled_) bump(Case::kAutoscaleJoin);
  }

  Duration expiry_;
  bool autoscaled_;
  std::map<std::size_t, Tracker> trackers_;
  std::map<std::size_t, SimTime> stale_expiry_;
  std::uint64_t counts_[kCases] = {};
  std::uint64_t crashes_ = 0;
  std::uint64_t stale_detections_ = 0;
};

wf::WorkflowSpec named(wf::WorkflowSpec spec, std::uint32_t i) {
  spec.name = "wf" + std::to_string(i);
  return spec;
}

/// Deadlines drawn from `seed`; every workflow is submitted at time 0.
std::vector<wf::WorkflowSpec> with_deadlines(std::vector<wf::WorkflowSpec> workflows,
                                             std::uint64_t seed) {
  trace::DeadlinePolicy deadlines;
  deadlines.reference_cap = 12;
  deadlines.slack_lo = 1.2;
  deadlines.slack_hi = 3.0;
  trace::assign_deadlines(workflows, seed, deadlines);
  return workflows;
}

struct Scenario {
  std::string name;
  hadoop::EngineConfig config;
  std::vector<wf::WorkflowSpec> workload;
  std::vector<Case> cases;  ///< reached by every scheduler's run
  bool autoscaled = false;
};

/// Hand-placed crashes, drains and one preemption wave on 12 trackers that
/// stay saturated through the first ten minutes.
Scenario explicit_scenario() {
  Scenario s;
  s.name = "explicit";
  hadoop::EngineConfig& c = s.config;
  c.cluster.num_trackers = 12;
  c.seed = 11;
  c.duration_jitter_sigma = 0.3;
  c.faults.expiry_interval = seconds(60);
  auto& f = c.faults.events;
  f.push_back({0, seconds(100), kTimeInfinity});  // lost for good at 160 s
  f.push_back({1, seconds(120), seconds(140)});   // back before its lease
  f.push_back({1, seconds(160), seconds(400)});   // again, 180 s lease pending
  f.push_back({5, seconds(235), kTimeInfinity});  // draining, never back
  f.push_back({6, seconds(245), seconds(300)});   // draining, back in the lease
  f.push_back({7, seconds(275), kTimeInfinity});  // at its lease instant
  f.push_back({11, seconds(320), seconds(500)});  // during its warning
  auto& e = c.elasticity;
  e.decommissions.push_back({2, seconds(1), seconds(60)});    // idle
  e.decommissions.push_back({3, seconds(200), minutes(20)});  // retires early
  e.decommissions.push_back({4, seconds(210), seconds(10)});  // lease on work
  e.decommissions.push_back({5, seconds(230), minutes(20)});
  e.decommissions.push_back({6, seconds(240), minutes(20)});
  e.decommissions.push_back({7, seconds(260), seconds(15)});
  e.preemption_waves.push_back({seconds(300), 2, seconds(60)});  // 11 and 10
  wf::JobShape shape;
  shape.num_maps = 12;
  shape.num_reduces = 3;
  shape.map_duration = seconds(90);
  shape.reduce_duration = seconds(120);
  for (std::uint32_t i = 0; i < 8; ++i) {
    s.workload.push_back(named(wf::fan_in(3, shape), i));
  }
  s.workload = with_deadlines(std::move(s.workload), 21);
  s.cases = {Case::kDetectedAtExpiry,      Case::kRestartBeforeExpiry,
             Case::kExpiryFiredStale,      Case::kPermanentLoss,
             Case::kSecondCrashPending,    Case::kBusyDrainRetiresEarly,
             Case::kDrainLeaseOnWork,      Case::kIdleDrain,
             Case::kDrainingCrashOutlasts, Case::kDrainingCrashRestarts,
             Case::kCrashAtLeaseInstant,   Case::kPreemptedVictimCrash};
  return s;
}

/// MTBF churn on a cluster that two trackers join.
Scenario churn_scenario() {
  Scenario s;
  s.name = "churn";
  hadoop::EngineConfig& c = s.config;
  c.cluster.num_trackers = 6;
  c.seed = 12;
  c.duration_jitter_sigma = 0.3;
  c.horizon = hours(4);
  c.faults.tracker_mtbf = 30.0 * 60.0 * 1000.0;
  c.faults.tracker_restart_delay = minutes(3);
  c.faults.expiry_interval = minutes(2);
  c.faults.seed = 3;
  c.elasticity.joins.push_back({minutes(5), 2});
  wf::JobShape shape;
  shape.num_maps = 8;
  shape.num_reduces = 2;
  shape.map_duration = seconds(60);
  shape.reduce_duration = seconds(90);
  for (std::uint32_t i = 0; i < 12; ++i) {
    s.workload.push_back(named(wf::diamond(2 + i % 2, shape), i));
  }
  s.workload = with_deadlines(std::move(s.workload), 22);
  s.cases = {Case::kDetectedAtExpiry, Case::kJoinedTrackerCrash};
  return s;
}

/// The threshold autoscaler over a burst, a lull and two late arrivals,
/// with no crashes.
Scenario autoscale_scenario() {
  Scenario s;
  s.name = "autoscale";
  s.autoscaled = true;
  hadoop::EngineConfig& c = s.config;
  c.cluster.num_trackers = 4;
  c.seed = 13;
  c.duration_jitter_sigma = 0.3;
  auto& a = c.elasticity.autoscaler;
  a.enabled = true;
  a.check_period = seconds(30);
  a.scale_out_pending = 4;
  a.scale_in_pending = 3;
  a.max_trackers = 8;
  a.min_trackers = 2;
  a.drain_lease = seconds(60);
  wf::JobShape shape;
  shape.num_maps = 8;
  shape.num_reduces = 2;
  shape.map_duration = seconds(60);
  shape.reduce_duration = seconds(90);
  for (std::uint32_t i = 0; i < 8; ++i) {
    s.workload.push_back(named(wf::chain(2, shape), i));
  }
  s.workload = with_deadlines(std::move(s.workload), 23);
  // A burst of six, then two stragglers once the cluster has shrunk again.
  for (std::uint32_t i = 0; i < 8; ++i) {
    s.workload[i].submit_time = i < 6 ? seconds(5) * i : minutes(30) + minutes(5) * i;
  }
  s.cases = {Case::kAutoscaleJoin, Case::kAutoscaleDrain};
  return s;
}

struct RunOutput {
  std::uint64_t digest = 0;
  CaseTally tally;
};

RunOutput run(const Scenario& scenario, const metrics::SchedulerEntry& entry) {
  hadoop::Engine engine(scenario.config, entry.make());
  std::ostringstream jsonl_out;
  obs::JsonlExporter jsonl(engine.events(), jsonl_out);
  RunOutput out{0, CaseTally(scenario.config.faults.expiry_interval,
                             scenario.autoscaled)};
  engine.events().subscribe([&out](const obs::Event& e) { out.tally.observe(e); });
  audit::InvariantAuditor auditor(engine);
  for (const auto& spec : scenario.workload) engine.submit(spec);
  engine.run();
  auditor.full_sweep();

  testing::Fnv1a h;
  h.mix(jsonl_out.str());
  h.mix(testing::digest_overload({metrics::ExperimentResult{
      entry.label, engine.summarize(), 0.0}}));
  for (const std::uint64_t word : engine.rng_state()) h.mix(word);
  out.digest = h.value();
  return out;
}

TEST(TrackerLifecycle, EveryTransitionIsReachedAndPinned) {
  const bool print = std::getenv("WOHA_PRINT_GOLDENS") != nullptr;
  testing::Fnv1a h;
  for (const Scenario& scenario :
       {explicit_scenario(), churn_scenario(), autoscale_scenario()}) {
    for (const auto& entry : metrics::extended_schedulers()) {
      if (entry.label == "WOHA-HLF" || entry.label == "WOHA-MPF") continue;
      const RunOutput r = run(scenario, entry);
      h.mix(r.digest);
      const std::string where = scenario.name + " " + entry.label;
      if (print) {
        std::printf("%s 0x%016llx\n", where.c_str(),
                    static_cast<unsigned long long>(r.digest));
      }
      for (const Case c : scenario.cases) {
        EXPECT_GT(r.tally.count(c), 0u) << where << " never reached " << name(c);
      }
      EXPECT_EQ(r.tally.stale_detections(), 0u) << where;
      if (scenario.autoscaled) {
        EXPECT_EQ(r.tally.crashes(), 0u) << where;
      }
    }
  }

  if (print) {
    std::printf("golden tracker_lifecycle 0x%016llxull\n",
                static_cast<unsigned long long>(h.value()));
    return;
  }
  EXPECT_EQ(h.value(), kTrackerLifecycleGolden)
      << "a tracker transition moved an event, a schedule or a draw. "
         "See the file comment before refreshing.";
}

}  // namespace
}  // namespace woha
