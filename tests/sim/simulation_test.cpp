#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace woha::sim {
namespace {

constexpr Duration kPeriod = 10;
constexpr std::uint32_t kBeat = 1000;  // beats record as kBeat + tracker

/// Test dispatcher: events carry a label in `a`. Records every firing as
/// (time, label), drops the labels in `cancelled`, and runs the optional
/// reactions.
struct Recorder {
  explicit Recorder(const Simulation& s) : sim(&s) {}

  const Simulation* sim;
  std::vector<std::pair<SimTime, std::uint32_t>> fired;
  std::set<std::uint32_t> cancelled;
  std::function<void(const Event&)> on_fire;
  std::function<void(std::uint32_t)> on_beat;

  void heartbeat(std::uint32_t tracker) {
    fired.emplace_back(sim->now(), kBeat + tracker);
    if (on_beat) on_beat(tracker);
  }
  [[nodiscard]] bool live(const Event& ev) const { return !cancelled.contains(ev.a); }
  void fire(const Event& ev) {
    fired.emplace_back(ev.time, ev.a);
    if (on_fire) on_fire(ev);
  }
  [[nodiscard]] std::vector<std::uint32_t> labels() const {
    std::vector<std::uint32_t> out;
    for (const auto& f : fired) out.push_back(f.second);
    return out;
  }
};

void run(Simulation& sim, Recorder& rec, SimTime until = kTimeInfinity) {
  while (sim.step(until, rec)) {
  }
}

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  sim.schedule_at(30, 0, 3);
  sim.schedule_at(10, 0, 1);
  sim.schedule_at(20, 0, 2);
  run(sim, rec);
  EXPECT_EQ(rec.labels(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, SameTickFifo) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  for (std::uint32_t i = 0; i < 10; ++i) sim.schedule_at(5, 0, i);
  run(sim, rec);
  EXPECT_EQ(rec.labels(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  rec.on_fire = [&](const Event& ev) {
    if (ev.a == 1) sim.schedule_after(50, 0, 2);
  };
  sim.schedule_at(100, 0, 1);
  run(sim, rec);
  ASSERT_EQ(rec.fired.size(), 2u);
  EXPECT_EQ(rec.fired[1], (std::pair<SimTime, std::uint32_t>{150, 2}));
}

TEST(Simulation, RejectsPastAndNegative) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  sim.schedule_at(10, 0);
  run(sim, rec);
  EXPECT_THROW(sim.schedule_at(5, 0), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1, 0), std::invalid_argument);
  EXPECT_THROW(sim.add_beat(0, 5), std::invalid_argument);
}

TEST(Simulation, CancelPreventsFiring) {
  // Cancellation is the dispatcher's verdict at pop time: an event it
  // rejects never reaches fire().
  Simulation sim(kPeriod);
  Recorder rec(sim);
  rec.cancelled.insert(1);
  sim.schedule_at(10, 0, 1);
  run(sim, rec);
  EXPECT_TRUE(rec.fired.empty());
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  sim.schedule_at(10, 0, 1);
  run(sim, rec);
  rec.cancelled.insert(1);  // must not rewind anything
  run(sim, rec);
  EXPECT_EQ(rec.fired.size(), 1u);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulation, BeatsFireEveryPeriod) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  sim.add_beat(0, 0);
  run(sim, rec, 35);
  EXPECT_EQ(rec.fired, (std::vector<std::pair<SimTime, std::uint32_t>>{
                           {0, kBeat}, {10, kBeat}, {20, kBeat}, {30, kBeat}}));
  EXPECT_EQ(sim.now(), 30);
  run(sim, rec, 45);
  EXPECT_EQ(rec.fired.size(), 5u);
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(Simulation, PeriodicRejectsNonPositivePeriod) {
  EXPECT_THROW(Simulation(0), std::invalid_argument);
  EXPECT_THROW(Simulation(-5), std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  sim.schedule_at(10, 0, 1);
  sim.schedule_at(20, 0, 2);
  run(sim, rec, 15);
  EXPECT_EQ(rec.fired.size(), 1u);
  EXPECT_EQ(sim.now(), 10);  // the last firing, not the horizon
  run(sim, rec);  // resume past the horizon
  EXPECT_EQ(rec.fired.size(), 2u);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  EXPECT_FALSE(sim.step(kTimeInfinity, rec));
  sim.schedule_at(1, 0);
  EXPECT_TRUE(sim.step(kTimeInfinity, rec));
  EXPECT_FALSE(sim.step(kTimeInfinity, rec));
}

TEST(Simulation, EventsFiredCountsOnlyRealFirings) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  rec.cancelled = {1, 3};
  sim.schedule_at(1, 0, 1);
  sim.schedule_at(2, 0, 2);
  sim.schedule_at(5, 0, 3);
  run(sim, rec);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.now(), 2);  // a dropped event does not move the clock
}

TEST(Simulation, StepFiresOneEventAtATime) {
  // The caller owns the loop: a run ends after any event it likes.
  Simulation sim(kPeriod);
  Recorder rec(sim);
  sim.schedule_at(1, 0, 1);
  sim.schedule_at(1, 0, 2);
  sim.schedule_at(2, 0, 3);
  ASSERT_TRUE(sim.step(kTimeInfinity, rec));
  EXPECT_EQ(rec.labels(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sim.now(), 1);
  ASSERT_TRUE(sim.step(kTimeInfinity, rec));
  EXPECT_EQ(rec.labels(), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(Simulation, EventCanScheduleManyDescendants) {
  // A small chain-reaction workload; also guards against iterator
  // invalidation in the queue when handlers push new events.
  Simulation sim(kPeriod);
  Recorder rec(sim);
  rec.on_fire = [&](const Event& ev) {
    if (ev.b < 10) {
      sim.schedule_after(1, 0, 0, ev.b + 1);
      sim.schedule_after(2, 0, 0, ev.b + 1);
    }
  };
  sim.schedule_at(0, 0, 0, 0);
  run(sim, rec);
  EXPECT_EQ(rec.fired.size(), (1u << 11) - 1);  // full binary tree of depth 10
}

TEST(Simulation, BeatRearmsAfterItsHandler) {
  // What a beat's handler schedules for the next beat's tick takes the
  // smaller seq, so it fires before the re-armed beat.
  Simulation sim(kPeriod);
  Recorder rec(sim);
  rec.on_beat = [&](std::uint32_t) {
    if (rec.fired.size() == 1) sim.schedule_after(kPeriod, 0, 7);
  };
  sim.add_beat(0, 0);
  run(sim, rec, kPeriod);
  EXPECT_EQ(rec.labels(), (std::vector<std::uint32_t>{kBeat, 7, kBeat}));
}

TEST(Simulation, BeatsAndEventsShareOneTieBreak) {
  Simulation sim(kPeriod);
  Recorder rec(sim);
  sim.schedule_at(5, 0, 1);
  sim.add_beat(0, 5);
  sim.schedule_at(5, 0, 2);
  run(sim, rec, 5);
  EXPECT_EQ(rec.labels(), (std::vector<std::uint32_t>{1, kBeat, 2}));
}

TEST(Simulation, AddBeatRejectsAnOutOfOrderFirstBeat) {
  Simulation sim(kPeriod);
  sim.add_beat(0, 5);
  EXPECT_THROW(sim.add_beat(1, 3), std::invalid_argument);   // before the last beat
  EXPECT_THROW(sim.add_beat(1, 11), std::invalid_argument);  // beyond one period
  sim.add_beat(1, 5);
  sim.add_beat(2, kPeriod);
}

TEST(Simulation, BeatCanScheduleAheadOfTheCalendarHead) {
  // The calendar holds one event in the ring and one two ring spans out, in
  // the far heap. A beat fires before both and schedules on its own tick and
  // just after it: neither may be passed over, and the far event still fires
  // at its time. Beats a second apart keep the run short.
  constexpr SimTime kFar = 2 * Simulation::kRingSpan;
  Simulation sim(1000);
  Recorder rec(sim);
  rec.on_beat = [&](std::uint32_t) {
    if (rec.fired.size() == 1) {
      sim.schedule_after(0, 0, 1);
      sim.schedule_after(3, 0, 2);
    }
  };
  sim.schedule_at(kFar, 0, 3);
  sim.schedule_at(5000, 0, 4);
  sim.add_beat(0, 0);
  run(sim, rec, kFar);
  ASSERT_GE(rec.fired.size(), 4u);
  EXPECT_EQ(rec.fired[1], (std::pair<SimTime, std::uint32_t>{0, 1}));
  EXPECT_EQ(rec.fired[2], (std::pair<SimTime, std::uint32_t>{3, 2}));
  EXPECT_EQ(rec.fired.back(), (std::pair<SimTime, std::uint32_t>{kFar, 3}));
}

}  // namespace
}  // namespace woha::sim
