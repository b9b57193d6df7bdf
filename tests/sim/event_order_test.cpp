// Differential test of the event core's firing order.
//
// Seeded random scripts run against the production core and against a
// small reference that states the ordering contract directly: one priority
// queue over (time, seq), a set of cancelled seqs that are skipped without
// counting or moving the clock, and beats re-armed one period later under a
// seq taken after their handler returns. Both must fire the same sequence,
// count the same events and report the same now() after every stop.
//
// The scripts schedule same-tick children from inside handlers (at now()
// too), put events on both sides of a bucket edge, of the ring's reach and
// of a ring wrap, exactly one ring span after another pending event, and two
// to three spans out in the far heap. They join trackers mid-run, cancel
// pending and already-fired events, and stop both on a horizon and after a
// step budget that can land between two events of one tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace woha::sim {
namespace {

constexpr SimTime kWidth = Simulation::kBucketWidth;
constexpr SimTime kSpan = Simulation::kRingSpan;

/// One firing: a labelled one-shot event or a tracker's beat.
struct Fired {
  SimTime time = 0;
  bool beat = false;
  std::uint64_t id = 0;  ///< event label or tracker
  bool operator==(const Fired&) const = default;
};

/// Receives the firings of a core.
class Sink {
 public:
  virtual void on_event(std::uint64_t label) = 0;
  virtual void on_beat(std::uint32_t tracker) = 0;

 protected:
  ~Sink() = default;
};

/// What a script asks of an event core. Labels are handed out 0, 1, 2, ...
/// in scheduling order.
class Core {
 public:
  virtual ~Core() = default;
  [[nodiscard]] virtual SimTime now() const = 0;
  [[nodiscard]] virtual std::uint64_t events_fired() const = 0;
  virtual void schedule(SimTime when, std::uint64_t label) = 0;
  virtual void cancel(std::uint64_t label) = 0;
  virtual void add_beat(std::uint32_t tracker, SimTime first) = 0;
  virtual bool step(SimTime until) = 0;
};

// --- the reference ------------------------------------------------------------

class Reference final : public Core {
 public:
  Reference(Duration period, Sink& sink) : period_(period), sink_(sink) {}

  [[nodiscard]] SimTime now() const override { return now_; }
  [[nodiscard]] std::uint64_t events_fired() const override { return fired_; }
  void schedule(SimTime when, std::uint64_t label) override {
    seq_of_.resize(label + 1);
    seq_of_[label] = next_seq_;
    queue_.push({when, next_seq_++, false, label});
  }
  void cancel(std::uint64_t label) override { cancelled_.insert(seq_of_.at(label)); }
  void add_beat(std::uint32_t tracker, SimTime first) override {
    queue_.push({first, next_seq_++, true, tracker});
  }
  bool step(SimTime until) override {
    while (!queue_.empty() && queue_.top().time <= until) {
      const Entry e = queue_.top();
      queue_.pop();
      if (cancelled_.contains(e.seq)) continue;
      now_ = e.time;
      ++fired_;
      if (!e.beat) {
        sink_.on_event(e.id);
        return true;
      }
      sink_.on_beat(static_cast<std::uint32_t>(e.id));
      queue_.push({e.time + period_, next_seq_++, true, e.id});
      return true;
    }
    return false;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    bool beat;
    std::uint64_t id;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  Duration period_;
  Sink& sink_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::set<std::uint64_t> cancelled_;
  std::vector<std::uint64_t> seq_of_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

// --- the production core, driven through the script's interface --------------

class Production final : public Core {
 public:
  Production(Duration period, Sink& sink) : sink_(sink), sim_(period) {}

  [[nodiscard]] SimTime now() const override { return sim_.now(); }
  [[nodiscard]] std::uint64_t events_fired() const override {
    return sim_.events_fired();
  }
  void schedule(SimTime when, std::uint64_t label) override {
    sim_.schedule_at(when, 0, 0, label);
  }
  void cancel(std::uint64_t label) override { cancelled_.insert(label); }
  void add_beat(std::uint32_t tracker, SimTime first) override {
    sim_.add_beat(tracker, first);
  }
  bool step(SimTime until) override { return sim_.step(until, *this); }

  // The dispatcher: labels ride in `b`, and a cancelled label is dropped at
  // pop time.
  void heartbeat(std::uint32_t tracker) { sink_.on_beat(tracker); }
  [[nodiscard]] bool live(const Event& ev) const { return !cancelled_.contains(ev.b); }
  void fire(const Event& ev) { sink_.on_event(ev.b); }

 private:
  Sink& sink_;
  Simulation sim_;
  std::set<std::uint64_t> cancelled_;
};

// --- scripts --------------------------------------------------------------------

/// splitmix64: a self-contained stream, so the script owns all its draws.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// Beat periods below, at and above one bucket, up to three beats per ring span.
constexpr Duration kPeriods[] = {1000, kWidth, 4096, 65536, 70001, 7, kSpan / 3 + 1};
constexpr std::uint32_t kMaxTrackers = 8;
constexpr std::uint64_t kMaxEvents = 400;

/// Decides what each firing does. Draws are taken in firing order, so two
/// cores that fire alike replay the same script.
class Script final : public Sink {
 public:
  explicit Script(std::uint64_t seed)
      : draws_(seed), period_(kPeriods[draws_.below(std::size(kPeriods))]) {}

  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] const std::vector<Fired>& fired() const { return fired_; }
  /// Last time anything may fire: about five ring spans, or 300 beat
  /// periods for a period too short to cross them.
  [[nodiscard]] SimTime horizon() const {
    return std::min<SimTime>(5 * kSpan + 321, 300 * period_);
  }

  /// Initial events, then the first beats (staggered over one period like
  /// the engine's), then more initial events.
  void start(Core& core) {
    core_ = &core;
    for (int i = 0; i < 12; ++i) schedule_at(initial_time());
    const auto trackers = static_cast<std::uint32_t>(1 + draws_.below(4));
    for (std::uint32_t t = 0; t < trackers; ++t) {
      core.add_beat(t, static_cast<SimTime>(t) * period_ / trackers);
    }
    trackers_ = trackers;
    for (int i = 0; i < 12; ++i) schedule_at(initial_time());
  }

  void on_event(std::uint64_t label) override {
    fired_.push_back({core_->now(), false, label});
    const std::uint64_t children = draws_.below(4);
    for (std::uint64_t c = 0; c < children; ++c) schedule_at(child_time());
    if (draws_.below(4) == 0 && next_label_ > 0) core_->cancel(draws_.below(next_label_));
    if (draws_.below(16) == 0) join();
  }

  void on_beat(std::uint32_t tracker) override {
    fired_.push_back({core_->now(), true, tracker});
    const std::uint64_t r = draws_.below(12);
    if (r == 0) schedule_at(core_->now() + period_);  // the beat's own re-arm tick
    if (r == 1) schedule_at(core_->now());
    if (r == 2) schedule_at(child_time());
    if (draws_.below(64) == 0) join();
  }

 private:
  /// -1, 0 or +1 ms.
  SimTime off_by_one() { return static_cast<SimTime>(draws_.below(3)) - 1; }

  SimTime initial_time() {
    switch (draws_.below(6)) {
      case 0:
        return 0;
      case 1:
        return static_cast<SimTime>(draws_.below(static_cast<std::uint64_t>(period_)));
      case 2:
        return kWidth + off_by_one();
      case 3:
        return kSpan + off_by_one();
      case 4:
        return span_after_earlier();
      default:
        return static_cast<SimTime>(draws_.below(3 * kSpan));
    }
  }

  SimTime child_time() {
    const SimTime now = core_->now();
    switch (draws_.below(14)) {
      case 0:
      case 1:
        return now;
      case 2:
        return now + 1;
      case 3:
        return now + 1 + static_cast<SimTime>(draws_.below(50));
      case 4:
        return now + period_;
      case 5:
        return now + static_cast<SimTime>(draws_.below(4000));
      case 6:
        return (now / kWidth + 1) * kWidth + off_by_one();  // a bucket edge
      case 7:
        return now + kWidth + off_by_one();
      case 8:
        return now + kSpan + off_by_one();  // the ring's reach
      case 9:
        return (now / kSpan + 1) * kSpan + off_by_one();  // a ring-slot wrap
      case 10:
        return now + kSpan + kWidth + off_by_one();  // the first far bucket
      case 11:
        return span_after_earlier();
      case 12:
        return now + 2 * kSpan + static_cast<SimTime>(draws_.below(kSpan));
      default:
        return now + 3 * kSpan - 2;
    }
  }

  /// About one ring span after an event already scheduled, so that the far
  /// heap holds it when that event's bucket becomes current.
  SimTime span_after_earlier() {
    const SimTime earlier = times_.empty() ? 0 : times_[draws_.below(times_.size())];
    return std::max(core_->now(), earlier + kSpan + off_by_one());
  }

  void schedule_at(SimTime when) {
    if (next_label_ >= kMaxEvents) return;
    times_.push_back(when);
    core_->schedule(when, next_label_++);
  }

  void join() {
    if (trackers_ >= kMaxTrackers) return;
    core_->add_beat(trackers_++, core_->now() + period_);
  }

  Draws draws_;
  Duration period_;
  Core* core_ = nullptr;
  std::vector<Fired> fired_;
  std::vector<SimTime> times_;  // by label
  std::uint64_t next_label_ = 0;
  std::uint32_t trackers_ = 0;
};

/// Where a run stopped: after a horizon, or after a step budget.
struct Stop {
  SimTime now = 0;
  std::uint64_t fired = 0;
  bool operator==(const Stop&) const = default;
};

struct Outcome {
  std::vector<Fired> fired;
  std::vector<Stop> stops;
};

template <typename CoreType>
Outcome run_script(std::uint64_t seed) {
  Script script(seed);
  CoreType core(script.period(), script);
  script.start(core);
  // Stops come from their own stream, so they do not shift the script's.
  Draws stop_draws(seed ^ 0x5eedULL);
  const SimTime end = script.horizon();
  const auto draw_below = [&stop_draws](SimTime n) {
    return static_cast<SimTime>(stop_draws.below(static_cast<std::uint64_t>(n)));
  };
  Outcome out;
  SimTime horizon = 0;
  for (int round = 0; round < 6; ++round) {
    SimTime next = 0;
    switch (stop_draws.below(4)) {
      case 0:  // a beat tick: every event of that tick fires, none after
        next = draw_below(end / script.period() + 1) * script.period();
        break;
      case 1:  // next to a bucket edge
        next = (1 + draw_below(end / kWidth)) * kWidth - 1 + draw_below(3);
        break;
      case 2:  // next to a ring-span edge
        next = (1 + draw_below(5)) * kSpan - 1 + draw_below(3);
        break;
      default:
        next = draw_below(end);
        break;
    }
    horizon = std::min(std::max(horizon, next), end);
    while (core.step(horizon)) {
    }
    out.stops.push_back({core.now(), core.events_fired()});
    // A step budget: may stop between two events of one tick.
    const std::uint64_t budget = stop_draws.below(40);
    for (std::uint64_t s = 0; s < budget && core.step(end); ++s) {
    }
    out.stops.push_back({core.now(), core.events_fired()});
  }
  while (core.step(end)) {
  }
  out.stops.push_back({core.now(), core.events_fired()});
  out.fired = script.fired();
  return out;
}

TEST(EventOrder, ProductionCoreMatchesReferenceOnRandomScripts) {
  constexpr std::uint64_t kSeeds = 256;
  std::uint64_t fired_total = 0;
  std::uint64_t beyond_two_spans = 0;
  std::uint64_t same_tick_pairs = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Outcome want = run_script<Reference>(seed);
    const Outcome got = run_script<Production>(seed);
    ASSERT_EQ(got.stops, want.stops) << "seed " << seed;
    ASSERT_EQ(got.fired.size(), want.fired.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.fired.size(); ++i) {
      ASSERT_EQ(got.fired[i], want.fired[i]) << "seed " << seed << ", firing " << i;
    }
    fired_total += want.fired.size();
    for (std::size_t i = 0; i < want.fired.size(); ++i) {
      beyond_two_spans += want.fired[i].time >= 2 * kSpan;
      same_tick_pairs += i > 0 && want.fired[i].time == want.fired[i - 1].time;
    }
  }
  // The scripts really exercise what they are meant to.
  EXPECT_GT(fired_total, 100'000u);
  EXPECT_GT(beyond_two_spans, 10'000u);
  EXPECT_GT(same_tick_pairs, 1'000u);
}

TEST(EventOrder, ReferenceStatesTheContract) {
  // Pins both cores on a hand-checked script: ties break by scheduling
  // order, a cancelled event neither fires nor counts, a beat's re-arm
  // comes after what its handler scheduled for the same tick, and a horizon
  // stop leaves now() at the last firing.
  struct Recorder final : Sink {
    Core* core = nullptr;
    std::vector<Fired> fired;
    void on_event(std::uint64_t label) override {
      fired.push_back({core->now(), false, label});
    }
    void on_beat(std::uint32_t tracker) override {
      fired.push_back({core->now(), true, tracker});
      if (fired.size() == 2) core->schedule(core->now() + 10, 3);
    }
  };
  for (const bool production : {false, true}) {
    Recorder rec;
    Reference reference(10, rec);
    Production prod(10, rec);
    Core& core = production ? static_cast<Core&>(prod) : static_cast<Core&>(reference);
    rec.core = &core;
    core.schedule(5, 0);
    core.schedule(5, 1);
    core.schedule(7, 2);
    core.add_beat(0, 5);
    core.cancel(1);
    while (core.step(20)) {
    }
    EXPECT_EQ(core.now(), 15);  // the last firing, not the horizon
    EXPECT_EQ(core.events_fired(), 5u);
    while (core.step(25)) {
    }
    EXPECT_EQ(core.now(), 25);
    const std::vector<Fired> want = {{5, false, 0}, {5, true, 0},  {7, false, 2},
                                     {15, false, 3}, {15, true, 0}, {25, true, 0}};
    EXPECT_EQ(rec.fired, want) << (production ? "production" : "reference");
  }
}

}  // namespace
}  // namespace woha::sim
