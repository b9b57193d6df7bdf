// The indexed queues (DSL, BST and BSTplain: one template over three
// orderings) against NaiveQueue, the index-free reference that ignores
// runnable reports and probes every queued workflow.
//
// The fuzz drives both through one availability model (per-workflow, per-
// slot-type task credits) that announces each zero crossing as a runnable
// report, exactly as the JobTracker does for WOHA. It interleaves grants,
// revocations, progress losses, remove/reinsert churn, and runs of offers
// at one instant (unfiltered, and filtered the way blacklisting filters),
// and requires the same picks, the same per-type orderings, and a clean
// check_structure — membership included — after every round. A shared-plan
// variant makes equal-lag ties the common case.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/scheduler_queue.hpp"

namespace woha::core {
namespace {

constexpr SlotType kTypes[] = {SlotType::kMap, SlotType::kReduce};

/// Per-workflow assignable-task credits per slot type, announcing every
/// zero crossing to the queues as a runnable report.
class AvailabilityModel {
 public:
  explicit AvailabilityModel(std::vector<SchedulerQueue*> queues)
      : queues_(std::move(queues)) {}

  void add_workflow(std::uint32_t id) {
    if (credits_.size() <= id) credits_.resize(id + 1);
    credits_[id] = {};
  }

  [[nodiscard]] bool runnable(std::uint32_t id, SlotType t) const {
    return id < credits_.size() && credits_[id][index(t)] > 0;
  }

  void grant(std::uint32_t id, SlotType t, std::uint64_t n) {
    const bool was = runnable(id, t);
    credits_[id][index(t)] += n;
    if (!was && n > 0) announce(id, t, true);
  }

  void consume(std::uint32_t id, SlotType t) {
    ASSERT_TRUE(runnable(id, t)) << "picked workflow " << id << " without credits";
    if (--credits_[id][index(t)] == 0) announce(id, t, false);
  }

  void revoke(std::uint32_t id, SlotType t) {
    if (!runnable(id, t)) return;
    credits_[id][index(t)] = 0;
    announce(id, t, false);
  }

  /// A reinserted workflow starts unannounced: report what it has.
  void reannounce(std::uint32_t id) {
    for (const SlotType t : kTypes) {
      if (runnable(id, t)) announce(id, t, true);
    }
  }

 private:
  static std::size_t index(SlotType t) { return static_cast<std::size_t>(t); }
  void announce(std::uint32_t id, SlotType t, bool runnable) {
    for (SchedulerQueue* q : queues_) q->set_runnable(id, t, runnable);
  }

  std::vector<SchedulerQueue*> queues_;
  std::vector<std::array<std::uint64_t, 2>> credits_;
};

class QueueFuzzTest : public ::testing::TestWithParam<QueueKind> {
 protected:
  // Plans must outlive ProgressTrackers; deque keeps addresses stable.
  std::deque<SchedulingPlan> plans_;

  const SchedulingPlan* shared_plan() {
    if (plans_.empty()) {
      SchedulingPlan plan;
      for (Duration ttd = 400; ttd > 0; ttd -= 40) {
        plan.append_step(ttd, static_cast<std::uint64_t>((400 - ttd) / 40 + 1));
      }
      plan.simulated_makespan = plan.step_ttd(0);
      plans_.push_back(std::move(plan));
    }
    return &plans_.front();
  }

  const SchedulingPlan* random_plan(Rng& rng) {
    SchedulingPlan plan;
    Duration ttd = rng.uniform_int(50, 400);
    std::uint64_t cum = 0;
    const int n_steps = static_cast<int>(rng.uniform_int(1, 8));
    for (int s = 0; s < n_steps; ++s) {
      cum += static_cast<std::uint64_t>(rng.uniform_int(1, 9));
      plan.append_step(ttd, cum);
      ttd -= rng.uniform_int(5, 40);
      if (ttd <= 0) break;
    }
    plan.simulated_makespan = plan.step_ttd(0);
    plans_.push_back(std::move(plan));
    return &plans_.back();
  }

  static void expect_same_orderings(const SchedulerQueue& indexed,
                                    const SchedulerQueue& naive,
                                    const AvailabilityModel& model, SimTime now) {
    ASSERT_EQ(indexed.size(), naive.size()) << "t=" << now;
    for (const SlotType t : kTypes) {
      const auto runnable = [&model, t](std::uint32_t id) {
        return model.runnable(id, t);
      };
      std::vector<SchedulerQueue::QueueEntry> got, want;
      indexed.top(t, indexed.size(), runnable, got);
      naive.top(t, naive.size(), runnable, want);
      ASSERT_EQ(got.size(), want.size()) << to_string(t) << " t=" << now;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id) << to_string(t) << " position " << i;
        ASSERT_EQ(got[i].lag, want[i].lag) << to_string(t) << " position " << i;
        ASSERT_EQ(got[i].rho, want[i].rho) << to_string(t) << " position " << i;
      }
    }
  }

  /// `shared_plan` switches between random per-workflow plans (general
  /// case) and one plan for everybody (every comparison ties).
  void run_fuzz(std::uint64_t seed, bool shared) {
    Rng rng(seed);
    const auto indexed = make_queue(GetParam());
    const auto naive = make_queue(QueueKind::kNaive);
    AvailabilityModel model({indexed.get(), naive.get()});
    const auto check = [&](int round) {
      ASSERT_NO_THROW(indexed->check_structure(
          [&model](std::uint32_t id, SlotType t) { return model.runnable(id, t); }))
          << "round " << round;
    };

    const auto n_workflows = static_cast<std::uint32_t>(rng.uniform_int(3, 16));
    const SimTime fixed_deadline = shared ? 400 : 0;
    const auto deadline_at = [&](SimTime now) {
      return fixed_deadline > 0 ? fixed_deadline : now + rng.uniform_int(100, 500);
    };
    for (std::uint32_t w = 0; w < n_workflows; ++w) {
      const SchedulingPlan* plan = shared ? shared_plan() : random_plan(rng);
      const SimTime deadline = deadline_at(0);
      for (auto* q : {indexed.get(), naive.get()}) {
        q->insert(w, ProgressTracker(plan, deadline));
      }
      model.add_workflow(w);
      for (const SlotType t : kTypes) {
        model.grant(w, t, static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
      }
    }
    check(-1);

    SimTime now = 0;
    for (int round = 0; round < 160; ++round) {
      now += rng.uniform_int(0, 10);
      const std::uint64_t dice = rng.next();
      const auto pick_id = [&] {
        return static_cast<std::uint32_t>(rng.uniform_int(0, n_workflows - 1));
      };
      const auto pick_type = [&] {
        return rng.uniform_int(0, 1) == 0 ? SlotType::kMap : SlotType::kReduce;
      };

      // Grants: tasks become assignable (a job activates, a map phase
      // completes, a failed attempt is requeued).
      if ((dice & 3) != 0) {
        const std::uint32_t id = pick_id();
        const SlotType t = pick_type();
        model.grant(id, t, static_cast<std::uint64_t>(rng.uniform_int(1, 3)));
      }
      // Revocations: a workflow's tasks of one type go away outside the
      // queue (its job fails, the workflow is shed).
      if ((dice & 15) == 6) {
        const std::uint32_t id = pick_id();
        model.revoke(id, pick_type());
      }
      // Progress loss: rho regresses and the lost tasks re-enter the pool.
      if ((dice & 15) == 1) {
        const std::uint32_t id = pick_id();
        const SlotType t = pick_type();
        for (auto* q : {indexed.get(), naive.get()}) q->on_progress_lost(id, 2);
        model.grant(id, t, 2);
      }
      // Churn: remove + reinsert resets rho to zero; the fresh insert must
      // rejoin the orderings through its reports alone.
      if ((dice & 63) == 2) {
        const std::uint32_t id = pick_id();
        const SchedulingPlan* plan = shared ? shared_plan() : random_plan(rng);
        const SimTime deadline = deadline_at(now);
        for (auto* q : {indexed.get(), naive.get()}) {
          q->remove(id);
          q->insert(id, ProgressTracker(plan, deadline));
        }
        model.reannounce(id);
      }

      // A run of offers of one type at this instant, like one heartbeat's
      // free slots. A quarter of them filter out some workflows, as a
      // tracker's blacklist does.
      const SlotType t = pick_type();
      const std::uint64_t blocked = (dice & 0x300) == 0 ? rng.next() : 0;
      const std::function<bool(std::uint32_t)> can_use = [&](std::uint32_t id) {
        return model.runnable(id, t) && ((blocked >> (id % 64)) & 1) == 0;
      };
      const auto k = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < k; ++i) {
        const std::uint32_t want = naive->assign(now, t, can_use);
        ASSERT_EQ(indexed->assign(now, t, can_use), want)
            << "round " << round << " t=" << now << " offer " << i;
        if (want == SchedulerQueue::kNone) break;
        model.consume(want, t);
      }

      check(round);
      if ((dice & 7) == 5) expect_same_orderings(*indexed, *naive, model, now);
    }
    expect_same_orderings(*indexed, *naive, model, now);
  }
};

TEST_P(QueueFuzzTest, MatchesNaiveUnderFuzz) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_fuzz(seed, /*shared=*/false);
    plans_.clear();
  }
}

TEST_P(QueueFuzzTest, MatchesNaiveWhenEveryLagTies) {
  for (std::uint64_t seed = 100; seed <= 108; ++seed) {
    run_fuzz(seed, /*shared=*/true);
    plans_.clear();
  }
}

TEST_P(QueueFuzzTest, UnfilteredOfferTakesTheHeadOfItsTypeOrdering) {
  const auto queue = make_queue(GetParam());
  const SchedulingPlan* plan = shared_plan();
  for (std::uint32_t id : {1u, 2u, 3u}) queue->insert(id, ProgressTracker(plan, 400));
  // Equal lags, so id order: 1 first. Only 2 and 3 are runnable for maps,
  // only 1 for reduces.
  queue->set_runnable(2, SlotType::kMap, true);
  queue->set_runnable(3, SlotType::kMap, true);
  queue->set_runnable(1, SlotType::kReduce, true);
  std::vector<std::uint32_t> probed;
  const auto accept = [&probed](std::uint32_t id) {
    probed.push_back(id);
    return true;
  };
  EXPECT_EQ(queue->assign(0, SlotType::kMap, accept), 2u);
  EXPECT_EQ(probed, (std::vector<std::uint32_t>{2}));  // the head, nothing else
  EXPECT_EQ(queue->assign(0, SlotType::kReduce, accept), 1u);
  // A filtered offer walks the map ordering only: 1 is never probed there.
  probed.clear();
  const auto not_3 = [&probed](std::uint32_t id) {
    probed.push_back(id);
    return id != 3;
  };
  EXPECT_EQ(queue->assign(0, SlotType::kMap, not_3), 2u);
  EXPECT_EQ(probed, (std::vector<std::uint32_t>{3, 2}));
  probed.clear();
  queue->set_runnable(2, SlotType::kMap, false);
  EXPECT_EQ(queue->assign(0, SlotType::kMap, not_3), SchedulerQueue::kNone);
  EXPECT_EQ(probed, (std::vector<std::uint32_t>{3}));
  ASSERT_NO_THROW(queue->check_structure());
}

TEST_P(QueueFuzzTest, APickRepositionsTheWinnerInBothOrderings) {
  const auto queue = make_queue(GetParam());
  const SchedulingPlan* plan = shared_plan();
  for (std::uint32_t id : {1u, 2u}) {
    queue->insert(id, ProgressTracker(plan, 400));
    for (const SlotType t : kTypes) queue->set_runnable(id, t, true);
  }
  const auto all = [](std::uint32_t) { return true; };
  // Workflow 1 wins a map slot on the id tie-break; its lag drops, so it
  // must fall behind 2 in the reduce ordering as well.
  EXPECT_EQ(queue->assign(0, SlotType::kMap, all), 1u);
  std::vector<SchedulerQueue::QueueEntry> reduce;
  queue->top(SlotType::kReduce, 2, all, reduce);
  ASSERT_EQ(reduce.size(), 2u);
  EXPECT_EQ(reduce[0].id, 2u);
  EXPECT_EQ(reduce[1].id, 1u);
  EXPECT_EQ(queue->assign(0, SlotType::kReduce, all), 2u);
  ASSERT_NO_THROW(queue->check_structure());
}

INSTANTIATE_TEST_SUITE_P(Kinds, QueueFuzzTest,
                         ::testing::Values(QueueKind::kDsl, QueueKind::kBst,
                                           QueueKind::kBstPlain),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace woha::core
