// Indexed queue op-sequences vs the NaiveQueue reference.
//
// The input decodes to a monotone-clock op sequence — insert with a
// byte-derived plan, credit grants and revocations (each zero crossing
// announced as a runnable report, as the JobTracker announces them), map
// and reduce offers with and without a per-offer filter, removals, progress
// losses, ordering snapshots — applied identically to the DSL, BST and
// BSTplain queues and to the naive recompute-everything oracle, which
// ignores the reports and probes every workflow. All Algorithm-2
// implementations must pick the same workflows in the same order and
// expose the same per-type priority orderings (ties break by id, so
// cross-implementation equality is well-defined), and the indexed queues
// must pass check_structure, membership included.
//
// Mutant (WOHA_FUZZ_MUTANT=1): remove() skips the naive oracle, so its
// size and ordering drift — the next comparison must fail.
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler_queue.hpp"
#include "fuzz_util.hpp"

namespace {

using woha::SimTime;
using woha::SlotType;
using woha::core::ProgressTracker;
using woha::core::QueueKind;
using woha::core::SchedulerQueue;
using woha::core::SchedulingPlan;

constexpr std::uint32_t kMaxWorkflows = 8;
constexpr std::size_t kNaive = 3;  ///< index of the oracle in the queue array

SlotType decode_type(woha::fuzz::ByteReader& in) {
  return in.u8() % 2 == 0 ? SlotType::kMap : SlotType::kReduce;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  woha::fuzz::ByteReader in(data, size);

  std::deque<SchedulingPlan> plans;  // must outlive the trackers
  std::array<std::unique_ptr<SchedulerQueue>, 4> queues = {
      woha::core::make_queue(QueueKind::kDsl),
      woha::core::make_queue(QueueKind::kBst),
      woha::core::make_queue(QueueKind::kBstPlain),
      woha::core::make_queue(QueueKind::kNaive),
  };
  std::array<bool, kMaxWorkflows> live{};
  std::array<std::uint64_t, kMaxWorkflows> assigned{};
  // Per-workflow, per-slot-type assignable-task credits: the caller-side
  // state runnable reports and can_use answer from.
  std::array<std::array<std::uint64_t, 2>, kMaxWorkflows> credits{};
  SimTime now = 0;

  const auto runnable = [&credits](std::uint32_t id, SlotType t) {
    return id < kMaxWorkflows && credits[id][static_cast<std::size_t>(t)] > 0;
  };
  const auto announce = [&queues](std::uint32_t id, SlotType t, bool is_runnable) {
    for (auto& q : queues) q->set_runnable(id, t, is_runnable);
  };

  const auto compare_all = [&] {
    const std::size_t expect = queues[kNaive]->size();
    for (const SlotType t : {SlotType::kMap, SlotType::kReduce}) {
      const auto runnable_t = [&runnable, t](std::uint32_t id) {
        return runnable(id, t);
      };
      std::vector<SchedulerQueue::QueueEntry> naive_top;
      queues[kNaive]->top(t, expect, runnable_t, naive_top);
      for (std::size_t q = 0; q < kNaive; ++q) {
        const std::string who = queues[q]->name();
        WOHA_FUZZ_CHECK(queues[q]->size() == expect, who + " size diverged");
        std::vector<SchedulerQueue::QueueEntry> top;
        queues[q]->top(t, expect, runnable_t, top);
        WOHA_FUZZ_CHECK(top.size() == naive_top.size(), who + " top length diverged");
        for (std::size_t i = 0; i < top.size(); ++i) {
          WOHA_FUZZ_CHECK(top[i].id == naive_top[i].id,
                          who + " ordering diverged at position " + std::to_string(i));
          WOHA_FUZZ_CHECK(top[i].lag == naive_top[i].lag,
                          who + " lag diverged for workflow " +
                              std::to_string(top[i].id));
        }
      }
    }
    for (std::size_t q = 0; q < kNaive; ++q) queues[q]->check_structure(runnable);
  };

  while (!in.done()) {
    switch (in.u8() % 8) {
      case 0: {  // insert a new workflow with a byte-derived plan
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        if (live[id]) break;
        SchedulingPlan plan;
        const std::uint32_t steps = 1 + in.u8() % 4;
        const std::int64_t base = 100 * (1 + in.u8() % 4);
        plan.reserve_steps(steps);
        for (std::uint32_t s = 0; s < steps; ++s) {
          // ttd strictly descending, cumulative requirement ascending.
          const std::int64_t ttd = base - (base / (steps + 1)) * s;
          plan.append_step(ttd, 1 + 2 * s + in.u8() % 3);
        }
        plan.simulated_makespan = plan.step_ttd(0);
        plans.push_back(std::move(plan));
        const SimTime deadline = now + 50 + 10 * (in.u8() % 40);
        for (auto& q : queues) q->insert(id, ProgressTracker(&plans.back(), deadline));
        live[id] = true;
        assigned[id] = 0;
        credits[id] = {};  // a fresh workflow has nothing runnable yet
        break;
      }
      case 1: {  // grant credits; announce the 0 -> n crossing
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        const SlotType t = decode_type(in);
        const std::uint64_t n = 1 + in.u8() % 3;
        if (!live[id]) break;
        if (!runnable(id, t)) announce(id, t, true);
        credits[id][static_cast<std::size_t>(t)] += n;
        break;
      }
      case 2: {  // offer a slot: all implementations must pick identically
        const SlotType t = decode_type(in);
        const std::uint8_t mask = in.u8();
        // Odd masks filter the offer (a tracker's blacklist): bit id blocks.
        const std::uint8_t blocked = (mask & 1) != 0 ? mask : 0;
        const std::function<bool(std::uint32_t)> can_use = [&](std::uint32_t id) {
          return runnable(id, t) && ((blocked >> id) & 1) == 0;
        };
        std::array<std::uint32_t, 4> picks{};
        for (std::size_t q = 0; q < queues.size(); ++q) {
          picks[q] = queues[q]->assign(now, t, can_use);
        }
        for (std::size_t q = 0; q < kNaive; ++q) {
          WOHA_FUZZ_CHECK(picks[q] == picks[kNaive],
                          queues[q]->name() + " pick diverged from naive");
        }
        const std::uint32_t pick = picks[kNaive];
        if (pick != SchedulerQueue::kNone) {
          WOHA_FUZZ_CHECK(can_use(pick), "picked a workflow that cannot use the slot");
          if (--credits[pick][static_cast<std::size_t>(t)] == 0) announce(pick, t, false);
          ++assigned[pick];
        }
        break;
      }
      case 3: {  // remove a finished workflow
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        if (!live[id]) break;
        for (std::size_t q = 0; q < queues.size(); ++q) {
          // Mutant: the naive oracle keeps the workflow — sizes and
          // orderings must be caught diverging by the next comparison.
          if (woha::fuzz::mutant() && q == kNaive) continue;
          queues[q]->remove(id);
        }
        live[id] = false;
        break;
      }
      case 4: {  // progress regression (tracker crash returning tasks)
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        const std::uint64_t lost =
            std::min<std::uint64_t>(1 + in.u8() % 2, assigned[id]);
        if (!live[id] || lost == 0) break;
        for (auto& q : queues) q->on_progress_lost(id, lost);
        assigned[id] -= lost;
        break;
      }
      case 5:  // advance the monotone clock
        now += 1 + in.u8();
        break;
      case 6:
        compare_all();
        break;
      case 7: {  // revoke: the workflow's tasks of one type go away
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        const SlotType t = decode_type(in);
        if (!live[id] || !runnable(id, t)) break;
        credits[id][static_cast<std::size_t>(t)] = 0;
        announce(id, t, false);
        break;
      }
    }
    for (std::size_t q = 0; q < kNaive; ++q) {
      WOHA_FUZZ_CHECK(queues[q]->size() == queues[kNaive]->size(),
                      queues[q]->name() + " size diverged");
    }
  }

  compare_all();
  return 0;
}
