// A keyed cache of scheduling plans for recurrent workflow submissions.
//
// The paper's evaluation (Fig. 12, "with 3 recurrences") and any production
// Oozie-style coordinator resubmit the *same* DAG with the same estimates
// and the same relative deadline every period. Plan generation — a binary
// search over O(log cap) full Algorithm-1 simulations — is pure in those
// inputs, so recomputing it per instance is wasted client CPU. The cache
// keys on an FNV-1a fingerprint of everything plan generation reads:
//   * every job's task counts, durations, and prerequisite list (and name,
//     since history-based estimators key durations by job name),
//   * the workflow's relative deadline,
//   * the cluster slot total and the cap-policy knobs.
// Workflow *names* and absolute submit times are deliberately excluded:
// instance "daily-report-r7" must hit the entry "daily-report-r1" planted.
//
// Plans are immutable after generation (ProgressTracker reads them through
// a const pointer), so instances share one plan via shared_ptr — a cache
// hit costs one hash-map probe. Determinism: a hit returns a plan
// bit-identical to what recomputation would produce, so cached and
// uncached runs yield identical scheduling decisions (pinned by
// tests/core/plan_cache_test.cpp against the golden digests).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "analysis/race_detector.hpp"
#include "core/job_priority.hpp"
#include "core/plan.hpp"
#include "core/resource_cap.hpp"

namespace woha::core {

/// Fingerprint of every plan-generation input. Two specs with equal
/// fingerprints produce equal plans under equal policy knobs.
[[nodiscard]] std::uint64_t plan_fingerprint(const wf::WorkflowSpec& spec,
                                             std::uint32_t total_slots,
                                             JobPriorityPolicy priority,
                                             CapPolicy policy,
                                             std::uint32_t fixed_cap,
                                             double deadline_factor);

class PlanCache {
 public:
  /// Look `key` up; on a miss, invoke `compute` and remember the result.
  /// The returned plan is shared and immutable.
  [[nodiscard]] std::shared_ptr<const SchedulingPlan> get_or_compute(
      std::uint64_t key, const std::function<SchedulingPlan()>& compute);

  /// Plant a precomputed plan (parallel prewarm). The entry is marked
  /// prewarmed: the first get_or_compute that claims it counts as a *miss*
  /// — the computation did happen, just earlier and off-thread — so the
  /// hit/miss tallies stay bit-identical to a serial, prewarm-free run.
  /// A null plan or an already-present key is ignored.
  void insert(std::uint64_t key, std::shared_ptr<const SchedulingPlan> plan);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return plans_.size(); }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return plans_.count(key) != 0;
  }
  void clear() { plans_.clear(); }

 private:
  struct Entry {
    std::shared_ptr<const SchedulingPlan> plan;
    bool prewarmed = false;
  };

  std::unordered_map<std::uint64_t, Entry> plans_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Race-detector touchpoint instance: the cache is single-writer by
  /// contract (mutations happen on the scheduler thread; prewarm workers
  /// compute plans privately and insert() runs after the pool drains), and
  /// every mutation is annotated so a schedule that breaks that contract
  /// fails the interleaving sweep instead of corrupting the map.
  std::uint64_t analysis_id_ = analysis::new_instance_id();
};

}  // namespace woha::core
