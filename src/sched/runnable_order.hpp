// The ordering Fair, EDF and EDF-JOB consult. Per slot type it holds the
// entries the JobTracker reports runnable (workflows with available_jobs(t)
// > 0 for Fair and EDF, jobs with has_available(t) for EDF-JOB) under a
// per-policy key. Each slot type's order is one flat sorted array: a
// consult walks it from the head, a runnable flip inserts or erases one key
// (a binary search and a shift of the tail), and a key whose score moves
// (Fair's running-task count) is re-keyed by shifting only the entries
// between its old and its new position.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "obs/event.hpp"

namespace woha::sched {

/// An entry's place: the policy's score first (Fair: running tasks; EDF:
/// the workflow deadline; EDF-JOB: the job's virtual deadline), then the
/// workflow id, then the job (kNoJob in the workflow-level orders).
struct RunnableKey {
  std::int64_t score = 0;
  std::uint32_t workflow = 0;
  std::uint32_t job = obs::SchedulerDecision::kNoJob;
  friend constexpr auto operator<=>(const RunnableKey&, const RunnableKey&) = default;
};

class RunnableOrder {
 public:
  /// Slot type t's entries, lowest key first.
  [[nodiscard]] std::span<const RunnableKey> walk(SlotType t) const {
    return keys_[static_cast<std::size_t>(t)];
  }

  /// Enter `key` into t's order; throws std::logic_error if it is there.
  void insert(SlotType t, const RunnableKey& key) {
    std::vector<RunnableKey>& keys = keys_[static_cast<std::size_t>(t)];
    const auto at = std::ranges::lower_bound(keys, key);
    if (at != keys.end() && *at == key) throw std::logic_error("RunnableOrder: key held");
    keys.insert(at, key);
  }

  /// Take `key` out of t's order; throws std::logic_error if it is not there.
  void erase(SlotType t, const RunnableKey& key) {
    std::vector<RunnableKey>& keys = keys_[static_cast<std::size_t>(t)];
    keys.erase(find(keys, key));
  }

  /// Replace `from` with `to` in t's order, shifting the entries between
  /// their two positions by one place. Throws std::logic_error, changing
  /// nothing, if `from` is not there. `to` must not be there (keys carry
  /// the workflow id, so only `from` can share its workflow).
  void rekey(SlotType t, const RunnableKey& from, const RunnableKey& to) {
    std::vector<RunnableKey>& keys = keys_[static_cast<std::size_t>(t)];
    const auto at = find(keys, from);
    if (from < to) {
      const auto end = std::lower_bound(at + 1, keys.end(), to);
      *std::move(at + 1, end, at) = to;
    } else {
      const auto begin = std::lower_bound(keys.begin(), at, to);
      std::move_backward(begin, at, at + 1);
      *begin = to;
    }
  }

  /// Append t's first entries to an empty decision ranking, at most
  /// obs::kMaxRankedCandidates, each scored by its key's score.
  void rank(SlotType t, std::vector<obs::SchedulerDecision::Candidate>& ranking) const {
    for (const RunnableKey& key : walk(t)) {
      if (ranking.size() == obs::kMaxRankedCandidates) return;
      ranking.push_back({key.workflow, key.job, key.score, 0, 0});
    }
  }

 private:
  static std::vector<RunnableKey>::iterator find(std::vector<RunnableKey>& keys,
                                                 const RunnableKey& key) {
    const auto at = std::ranges::lower_bound(keys, key);
    if (at == keys.end() || *at != key) {
      throw std::logic_error("RunnableOrder: key not held");
    }
    return at;
  }

  std::vector<RunnableKey> keys_[2];
};

}  // namespace woha::sched
