// Core vocabulary types shared by every WOHA subsystem.
//
// Time is modelled as integral milliseconds (`SimTime`). All identifiers are
// strong types so that a WorkflowId cannot be silently passed where a JobId is
// expected; mixing them up was a real hazard while porting the paper's
// pseudo-code, which indexes everything with bare integers.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace woha {

/// Simulated time in milliseconds since the start of the simulation.
using SimTime = std::int64_t;

/// Duration in milliseconds.
using Duration = std::int64_t;

/// Sentinel for "no deadline" / "never".
inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::max();

/// Convenience constructors so workload definitions read like the paper
/// ("relative deadlines are set to 80 minutes, ...").
constexpr Duration ms(std::int64_t v) { return v; }
constexpr Duration seconds(std::int64_t v) { return v * 1000; }
constexpr Duration minutes(std::int64_t v) { return v * 60 * 1000; }
constexpr Duration hours(std::int64_t v) { return v * 60 * 60 * 1000; }

/// CRTP-free strong integer id. `Tag` makes each instantiation a distinct
/// type; the underlying value is only reachable through `value()`.
template <class Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::uint32_t v) : value_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

 private:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t value_ = kInvalid;
};

struct WorkflowTag {};
struct JobTag {};
struct TaskTag {};

/// Identifies one workflow W_i submitted to the cluster.
using WorkflowId = StrongId<WorkflowTag>;
/// Identifies one wjob J_i^j *within* its workflow (dense 0..n_i-1 index).
using JobId = StrongId<JobTag>;
/// Identifies one task attempt.
using TaskId = StrongId<TaskTag>;

/// Map-Reduce slot kind. Hadoop-1 statically partitions each TaskTracker
/// into map slots and reduce slots; a map task can only occupy a map slot.
enum class SlotType : std::uint8_t { kMap, kReduce };

[[nodiscard]] inline const char* to_string(SlotType t) {
  return t == SlotType::kMap ? "map" : "reduce";
}

}  // namespace woha

template <class Tag>
struct std::hash<woha::StrongId<Tag>> {
  std::size_t operator()(const woha::StrongId<Tag>& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
