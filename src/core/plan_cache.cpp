#include "core/plan_cache.hpp"

#include <bit>

namespace woha::core {

namespace {

// FNV-1a, matching the digest idiom used by the determinism tests.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

std::uint64_t plan_fingerprint(const wf::WorkflowSpec& spec,
                               std::uint32_t total_slots,
                               JobPriorityPolicy priority, CapPolicy policy,
                               std::uint32_t fixed_cap, double deadline_factor) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(total_slots));
  h.mix(static_cast<std::uint64_t>(priority));
  h.mix(static_cast<std::uint64_t>(policy));
  h.mix(static_cast<std::uint64_t>(fixed_cap));
  h.mix(deadline_factor);
  h.mix(static_cast<std::uint64_t>(spec.relative_deadline));
  h.mix(static_cast<std::uint64_t>(spec.jobs.size()));
  for (const wf::JobSpec& j : spec.jobs) {
    // Job names feed history-based estimators, so two topologically equal
    // workflows with renamed jobs may legitimately plan differently later —
    // keep them apart.
    h.mix(j.name);
    h.mix(static_cast<std::uint64_t>(j.num_maps));
    h.mix(static_cast<std::uint64_t>(j.num_reduces));
    h.mix(static_cast<std::uint64_t>(j.map_duration));
    h.mix(static_cast<std::uint64_t>(j.reduce_duration));
    h.mix(static_cast<std::uint64_t>(j.prerequisites.size()));
    for (const std::uint32_t p : j.prerequisites) {
      h.mix(static_cast<std::uint64_t>(p));
    }
  }
  return h.value();
}

std::shared_ptr<const SchedulingPlan> PlanCache::get_or_compute(
    std::uint64_t key, const std::function<SchedulingPlan()>& compute) {
  analysis::touch_write("plan_cache", analysis_id_, "PlanCache::get_or_compute");
  const auto it = plans_.find(key);
  if (it != plans_.end()) {
    if (it->second.prewarmed) {
      // First claim of a prewarmed entry: without the prewarm this lookup
      // would have computed, so account it as the miss it replaces.
      it->second.prewarmed = false;
      ++misses_;
      return it->second.plan;
    }
    ++hits_;
    return it->second.plan;
  }
  ++misses_;
  auto plan = std::make_shared<const SchedulingPlan>(compute());
  plans_.emplace(key, Entry{plan, /*prewarmed=*/false});
  return plan;
}

void PlanCache::insert(std::uint64_t key,
                       std::shared_ptr<const SchedulingPlan> plan) {
  analysis::touch_write("plan_cache", analysis_id_, "PlanCache::insert");
  if (!plan) return;
  plans_.emplace(key, Entry{std::move(plan), /*prewarmed=*/true});
}

}  // namespace woha::core
