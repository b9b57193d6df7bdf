// Frozen workload for master-scalability experiments. Shared between
// bench/scale_cluster.cpp and the scale-determinism regression tests so the
// pinned metric digests and the published wall-clock numbers describe the
// exact same runs.
#pragma once

#include <cstdint>
#include <vector>

#include "workflow/workflow.hpp"

namespace woha::trace {

/// Seed every scale experiment uses unless it is deliberately varying it.
inline constexpr std::uint64_t kScaleWorkloadSeed = 42;

/// One fig8_trace replica (46 workflows, 165 jobs) per 80 trackers, replica
/// r drawn with `seed + r`. Offered load grows with the slot pool, so the
/// cluster stays saturated at every size and select_task cost is measured
/// under pressure, not on an idle queue. Do not change this recipe: the
/// scale-determinism goldens and the numbers in EXPERIMENTS.md depend on it
/// (ScaleWorkload.* in tests/trace pins it against fig8_trace directly).
/// Generation is linear in the replica count: the output is reserved once
/// and each replica is moved in.
[[nodiscard]] std::vector<wf::WorkflowSpec> scale_workload(
    std::uint32_t trackers, std::uint64_t seed = kScaleWorkloadSeed);

}  // namespace woha::trace
