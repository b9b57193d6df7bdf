#include "trace/scale_workload.hpp"

#include <algorithm>
#include <iterator>

#include "trace/paper_workloads.hpp"

namespace woha::trace {

std::vector<wf::WorkflowSpec> scale_workload(std::uint32_t trackers,
                                             std::uint64_t seed) {
  const std::uint32_t replicas = std::max<std::uint32_t>(1, trackers / 80);
  // Every replica has as many workflows as replica 0, so one reservation
  // holds them all. Growing the reservation by one replica per pass would
  // reallocate on every pass and make generation quadratic in `replicas`.
  std::vector<wf::WorkflowSpec> out = fig8_trace(seed);
  out.reserve(std::size_t{replicas} * out.size());
  for (std::uint32_t r = 1; r < replicas; ++r) {
    auto part = fig8_trace(seed + r);
    std::move(part.begin(), part.end(), std::back_inserter(out));
  }
  return out;
}

}  // namespace woha::trace
