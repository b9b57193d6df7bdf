// Determinism under the full overload + elasticity surface at once: open-loop
// arrivals past saturation (rho = 1.3), deadline-aware shedding, MTBF node
// churn, speculation, and duration jitter — for all six paper schedulers,
// with the invariant auditor attached. Two guarantees are pinned:
//
//  * a golden FNV digest over every deterministic summary field including
//    the new admission/elasticity counters (any decision drift anywhere in
//    the overload machinery flips it), and
//  * bit-identical results between the serial grid runner and a parallel
//    one (--jobs N must never change a scheduling decision).
//
// Refresh goldens only after an intentional semantic change, via:
//   WOHA_PRINT_GOLDENS=1 ./build/tests/integration_tests
//       --gtest_filter='OverloadDeterminism.*'
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/grid.hpp"
#include "overload_scenario.hpp"

namespace woha {
namespace {

using testing::digest_overload;
using testing::overload_grid;
using testing::overload_workload;

bool print_goldens() { return std::getenv("WOHA_PRINT_GOLDENS") != nullptr; }

void check_digest(const char* label, std::uint64_t got, std::uint64_t want) {
  if (print_goldens()) {
    std::printf("golden %-24s 0x%016llxull\n", label,
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, want) << label
                       << ": a deterministic overload/elasticity metric "
                          "changed. See the file comment before refreshing.";
}

TEST(OverloadDeterminism, ChaosOverloadSnapshotSerialEqualsParallel) {
  const auto workload = overload_workload();
  const auto grid = overload_grid(workload);

  metrics::GridOptions serial;
  serial.jobs = 1;
  const auto serial_results = metrics::run_grid(grid, serial);

  // The config must actually exercise every overload path, otherwise this
  // degrades into the plain chaos test.
  std::uint64_t shed = 0, crashes = 0, spec_launched = 0;
  std::uint32_t pending_peak = 0;
  for (const auto& r : serial_results) {
    shed += r.summary.workflows_shed;
    crashes += r.summary.tracker_crashes;
    spec_launched += r.summary.speculative_launched;
    pending_peak = std::max(pending_peak, r.summary.pending_peak);
    EXPECT_EQ(r.summary.workflows_submitted, 12u);
    // The budget held for every scheduler (the auditor also asserts this on
    // every sweep, against engine ground truth).
    EXPECT_LE(r.summary.pending_peak, 4u) << r.scheduler;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(spec_launched, 0u);
  EXPECT_EQ(pending_peak, 4u);  // the budget was actually reached

  metrics::GridOptions parallel;
  parallel.jobs = 4;
  const auto parallel_results = metrics::run_grid(grid, parallel);
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  EXPECT_EQ(digest_overload(serial_results), digest_overload(parallel_results))
      << "--jobs N changed a scheduling decision under overload";

  check_digest("overload_chaos", digest_overload(serial_results),
               testing::kOverloadChaosGolden);
}

}  // namespace
}  // namespace woha
