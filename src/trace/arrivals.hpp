// Open-loop arrival processes for overload experiments.
//
// The paper's evaluation (and assign_deadlines) is closed-loop: all
// workflows arrive inside a fixed uniform window, so offered load is capped
// by construction and the cluster is never pushed past saturation. The
// generators here replace that uniform draw with a seeded arrival *process*
// whose intensity is set by a target utilization knob:
//
//   rho = (mean serial work per workflow) * lambda / total_slots
//
// i.e. rho is offered slot-milliseconds per slot-millisecond of capacity.
// rho < 1 is a stable queue, rho > 1 grows the backlog without bound —
// exactly the regime admission control (hadoop/admission.hpp) exists for.
//
// Shapes:
//  * kPoisson     — memoryless arrivals at the rho-matched rate.
//  * kMmpp        — two-state Markov-modulated Poisson process: calm and
//                   burst states with exponential sojourns; the burst-state
//                   rate is `burst_rate_factor` times the calm rate, and the
//                   *time-averaged* rate still matches rho.
//  * kFlashCrowd  — Poisson background at the rho-matched rate, with the
//                   middle `flash_fraction` of workflows compressed into a
//                   `flash_duration` spike (instantaneous rho >> 1).
//
// Everything is a pure function of (workloads, seed, config); submit times
// come out sorted nondecreasing in workflow order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "workflow/workflow.hpp"

namespace woha::trace {

enum class ArrivalShape : std::uint8_t { kPoisson, kMmpp, kFlashCrowd };

[[nodiscard]] const char* to_string(ArrivalShape shape);

struct ArrivalConfig {
  ArrivalShape shape = ArrivalShape::kPoisson;
  /// Target utilization: offered work rate / cluster capacity. > 1 = overload.
  double rho = 0.9;
  /// Total slot count (map + reduce) of the cluster the rho targets.
  std::uint32_t cluster_slots = 0;

  // --- kMmpp ---------------------------------------------------------------
  /// Burst-state arrival rate as a multiple of the calm-state rate (> 1).
  double burst_rate_factor = 8.0;
  /// Mean sojourn in the calm state.
  Duration calm_mean = minutes(10);
  /// Mean sojourn in the burst state.
  Duration burst_mean = minutes(2);

  // --- kFlashCrowd ---------------------------------------------------------
  /// Fraction of workflows belonging to the flash spike, in [0, 1).
  double flash_fraction = 0.5;
  /// The spike's width: flash workflows arrive inside this window.
  Duration flash_duration = minutes(2);

  /// Throws std::invalid_argument on nonsensical settings (non-positive or
  /// non-finite rho/rates, non-positive means, cluster_slots == 0,
  /// flash_fraction outside [0, 1) or NaN).
  void validate() const;
};

/// Mean interarrival time (ms) that realizes `config.rho` for this workload:
/// mean_total_work / (rho * cluster_slots). Throws on an empty workload.
[[nodiscard]] double mean_interarrival_ms(
    const std::vector<wf::WorkflowSpec>& workflows, const ArrivalConfig& config);

/// Overwrite each spec's submit_time with a draw from the configured arrival
/// process, deterministically from `seed`. Deadlines are untouched — layer
/// this after assign_deadlines (which also sets relative deadlines) to
/// replace its uniform arrival window. Submit times are nondecreasing in
/// vector order.
void assign_open_loop_arrivals(std::vector<wf::WorkflowSpec>& workflows,
                               std::uint64_t seed, const ArrivalConfig& config);

}  // namespace woha::trace
