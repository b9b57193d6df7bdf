#include "trace/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "workflow/analysis.hpp"

namespace woha::trace {

const char* to_string(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::kPoisson: return "poisson";
    case ArrivalShape::kMmpp: return "mmpp";
    case ArrivalShape::kFlashCrowd: return "flash-crowd";
  }
  return "?";
}

void ArrivalConfig::validate() const {
  // Each check states the valid range, so NaN (which fails every
  // comparison) is rejected with the rest; infinity is rejected by name.
  if (!(rho > 0.0 && std::isfinite(rho))) {
    throw std::invalid_argument("ArrivalConfig: rho must be finite and positive");
  }
  if (cluster_slots == 0) {
    throw std::invalid_argument("ArrivalConfig: cluster_slots must be >= 1");
  }
  if (shape == ArrivalShape::kMmpp) {
    if (!(burst_rate_factor > 1.0 && std::isfinite(burst_rate_factor))) {
      throw std::invalid_argument(
          "ArrivalConfig: burst_rate_factor must be finite and > 1");
    }
    if (calm_mean <= 0 || burst_mean <= 0) {
      throw std::invalid_argument(
          "ArrivalConfig: MMPP sojourn means must be positive");
    }
  }
  if (shape == ArrivalShape::kFlashCrowd) {
    if (!(flash_fraction >= 0.0 && flash_fraction < 1.0)) {
      throw std::invalid_argument(
          "ArrivalConfig: flash_fraction must be in [0, 1)");
    }
    if (flash_duration <= 0) {
      throw std::invalid_argument(
          "ArrivalConfig: flash_duration must be positive");
    }
  }
}

double mean_interarrival_ms(const std::vector<wf::WorkflowSpec>& workflows,
                            const ArrivalConfig& config) {
  config.validate();
  if (workflows.empty()) {
    throw std::invalid_argument("mean_interarrival_ms: empty workload");
  }
  double total_work = 0.0;
  for (const auto& spec : workflows) {
    total_work += static_cast<double>(wf::total_work(spec));
  }
  const double mean_work = total_work / static_cast<double>(workflows.size());
  return mean_work / (config.rho * static_cast<double>(config.cluster_slots));
}

namespace {

SimTime clamp_time(double t) {
  return static_cast<SimTime>(std::llround(std::max(0.0, t)));
}

void poisson_arrivals(std::vector<wf::WorkflowSpec>& workflows, Rng& rng,
                      double mean_gap) {
  const double rate = 1.0 / mean_gap;
  double t = 0.0;
  for (auto& spec : workflows) {
    t += rng.exponential(rate);
    spec.submit_time = clamp_time(t);
  }
}

void mmpp_arrivals(std::vector<wf::WorkflowSpec>& workflows, Rng& rng,
                   double mean_gap, const ArrivalConfig& cfg) {
  // Two-state MMPP. Stationary state probabilities are proportional to the
  // sojourn means; pick the calm-state rate so the time-averaged rate equals
  // the rho-matched Poisson rate:
  //   avg = pi_calm * l_calm + pi_burst * (f * l_calm)  =>  l_calm = avg / k.
  const double avg_rate = 1.0 / mean_gap;
  const double pi_calm = static_cast<double>(cfg.calm_mean) /
                         static_cast<double>(cfg.calm_mean + cfg.burst_mean);
  const double pi_burst = 1.0 - pi_calm;
  const double l_calm =
      avg_rate / (pi_calm + cfg.burst_rate_factor * pi_burst);
  const double rates[2] = {l_calm, cfg.burst_rate_factor * l_calm};
  const double sojourn_rates[2] = {1.0 / static_cast<double>(cfg.calm_mean),
                                   1.0 / static_cast<double>(cfg.burst_mean)};

  double t = 0.0;
  std::size_t state = 0;  // 0 = calm, 1 = burst
  double state_end = rng.exponential(sojourn_rates[state]);
  for (auto& spec : workflows) {
    for (;;) {
      const double gap = rng.exponential(rates[state]);
      if (t + gap <= state_end) {
        t += gap;
        break;
      }
      // No arrival before the state flips; restart the (memoryless) draw in
      // the next state from the boundary.
      t = state_end;
      state ^= 1;
      state_end = t + rng.exponential(sojourn_rates[state]);
    }
    spec.submit_time = clamp_time(t);
  }
}

void flash_crowd_arrivals(std::vector<wf::WorkflowSpec>& workflows, Rng& rng,
                          double mean_gap, const ArrivalConfig& cfg) {
  const std::size_t n = workflows.size();
  const auto flash_count = static_cast<std::size_t>(
      std::floor(cfg.flash_fraction * static_cast<double>(n)));
  const std::size_t flash_begin = (n - flash_count) / 2;
  const std::size_t flash_end = flash_begin + flash_count;
  const double rate = 1.0 / mean_gap;

  // Background Poisson until the spike starts.
  double t = 0.0;
  for (std::size_t i = 0; i < flash_begin; ++i) {
    t += rng.exponential(rate);
    workflows[i].submit_time = clamp_time(t);
  }

  // The spike: flash_count workflows land uniformly inside flash_duration.
  // Sort the offsets so submit times stay nondecreasing in vector order.
  const double flash_start = t;
  std::vector<double> offsets(flash_count);
  for (double& off : offsets) {
    off = rng.uniform(0.0, static_cast<double>(cfg.flash_duration));
  }
  std::sort(offsets.begin(), offsets.end());
  for (std::size_t i = flash_begin; i < flash_end; ++i) {
    workflows[i].submit_time = clamp_time(flash_start + offsets[i - flash_begin]);
  }

  // Background Poisson resumes after the spike window.
  t = flash_start + static_cast<double>(cfg.flash_duration);
  for (std::size_t i = flash_end; i < n; ++i) {
    t += rng.exponential(rate);
    workflows[i].submit_time = clamp_time(t);
  }
}

}  // namespace

void assign_open_loop_arrivals(std::vector<wf::WorkflowSpec>& workflows,
                               std::uint64_t seed, const ArrivalConfig& config) {
  const double mean_gap = mean_interarrival_ms(workflows, config);
  Rng rng(seed);
  switch (config.shape) {
    case ArrivalShape::kPoisson:
      poisson_arrivals(workflows, rng, mean_gap);
      break;
    case ArrivalShape::kMmpp:
      mmpp_arrivals(workflows, rng, mean_gap, config);
      break;
    case ArrivalShape::kFlashCrowd:
      flash_crowd_arrivals(workflows, rng, mean_gap, config);
      break;
  }
}

}  // namespace woha::trace
