#include "core/plan.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace woha::core {

std::uint64_t SchedulingPlan::required_at(Duration ttd) const {
  // Steps are sorted by strictly decreasing ttd. A step with step_ttd >= ttd
  // lies at or before the query instant, so its requirement applies.
  // Binary search for the first step with step_ttd < ttd; everything before
  // it applies.
  const auto it = std::lower_bound(
      step_ttd_.begin(), step_ttd_.end(), ttd,
      [](Duration step, Duration query) { return step >= query; });
  if (it == step_ttd_.begin()) return 0;
  return step_req_[static_cast<std::size_t>(it - step_ttd_.begin()) - 1];
}

namespace {
/// Heap order for PlanSimulator::events_: earliest time on top.
constexpr auto kLater = [](const auto& a, const auto& b) { return a.time > b.time; };
}  // namespace

PlanSimulator::PlanSimulator(const wf::WorkflowSpec& spec,
                             const std::vector<std::uint32_t>& job_rank)
    : job_rank_(job_rank) {
  if (job_rank.size() != spec.jobs.size()) {
    throw std::invalid_argument("generate_plan: job_rank size mismatch");
  }
  wf::validate(spec);

  const auto njobs = static_cast<std::uint32_t>(spec.jobs.size());
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  job_order_.assign(njobs, kUnset);
  for (std::uint32_t j = 0; j < njobs; ++j) {
    if (job_rank[j] >= njobs || job_order_[job_rank[j]] != kUnset) {
      throw std::invalid_argument("generate_plan: job_rank is not a permutation");
    }
    job_order_[job_rank[j]] = j;
  }

  jobs_.reserve(njobs);
  dep_begin_.assign(njobs + 1, 0);
  for (const wf::JobSpec& job : spec.jobs) {
    jobs_.push_back(Job{job.num_maps, job.num_reduces,
                        static_cast<std::uint32_t>(job.prerequisites.size()),
                        job.map_duration, job.reduce_duration});
    for (std::uint32_t p : job.prerequisites) ++dep_begin_[p + 1];
  }
  for (std::uint32_t j = 0; j < njobs; ++j) dep_begin_[j + 1] += dep_begin_[j];
  deps_.resize(dep_begin_[njobs]);
  std::vector<std::uint32_t> fill(dep_begin_.begin(), dep_begin_.end() - 1);
  for (std::uint32_t j = 0; j < njobs; ++j) {
    for (std::uint32_t p : spec.jobs[j].prerequisites) deps_[fill[p]++] = j;
  }

  state_.resize(njobs);
  active_.resize((njobs + 63) / 64);
}

void PlanSimulator::activate(std::uint32_t job) {
  const std::uint32_t rank = job_rank_[job];
  active_[rank / 64] |= std::uint64_t{1} << (rank % 64);
  active_low_ = std::min<std::size_t>(active_low_, rank / 64);
}

void PlanSimulator::finish(std::uint32_t job, SimTime done) {
  for (std::uint32_t i = dep_begin_[job]; i < dep_begin_[job + 1]; ++i) {
    JobState& d = state_[deps_[i]];
    d.ready_time = std::max(d.ready_time, done);
    if (--d.unfinished_prereqs == 0) push(Event{d.ready_time, deps_[i], true});
  }
}

void PlanSimulator::push(Event e) {
  events_.push_back(e);
  std::push_heap(events_.begin(), events_.end(), kLater);
}

SchedulingPlan PlanSimulator::run(std::uint32_t resource_cap, std::uint32_t* peak_busy) {
  if (resource_cap == 0) throw std::invalid_argument("generate_plan: cap must be >= 1");
  std::fill(active_.begin(), active_.end(), 0);
  active_low_ = 0;
  for (std::uint32_t j = 0; j < jobs_.size(); ++j) {
    state_[j] = JobState{jobs_[j].maps, jobs_[j].reduces, jobs_[j].prereqs, 0};
    if (jobs_[j].prereqs == 0) activate(j);
  }
  events_.clear();
  schedule_.clear();
  push(Event{0, resource_cap, false});

  std::uint32_t free_slots = 0;
  std::uint32_t peak = 0;
  SimTime t = 0;
  while (!events_.empty()) {
    // Drain all events at the head timestamp before making decisions, so
    // FREE and ADD events at the same instant are visible together (their
    // order within the instant is immaterial).
    t = events_.front().time;
    while (!events_.empty() && events_.front().time == t) {
      std::pop_heap(events_.begin(), events_.end(), kLater);
      const Event e = events_.back();
      events_.pop_back();
      if (e.add) {
        activate(e.value);
      } else {
        free_slots += e.value;
      }
    }

    // Greedily hand slots to the highest-priority active jobs.
    std::uint64_t scheduled = 0;
    while (free_slots > 0) {
      while (active_low_ < active_.size() && active_[active_low_] == 0) ++active_low_;
      if (active_low_ == active_.size()) break;
      const auto rank = static_cast<std::uint32_t>(
          active_low_ * 64 + static_cast<std::size_t>(std::countr_zero(active_[active_low_])));
      const std::uint32_t j = job_order_[rank];
      JobState& job = state_[j];
      const bool map_phase = job.maps_left > 0;
      std::uint32_t& left = map_phase ? job.maps_left : job.reduces_left;
      const std::uint32_t wave = std::min(left, free_slots);
      scheduled += wave;
      free_slots -= wave;
      left -= wave;
      const SimTime done = t + (map_phase ? jobs_[j].map_duration : jobs_[j].reduce_duration);
      push(Event{done, wave, false});
      if (left == 0) {
        active_[rank / 64] &= ~(std::uint64_t{1} << (rank % 64));
        if (map_phase && job.reduces_left > 0) {
          // Map phase fully scheduled; the job re-enters A when the last
          // map wave completes (reduce phase becomes available then).
          push(Event{done, j, true});
        } else {
          finish(j, done);
        }
      }
    }
    // validate() guarantees positive phase durations, so every event pushed
    // above lies after t and each instant is visited once.
    if (scheduled > 0) schedule_.emplace_back(t, scheduled);
    peak = std::max(peak, resource_cap - free_slots);
  }
  if (peak_busy != nullptr) *peak_busy = peak;

  SchedulingPlan plan;
  plan.resource_cap = resource_cap;
  plan.simulated_makespan = t;  // time of the last processed event
  plan.job_rank = job_rank_;
  plan.job_order = job_order_;
  // Convert occurrence times to ttd (Algorithm 1 lines 37-39) and cumulative
  // counts; ascending time == descending ttd.
  std::uint64_t cumulative = 0;
  plan.reserve_steps(schedule_.size());
  for (const auto& [when, count] : schedule_) {
    cumulative += count;
    plan.append_step(plan.simulated_makespan - when, cumulative);
  }
  return plan;
}

SchedulingPlan generate_plan(const wf::WorkflowSpec& spec,
                             std::uint32_t resource_cap,
                             const std::vector<std::uint32_t>& job_rank) {
  return PlanSimulator(spec, job_rank).run(resource_cap);
}

}  // namespace woha::core
