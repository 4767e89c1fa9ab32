#include "cluster/utilization.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace es::cluster {

UtilizationTracker::UtilizationTracker(int capacity) : capacity_(capacity) {
  ES_EXPECTS(capacity > 0);
}

void UtilizationTracker::set_bounded(bool bounded) {
  ES_EXPECTS(!started_);  // mode must be fixed before the first record
  bounded_ = bounded;
}

void UtilizationTracker::record(sim::Time at, int busy) {
  ES_EXPECTS(busy >= 0 && busy <= capacity_);
  if (!started_) {
    started_ = true;
    first_ = last_ = at;
    busy_ = busy;
    if (!bounded_) steps_.push_back({at, busy});
    return;
  }
  ES_EXPECTS(at >= last_);
  integral_ += static_cast<double>(busy_) * (at - last_);
  last_ = at;
  busy_ = busy;
  if (bounded_) return;
  if (!steps_.empty() && steps_.back().time == at) {
    steps_.back().busy = busy;  // coalesce same-instant updates
  } else {
    steps_.push_back({at, busy});
  }
}

void UtilizationTracker::record_capacity(sim::Time at, int available) {
  ES_EXPECTS(available >= 0 && available <= capacity_);
  if (!capacity_steps_.empty()) {
    ES_EXPECTS(at >= capacity_steps_.back().time);
    if (capacity_steps_.back().time == at) {
      capacity_steps_.back().busy = available;
      return;
    }
  }
  capacity_steps_.push_back({at, available});
}

double UtilizationTracker::integrate(const std::vector<Step>& steps,
                                     sim::Time last, sim::Time from,
                                     sim::Time to) {
  ES_EXPECTS(from <= to);
  if (steps.empty() || to <= steps.front().time) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const sim::Time seg_start = steps[i].time;
    const sim::Time seg_end =
        (i + 1 < steps.size()) ? steps[i + 1].time : std::max(to, last);
    const sim::Time lo = std::max(from, seg_start);
    const sim::Time hi = std::min(to, seg_end);
    if (hi > lo) sum += static_cast<double>(steps[i].busy) * (hi - lo);
  }
  return sum;
}

double UtilizationTracker::busy_proc_seconds(sim::Time from,
                                             sim::Time to) const {
  ES_EXPECTS(from <= to);
  if (!started_) return 0.0;
  if (bounded_) {
    // The incremental integral_ holds exactly the segment terms
    // integrate(steps_, last_, first_, last_) would sum (one per record, in
    // record order — same-instant records contribute an exact +0.0), so a
    // [first_, >= last_] query reproduces the retained-mode double bit for
    // bit.  A query ending inside the recorded range cannot be truncated
    // without the steps; it returns the integral through last_ (the engine
    // never asks: it reads integral() at its last finish instead).
    ES_EXPECTS(from <= first_);
    if (to <= first_) return 0.0;
    double sum = integral_;
    if (to > last_) sum += static_cast<double>(busy_) * (to - last_);
    return sum;
  }
  return integrate(steps_, last_, from, to);
}

double UtilizationTracker::available_proc_seconds(sim::Time from,
                                                  sim::Time to) const {
  ES_EXPECTS(from <= to);
  if (capacity_steps_.empty())
    return static_cast<double>(capacity_) * (to - from);
  return integrate(capacity_steps_, capacity_steps_.back().time, from, to);
}

UtilizationState UtilizationTracker::save_state() const {
  ES_EXPECTS(bounded_);
  UtilizationState state;
  state.busy = busy_;
  state.first = first_;
  state.last = last_;
  state.started = started_;
  state.integral = integral_;
  state.capacity_steps.reserve(capacity_steps_.size());
  for (const Step& s : capacity_steps_) {
    state.capacity_steps.emplace_back(s.time, s.busy);
  }
  return state;
}

void UtilizationTracker::restore_state(const UtilizationState& state) {
  ES_EXPECTS(bounded_);
  busy_ = state.busy;
  first_ = state.first;
  last_ = state.last;
  started_ = state.started;
  integral_ = state.integral;
  capacity_steps_.clear();
  capacity_steps_.reserve(state.capacity_steps.size());
  for (const auto& [time, busy] : state.capacity_steps) {
    capacity_steps_.push_back({time, busy});
  }
}

double UtilizationTracker::mean_utilization(sim::Time from,
                                            sim::Time to) const {
  if (to <= from) return 0.0;
  return utilization_of(busy_proc_seconds(from, to), from, to);
}

double UtilizationTracker::utilization_of(double busy, sim::Time from,
                                          sim::Time to) const {
  if (to <= from) return 0.0;
  if (capacity_steps_.empty()) {
    // No failures: keep the original single-division arithmetic so results
    // are bit-identical to the pre-failure-model tracker.
    return busy / (static_cast<double>(capacity_) * (to - from));
  }
  const double available = available_proc_seconds(from, to);
  if (available <= 0) return 0.0;
  return busy / available;
}

}  // namespace es::cluster
