// Shared test utilities: terse workload builders and a scenario harness that
// runs a hand-crafted workload under a named algorithm and exposes per-job
// outcomes for assertions.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "sched/metrics.hpp"
#include "workload/job.hpp"

namespace es::testing {

inline workload::Job batch_job(workload::JobId id, double arr, int num,
                               double dur, double actual = -1) {
  workload::Job job;
  job.id = id;
  job.arr = arr;
  job.num = num;
  job.dur = dur;
  job.actual = actual;
  return job;
}

inline workload::Job dedicated_job(workload::JobId id, double arr, int num,
                                   double dur, double start) {
  workload::Job job = batch_job(id, arr, num, dur);
  job.type = workload::JobType::kDedicated;
  job.start = start;
  return job;
}

inline workload::Workload make_workload(int procs, int granularity,
                                        std::vector<workload::Job> jobs,
                                        std::vector<workload::Ecc> eccs = {}) {
  workload::Workload workload;
  workload.machine_procs = procs;
  workload.granularity = granularity;
  workload.jobs = std::move(jobs);
  workload.eccs = std::move(eccs);
  workload.normalize();
  return workload;
}

/// Result of a scenario run with per-job lookup.
struct Scenario {
  sched::SimulationResult result;
  std::map<workload::JobId, sched::JobOutcome> by_id;

  const sched::JobOutcome& job(workload::JobId id) const {
    return by_id.at(id);
  }
  double start_of(workload::JobId id) const { return job(id).started; }
  double end_of(workload::JobId id) const { return job(id).finished; }
};

inline Scenario run_scenario(const workload::Workload& workload,
                             const std::string& algorithm,
                             core::AlgorithmOptions options = {}) {
  Scenario scenario;
  scenario.result = exp::run_workload(workload, algorithm, options);
  for (const sched::JobOutcome& outcome : scenario.result.jobs)
    scenario.by_id[outcome.id] = outcome;
  return scenario;
}

/// Verifies the fundamental resource invariant from the per-job outcomes:
/// at no instant does the sum of allocated processors exceed the machine.
/// Returns the peak concurrent allocation.
inline int peak_allocation(const sched::SimulationResult& result) {
  // Sweep events: +procs at start, -procs at finish (finish before start at
  // the same instant, matching the engine's event ordering).
  std::vector<std::pair<double, int>> deltas;
  deltas.reserve(result.jobs.size() * 2);
  for (const auto& job : result.jobs) {
    deltas.emplace_back(job.started, job.procs);
    deltas.emplace_back(job.finished, -job.procs);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // releases first
            });
  int current = 0;
  int peak = 0;
  for (const auto& [time, delta] : deltas) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

/// Bitwise equality: replaying the same floating-point operations gives
/// the same bits, not just values within an epsilon.
template <class T>
::testing::AssertionResult same_bits(const T& a, const T& b) {
  if (std::memcmp(&a, &b, sizeof(T)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << a << " vs " << b;
}

/// Bit-for-bit equality of every deterministic result field (wall timings,
/// peak RSS and the diagnostic event-queue peaks excluded): what two runs
/// of one simulation — resumed, re-chunked or re-sourced — must share.
inline void expect_identical_results(const sched::SimulationResult& m,
                                     const sched::SimulationResult& s) {
#define ES_SAME(field) EXPECT_TRUE(same_bits(m.field, s.field)) << #field
  ES_SAME(utilization); ES_SAME(mean_wait); ES_SAME(slowdown);
  ES_SAME(mean_per_job_slowdown); ES_SAME(mean_bounded_slowdown);
  ES_SAME(mean_run); ES_SAME(max_wait); ES_SAME(mean_dedicated_delay);
  ES_SAME(dedicated_on_time); ES_SAME(completed); ES_SAME(killed);
  ES_SAME(abandoned); ES_SAME(first_arrival); ES_SAME(last_finish);
  ES_SAME(makespan); ES_SAME(cycles); ES_SAME(events); ES_SAME(unfinished);
  ES_SAME(offered_load); ES_SAME(ecc.processed); ES_SAME(ecc.extensions);
  ES_SAME(ecc.reductions); ES_SAME(ecc.rejected); ES_SAME(ecc.unknown_job);
  ES_SAME(ecc.after_finish); ES_SAME(ecc.running_resizes);
  ES_SAME(ecc.conflicts); ES_SAME(failure.outages);
  ES_SAME(failure.interruptions); ES_SAME(failure.requeues);
  ES_SAME(failure.abandoned); ES_SAME(failure.lost_proc_seconds);
  ES_SAME(failure.wasted_proc_seconds); ES_SAME(failure.goodput_proc_seconds);
  ES_SAME(failure.down_proc_seconds); ES_SAME(failure.checkpoints);
  ES_SAME(failure.saved_proc_seconds); ES_SAME(perf.dp.calls);
  ES_SAME(perf.dp.table_runs); ES_SAME(perf.events.scheduled);
  ES_SAME(perf.events.cancelled); ES_SAME(perf.events.fired);
#undef ES_SAME
  EXPECT_EQ(m.termination, s.termination);
  ASSERT_EQ(m.jobs.size(), s.jobs.size());
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    const sched::JobOutcome& a = m.jobs[i];
    const sched::JobOutcome& b = s.jobs[i];
#define ES_SAME(field) EXPECT_TRUE(same_bits(a.field, b.field)) << "job " << i
    ES_SAME(id); ES_SAME(dedicated); ES_SAME(killed); ES_SAME(abandoned);
    ES_SAME(interruptions); ES_SAME(procs); ES_SAME(arrival);
    ES_SAME(started); ES_SAME(finished); ES_SAME(wait); ES_SAME(run);
#undef ES_SAME
  }
}

}  // namespace es::testing
