// Attachment: per-cycle shape statistics (the bus's proof of openness —
// added without touching a single engine lifecycle site).
//
// Collects log2-bucketed histograms of batch-queue depth at cycle begin
// and DP kernel invocations per cycle, plus start/backfill tallies, into
// PerfStats::cycle.  Everything is a fixed-size POD tally — no heap, no
// influence on the schedule — surfaced by `simrun --perf-report` when
// EngineConfig::collect_cycle_stats is set.
//
// It also owns the cycle wall timer (PerfStats::cycle_seconds): a clock
// pair per cycle costs measurably on runs of millions of small cycles, so
// only runs that ask for cycle statistics pay it.  The clock starts at the
// end of on_cycle_begin and stops at the start of on_cycle_end, so it
// covers the policy's cycle() plus any later observers' on_cycle_begin.
// Measurement, not state: it is not snapshotted, and a resumed run times
// only its own cycles.
#pragma once

#include <chrono>
#include <cstdint>

#include "sched/attach/observer.hpp"
#include "sched/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace es::sched {

class CycleStatsObserver final : public EngineObserver {
 public:
  /// Hooks this observer overrides; keep in sync with the override list.
  static constexpr HookMask kHookMask =
      hook_bit(Hook::kCycleBegin) | hook_bit(Hook::kCycleEnd) |
      hook_bit(Hook::kStart) | hook_bit(Hook::kCollect) |
      hook_bit(Hook::kParanoidCheck);

  /// Reads the policy's cumulative DP counters directly; the baseline is
  /// snapshotted here so per-cycle deltas work on reused policies.
  explicit CycleStatsObserver(const Scheduler& policy)
      : policy_(&policy),
        baseline_dp_calls_(policy.dp_counters().calls),
        last_dp_calls_(baseline_dp_calls_) {}

  const CycleStats& stats() const { return stats_; }

  void on_cycle_begin(const CycleInfo& info) override;
  void on_cycle_end(const CycleInfo& info) override;
  void on_start(sim::Time now, const JobRun& job, bool backfilled) override;
  void on_collect(SimulationResult& result) const override;
  void on_paranoid_check(const ParanoidSnapshot& snapshot) const override;

  /// Snapshot/restore.  The two DP markers reference the *policy's*
  /// cumulative counter, which resets on the fresh policy instance a
  /// restore builds — so they are serialized as deltas below the counter's
  /// save-time value and re-anchored against the fresh counter at restore
  /// (mod-2^64 wraparound keeps future subtractions exact).
  void save_state(snap::SnapshotWriter& w) const;
  void restore_state(snap::SnapshotReader& r);

 private:
  const Scheduler* policy_;
  std::uint64_t baseline_dp_calls_;
  std::uint64_t last_dp_calls_;
  CycleStats stats_;
  std::chrono::steady_clock::time_point cycle_start_{};
  double cycle_seconds_ = 0;
};

}  // namespace es::sched
