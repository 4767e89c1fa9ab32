// Hot-path performance counters: how often the knapsack kernels ran and how
// often the fast paths answered instead of the full DP table.
//
// Defined at the sched layer so both producers (the es_core DP kernels,
// which sit above sched) and the consumer (the engine, which copies a
// per-run delta into SimulationResult) can see the type without a layering
// cycle.  Counters are plain tallies — they never influence scheduling, so
// enabling them cannot perturb a schedule.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace es::sched {

/// Tallies of the Basic_DP / Reservation_DP kernel invocations.
struct DpCounters {
  std::uint64_t calls = 0;       ///< kernel entries (any resolution path)
  std::uint64_t fast_path = 0;   ///< answered by the trivial-empty or
                                 ///< fits-free-capacity exits
                                 ///  (calls == fast_path + table_runs,
                                 ///   always)
  std::uint64_t table_runs = 0;  ///< full table fills (the expensive path)
  /// Logical table size summed over table runs: n x (C+1) cells for
  /// Basic_DP, n x (C+1) x (C2+1) for Reservation_DP.  The fills compute
  /// only the reachable part of that table (core/dp.hpp), so this is the
  /// problem size, not the work done.
  std::uint64_t table_cells = 0;
  /// Wall time inside full table fills.  Measurement, not simulation
  /// state; with table_runs this yields ns-per-DP-invocation.
  double table_seconds = 0;

  // Always zero: kept only because perfbench/perfbench.cpp reads them.
  std::uint64_t cache_hits = 0;     // perfbench only
  std::uint64_t spec_launched = 0;  // perfbench only
  std::uint64_t spec_hits = 0;      // perfbench only

  DpCounters& operator+=(const DpCounters& other) {
    calls += other.calls;
    fast_path += other.fast_path;
    table_runs += other.table_runs;
    table_cells += other.table_cells;
    table_seconds += other.table_seconds;
    return *this;
  }
  DpCounters operator-(const DpCounters& other) const {
    DpCounters delta;
    delta.calls = calls - other.calls;
    delta.fast_path = fast_path - other.fast_path;
    delta.table_runs = table_runs - other.table_runs;
    delta.table_cells = table_cells - other.table_cells;
    delta.table_seconds = table_seconds - other.table_seconds;
    return delta;
  }
};

/// Per-cycle shape counters collected by the CycleStatsObserver attachment
/// (sched/attach/cycle_stats_observer.hpp) when
/// EngineConfig::collect_cycle_stats is set.  Plain tallies over fixed
/// log2-bucketed histograms: POD arrays, no heap, no influence on the
/// schedule.  Bucket b of a histogram counts cycles whose value v has
/// std::bit_width(v) == b, i.e. bucket 0 holds v == 0, bucket 1 holds
/// v == 1, bucket 2 holds 2..3, bucket 3 holds 4..7 and so on, with the
/// last bucket absorbing everything larger.
struct CycleStats {
  static constexpr int kBuckets = 16;

  std::uint64_t cycles = 0;           ///< scheduling cycles observed
  std::uint64_t starts = 0;           ///< job starts observed
  std::uint64_t backfill_starts = 0;  ///< starts past the batch-queue head
  std::uint64_t max_queue_depth = 0;  ///< peak batch-queue depth at a cycle
  std::uint64_t queue_depth[kBuckets] = {};  ///< batch depth at cycle begin
  std::uint64_t dp_calls[kBuckets] = {};     ///< DP kernel calls per cycle

  /// Histogram bucket for `value` (see the class comment for the ranges).
  static int bucket_of(std::uint64_t value) {
    const int width = static_cast<int>(std::bit_width(value));
    return width < kBuckets ? width : kBuckets - 1;
  }
  /// Inclusive lower bound of bucket `b`: 0, 1, 2, 4, 8, ...
  static std::uint64_t bucket_lo(int b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Inclusive upper bound of bucket `b`: 0, 1, 3, 7, 15, ...
  static std::uint64_t bucket_hi(int b) {
    return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
  }

  CycleStats& operator+=(const CycleStats& other) {
    cycles += other.cycles;
    starts += other.starts;
    backfill_starts += other.backfill_starts;
    max_queue_depth = max_queue_depth > other.max_queue_depth
                          ? max_queue_depth
                          : other.max_queue_depth;
    for (int b = 0; b < kBuckets; ++b) {
      queue_depth[b] += other.queue_depth[b];
      dp_calls[b] += other.dp_calls[b];
    }
    return *this;
  }
};

/// Per-pool fairness accounting collected by the FairnessObserver
/// attachment (sched/attach/fairness_observer.hpp) when
/// EngineConfig::fairshare.collect_stats is set.
struct PoolFairnessStats {
  std::string name;
  double weight = 1.0;
  double entitlement_share = 0;  ///< weight / sum(weights)
  std::uint64_t started = 0;     ///< queueing waits recorded (per attempt)
  double wait_mean = 0;          ///< seconds from (re)queue to start
  double wait_p50 = 0;
  double wait_p99 = 0;
  double wait_max = 0;
  /// Sim-seconds the pool had at least one batch job waiting.
  double backlogged_seconds = 0;
  /// Mean fraction of the machine the pool held while backlogged.
  double service_share = 0;
  /// Share satisfaction x_p = min(1, service_share / entitlement_share);
  /// 1 for pools that were never backlogged (nothing to be starved of).
  double satisfaction = 1.0;
};

/// Fairness summary: Jain's index J = (sum x)^2 / (n * sum x^2) over the
/// satisfaction of pools that experienced backlog (1.0 = perfectly fair).
struct FairnessStats {
  bool collected = false;
  double jain = 1.0;
  std::vector<PoolFairnessStats> pools;
};

/// Per-run performance breakdown attached to SimulationResult.  Wall-clock
/// fields are measurement, not simulation state: they vary run to run and
/// never feed back into scheduling decisions or metrics CSVs.
struct PerfStats {
  DpCounters dp;
  sim::EventQueueCounters events;  ///< kernel traffic for this run's queue
  CycleStats cycle;  ///< all-zero unless EngineConfig::collect_cycle_stats
  double wall_seconds = 0;   ///< whole run() wall time
  /// Wall time inside policy cycle() calls; 0 unless
  /// EngineConfig::collect_cycle_stats (timed by CycleStatsObserver).
  double cycle_seconds = 0;
  /// Process peak RSS in bytes at run end (util::peak_rss_bytes).
  /// Process-global high-water: attribute to a run only when it is the
  /// first/only run in the process.  0 where the OS lacks the counter.
  std::uint64_t peak_rss_bytes = 0;
  /// Empty unless EngineConfig::fairshare.collect_stats.
  FairnessStats fairness;
};

}  // namespace es::sched
