// The dynamic programs at the heart of the LOS scheduler family
// (Shmueli & Feitelson 2005; paper section III).
//
// Basic_DP   — pick the subset of waiting jobs that maximizes utilization
//              right now: 0/1 knapsack with weight = value = processors.
// Reservation_DP — same objective under an additional *shadow* constraint:
//              jobs whose estimated completion crosses the freeze end time
//              `fret` must also fit into the shadow capacity `frec`
//              (a 2-dimensional knapsack).
//
// Ties in achievable utilization are broken toward sets containing
// earlier-queued jobs (and more of them), which keeps head jobs from being
// skipped gratuitously and makes results deterministic.
//
// Capacities and weights are in *allocation grains* (processors divided by
// the machine granularity — 32 on BlueGene/P), which keeps the DP tables
// tiny; callers convert.  A reusable workspace avoids per-cycle allocation.
//
// Hot-path structure: every call resolves through one of two stages,
//  1. the *fast path* — when the total eligible demand fits the capacity
//     (and, for Reservation_DP, the total shadow demand fits the shadow
//     capacity), the optimum is "take everything", no table needed;
//  2. the table fill — one in-place loop per item, descending over the
//     capacity row, with the keep table bitpacked (1 bit per cell, 8x
//     smaller than a byte table) for cache residency.  Each item row
//     computes only the *reachable box*: with P_i the usable weight up to
//     and including item i and R_i the usable weight after it, cells below
//     C - R_i are not computed (the backtrack never reaches them; below
//     C - R_total they are not even stored), cells at or above P_i take
//     every item so far without a compare, and only
//     [max(w_i, C - R_i), min(C, P_i - 1)] compares.
//     Reservation_DP bounds each dimension the same way.  These are Toth's
//     range bounds for the 0/1-knapsack DP (Kellerer, Pferschy & Pisinger,
//     *Knapsack Problems*, sec. 2.3); every value the backtrack reads is
//     the same as in the full table, so the selection, tie-breaks
//     included, is too.
// Both stages return bit-identical selections; the kernels stay pure
// functions of their arguments.  The selection is a view into the
// workspace, valid until its next call.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sched/perf.hpp"

namespace es::sched {
struct JobRun;
}

namespace es::core {

/// Reusable DP buffers and counters; one per policy instance.
struct DpWorkspace {
  std::vector<std::int64_t> value;  ///< dp table, flattened
  std::vector<std::uint64_t> keep;  ///< per-item take decisions, bitpacked
  std::vector<int> selected;        ///< the last call's selection

  /// Per-cycle eligibility-scan scratch, reused by the LOS-family policies
  /// so the hot scheduling cycle performs no heap allocation.  The scans
  /// never nest (a step runs exactly one DP), so one set per workspace
  /// suffices.
  std::vector<sched::JobRun*> eligible_scratch;
  std::vector<int> weights_scratch;
  std::vector<int> shadows_scratch;

  sched::DpCounters counters;
};

/// Basic_DP.  `weights[i]` is the i-th waiting job's size in grains, in
/// queue order; `capacity` the free grains.  Returns the selected indices,
/// ascending, as a view into `ws.selected` (valid until the next call on
/// `ws`).  Items with weight 0 are never selected (treat as ineligible).
std::span<const int> basic_dp(std::span<const int> weights, int capacity,
                              DpWorkspace& ws);

/// Reservation_DP.  `weights[i]` as above; `shadow_weights[i]` is the
/// paper's `frenum` in grains: 0 if the job finishes (by estimate) before
/// the freeze end time, else its size.  Selected sets satisfy
///   sum weights <= capacity  AND  sum shadow_weights <= shadow_capacity.
std::span<const int> reservation_dp(std::span<const int> weights,
                                    std::span<const int> shadow_weights,
                                    int capacity, int shadow_capacity,
                                    DpWorkspace& ws);

namespace detail {

/// The unconditional table fills, bypassing the fast path.  Exposed for
/// the equivalence tests and microbenchmarks that prove the fast path
/// selects identically; production code calls the wrappers above.
std::span<const int> basic_dp_table(std::span<const int> weights,
                                    int capacity, DpWorkspace& ws);
std::span<const int> reservation_dp_table(std::span<const int> weights,
                                          std::span<const int> shadow_weights,
                                          int capacity, int shadow_capacity,
                                          DpWorkspace& ws);

}  // namespace detail

}  // namespace es::core
