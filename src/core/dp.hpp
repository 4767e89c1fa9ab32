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
//  2. the full table fill, with the keep table bitpacked (1 bit per cell,
//     8x smaller than a byte table) for cache residency.
//     Basic_DP tables wider than a threshold run *blocked*: the column
//     range is tiled into 64-aligned blocks filled double-buffered, and
//     the blocks fan out across util::ThreadPool when the global
//     parallelism is > 1 — each block writes disjoint value cells and
//     disjoint keep words, so the fill is race-free and the backtrack
//     reads the same table the serial fill would have produced.
// Both stages return bit-identical selections; the kernels stay pure
// functions of their arguments.
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
  std::vector<std::int64_t> value;   ///< dp table, flattened
  std::vector<std::int64_t> value2;  ///< previous row, blocked fills only
  std::vector<std::uint64_t> keep;   ///< per-item take decisions, bitpacked

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
/// ascending.  Items with weight 0 are never selected (treat as ineligible).
std::vector<int> basic_dp(std::span<const int> weights, int capacity,
                          DpWorkspace& ws);

/// Reservation_DP.  `weights[i]` as above; `shadow_weights[i]` is the
/// paper's `frenum` in grains: 0 if the job finishes (by estimate) before
/// the freeze end time, else its size.  Selected sets satisfy
///   sum weights <= capacity  AND  sum shadow_weights <= shadow_capacity.
std::vector<int> reservation_dp(std::span<const int> weights,
                                std::span<const int> shadow_weights,
                                int capacity, int shadow_capacity,
                                DpWorkspace& ws);

/// Instruction-set tier of the Basic_DP row update.  The kernel is compiled
/// with explicit AVX2 / SSE4.2 blocks (per-function target attributes, so
/// the rest of the binary stays baseline-ISA) and picks the widest tier the
/// host supports at runtime.  Every tier computes the identical max/keep
/// recurrence, so selections are bit-identical across tiers — gated by the
/// dp tests, micro_dp, and the perf_baseline equivalence legs.
enum class DpSimdLevel { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

/// The tier table fills will actually use: the widest supported one, or
/// kScalar when vectorization is disabled (set_dp_simd_enabled(false),
/// building with ES_DP_SIMD off, or a non-x86 host).
DpSimdLevel dp_simd_level();

/// Force-scalar toggle for differential tests and before/after benchmarks
/// (`simrun --no-dp-simd`).  Thread-safe; takes effect on the next fill.
void set_dp_simd_enabled(bool enabled);
bool dp_simd_enabled();

/// Human-readable tier name ("scalar", "sse4.2", "avx2").
const char* dp_simd_level_name(DpSimdLevel level);

namespace detail {

/// The unconditional table fills, bypassing the fast path.  Exposed for
/// the equivalence tests and microbenchmarks that prove the fast path
/// selects identically; production code calls the wrappers above.
std::vector<int> basic_dp_table(std::span<const int> weights, int capacity,
                                DpWorkspace& ws);
std::vector<int> reservation_dp_table(std::span<const int> weights,
                                      std::span<const int> shadow_weights,
                                      int capacity, int shadow_capacity,
                                      DpWorkspace& ws);

}  // namespace detail

}  // namespace es::core
