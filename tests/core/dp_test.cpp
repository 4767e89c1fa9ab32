#include "core/dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace es::core {
namespace {

/// The kernels return a view into their workspace; tests compare copies.
std::vector<int> vec(std::span<const int> selected) {
  return {selected.begin(), selected.end()};
}

int total(const std::vector<int>& weights, std::span<const int> chosen) {
  int sum = 0;
  for (int index : chosen) sum += weights[static_cast<std::size_t>(index)];
  return sum;
}

/// Exhaustive maximum packing value for small instances.
int brute_force_best(const std::vector<int>& weights, int capacity) {
  const std::size_t n = weights.size();
  int best = 0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    int sum = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (1u << i)) sum += weights[i];
    if (sum <= capacity) best = std::max(best, sum);
  }
  return best;
}

/// Exhaustive 2D maximum.
int brute_force_best_2d(const std::vector<int>& weights,
                        const std::vector<int>& shadows, int cap,
                        int shadow_cap) {
  const std::size_t n = weights.size();
  int best = 0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    int sum = 0, shadow = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (1u << i)) {
        sum += weights[i];
        shadow += shadows[i];
      }
    if (sum <= cap && shadow <= shadow_cap) best = std::max(best, sum);
  }
  return best;
}

TEST(BasicDp, EmptyInputs) {
  DpWorkspace ws;
  EXPECT_TRUE(basic_dp({}, 10, ws).empty());
  const std::vector<int> weights{3, 4};
  EXPECT_TRUE(basic_dp(weights, 0, ws).empty());
}

TEST(BasicDp, PaperFigure2Example) {
  // Free capacity 10, queue sizes 7, 4, 6: the optimum is {4, 6}, skipping
  // the head — the scenario motivating Delayed-LOS.
  DpWorkspace ws;
  const std::vector<int> weights{7, 4, 6};
  const auto chosen = basic_dp(weights, 10, ws);
  EXPECT_EQ(vec(chosen), (std::vector<int>{1, 2}));
  EXPECT_EQ(total(weights, chosen), 10);
}

TEST(BasicDp, TakesEverythingWhenItFits) {
  DpWorkspace ws;
  const std::vector<int> weights{2, 3, 4};
  const auto chosen = basic_dp(weights, 10, ws);
  EXPECT_EQ(vec(chosen), (std::vector<int>{0, 1, 2}));
}

TEST(BasicDp, PrefersEarlierJobsOnTies) {
  DpWorkspace ws;
  // {4} vs {4}: first one wins.
  EXPECT_EQ(vec(basic_dp(std::vector<int>{4, 4}, 4, ws)),
            (std::vector<int>{0}));
  // {2,2} vs {4}: equal utilization; the set containing the head wins.
  EXPECT_EQ(vec(basic_dp(std::vector<int>{2, 4, 2}, 4, ws)),
            (std::vector<int>{0, 2}));
}

TEST(BasicDp, SkipsZeroAndOversizedItems) {
  DpWorkspace ws;
  const std::vector<int> weights{0, 15, 3};
  const auto chosen = basic_dp(weights, 10, ws);
  EXPECT_EQ(vec(chosen), (std::vector<int>{2}));
}

TEST(BasicDp, PropertyMatchesBruteForce) {
  util::Rng rng(101);
  DpWorkspace ws;
  for (int round = 0; round < 300; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const int capacity = static_cast<int>(rng.uniform_int(1, 30));
    std::vector<int> weights;
    for (int i = 0; i < n; ++i)
      weights.push_back(static_cast<int>(rng.uniform_int(1, 15)));
    const auto chosen = basic_dp(weights, capacity, ws);
    // Feasible…
    ASSERT_LE(total(weights, chosen), capacity);
    // …and optimal.
    ASSERT_EQ(total(weights, chosen), brute_force_best(weights, capacity))
        << "round " << round;
    // Indices ascending and unique.
    for (std::size_t i = 1; i < chosen.size(); ++i)
      ASSERT_LT(chosen[i - 1], chosen[i]);
  }
  // Wide tables, up to the granularity-1 M=4096 shape: weights well under
  // capacity so the optimum is a genuine subset choice, with zero-weight
  // and over-capacity items mixed in (both must be skipped).
  for (int round = 0; round < 60; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 14));
    const int capacity = static_cast<int>(rng.uniform_int(128, 4096));
    std::vector<int> weights;
    for (int i = 0; i < n; ++i) {
      const double kind = rng.uniform(0, 1);
      if (kind < 0.1)
        weights.push_back(0);
      else if (kind < 0.2)
        weights.push_back(capacity +
                          static_cast<int>(rng.uniform_int(1, 64)));
      else
        weights.push_back(static_cast<int>(rng.uniform_int(1, capacity / 2)));
    }
    const auto chosen = basic_dp(weights, capacity, ws);
    ASSERT_LE(total(weights, chosen), capacity);
    ASSERT_EQ(total(weights, chosen), brute_force_best(weights, capacity))
        << "wide round " << round;
    for (int index : chosen) {
      ASSERT_GT(weights[static_cast<std::size_t>(index)], 0);
      ASSERT_LE(weights[static_cast<std::size_t>(index)], capacity);
    }
    for (std::size_t i = 1; i < chosen.size(); ++i)
      ASSERT_LT(chosen[i - 1], chosen[i]);
  }
}

TEST(ReservationDp, ReducesToBasicWithUnboundedShadow) {
  util::Rng rng(55);
  DpWorkspace ws1, ws2;
  for (int round = 0; round < 50; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    const int capacity = static_cast<int>(rng.uniform_int(1, 25));
    std::vector<int> weights, zeros;
    for (int i = 0; i < n; ++i) {
      weights.push_back(static_cast<int>(rng.uniform_int(1, 12)));
      zeros.push_back(0);
    }
    const auto basic = vec(basic_dp(weights, capacity, ws1));
    const auto reservation =
        vec(reservation_dp(weights, zeros, capacity, 0, ws2));
    EXPECT_EQ(basic, reservation);
  }
}

TEST(ReservationDp, ShadowConstraintBindsCrossingJobs) {
  DpWorkspace ws;
  // Two jobs of 5; both cross the freeze; shadow capacity admits only one.
  const std::vector<int> weights{5, 5};
  const std::vector<int> shadows{5, 5};
  const auto chosen = reservation_dp(weights, shadows, 10, 5, ws);
  EXPECT_EQ(vec(chosen), (std::vector<int>{0}));
}

TEST(ReservationDp, MixesCrossingAndNonCrossingJobs) {
  DpWorkspace ws;
  // Job 0 crosses (shadow 6 > cap 5); jobs 1-2 end before the freeze.
  const std::vector<int> weights{6, 4, 5};
  const std::vector<int> shadows{6, 0, 0};
  const auto chosen = reservation_dp(weights, shadows, 10, 5, ws);
  // Best: {1, 2} = 9 now, no shadow use; including 0 would cap at 6+4=10
  // but shadow 6 > 5 excludes job 0 entirely.
  EXPECT_EQ(vec(chosen), (std::vector<int>{1, 2}));
}

TEST(ReservationDp, PaperSemanticsHeadReservationExample) {
  // Shmueli-style: head (not in items) reserved; shadow capacity 3.
  // Waiting: a 3-proc long job (crosses, shadow 3) and a 5-proc short job
  // (ends before freeze).  Both fit now (capacity 8) and together they
  // maximize utilization.
  DpWorkspace ws;
  const std::vector<int> weights{3, 5};
  const std::vector<int> shadows{3, 0};
  const auto chosen = reservation_dp(weights, shadows, 8, 3, ws);
  EXPECT_EQ(vec(chosen), (std::vector<int>{0, 1}));
}

TEST(ReservationDp, PropertyMatchesBruteForce) {
  util::Rng rng(202);
  DpWorkspace ws;
  for (int round = 0; round < 300; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    const int capacity = static_cast<int>(rng.uniform_int(1, 20));
    const int shadow_cap = static_cast<int>(rng.uniform_int(0, 15));
    std::vector<int> weights, shadows;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(1, 10));
      weights.push_back(w);
      shadows.push_back(rng.bernoulli(0.5) ? w : 0);  // frenum is 0 or w
    }
    const auto chosen = reservation_dp(weights, shadows, capacity, shadow_cap, ws);
    int sum = 0, shadow_sum = 0;
    for (int index : chosen) {
      sum += weights[static_cast<std::size_t>(index)];
      shadow_sum += shadows[static_cast<std::size_t>(index)];
    }
    ASSERT_LE(sum, capacity);
    ASSERT_LE(shadow_sum, shadow_cap);
    ASSERT_EQ(sum,
              brute_force_best_2d(weights, shadows, capacity, shadow_cap))
        << "round " << round;
  }
}

TEST(FastPath, BasicDpMatchesTablePathWhenEverythingFits) {
  util::Rng rng(303);
  DpWorkspace fast_ws, table_ws;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<int> weights;
    int demand = 0;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(0, 8));  // incl. zeros
      weights.push_back(w);
      demand += w;
    }
    // Capacity at or above total demand: the fast path must fire and select
    // exactly what the unconditional table fill selects.
    const int capacity =
        std::max(1, demand + static_cast<int>(rng.uniform_int(0, 5)));
    const auto before = fast_ws.counters.fast_path;
    const auto fast = vec(basic_dp(weights, capacity, fast_ws));
    ASSERT_EQ(fast_ws.counters.fast_path, before + 1) << "round " << round;
    const auto table =
        vec(detail::basic_dp_table(weights, capacity, table_ws));
    ASSERT_EQ(fast, table) << "round " << round;
  }
}

TEST(FastPath, ReservationDpMatchesTablePathWhenEverythingFits) {
  util::Rng rng(404);
  DpWorkspace fast_ws, table_ws;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    std::vector<int> weights, shadows;
    int demand = 0, shadow_demand = 0;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(0, 8));
      weights.push_back(w);
      const int s = rng.bernoulli(0.5) ? w : 0;
      shadows.push_back(s);
      demand += w;
      shadow_demand += s;
    }
    const int capacity =
        std::max(1, demand + static_cast<int>(rng.uniform_int(0, 5)));
    const int shadow_cap =
        shadow_demand + static_cast<int>(rng.uniform_int(0, 5));
    const auto before = fast_ws.counters.fast_path;
    const auto fast =
        vec(reservation_dp(weights, shadows, capacity, shadow_cap, fast_ws));
    ASSERT_EQ(fast_ws.counters.fast_path, before + 1) << "round " << round;
    const auto table = vec(detail::reservation_dp_table(
        weights, shadows, capacity, shadow_cap, table_ws));
    ASSERT_EQ(fast, table) << "round " << round;
  }
}

TEST(DpCounters, EveryCallIsCounted) {
  DpWorkspace ws;
  const std::vector<int> weights{2, 3};
  basic_dp(weights, 10, ws);              // fast path
  basic_dp(weights, 4, ws);               // table
  basic_dp(weights, 4, ws);               // table again: nothing memoized
  const std::vector<int> shadows{0, 0};
  reservation_dp(weights, shadows, 10, 0, ws);  // fast path
  EXPECT_EQ(ws.counters.calls, 4u);
  EXPECT_EQ(ws.counters.fast_path, 2u);
  EXPECT_EQ(ws.counters.table_runs, 2u);
  EXPECT_EQ(ws.counters.calls,
            ws.counters.fast_path + ws.counters.table_runs);
  EXPECT_GT(ws.counters.table_cells, 0u);
}

TEST(DpCounters, TableCellsCountTheLogicalTable) {
  // table_cells counts n x (C+1) [x (C2+1)] per table run, however much of
  // that table the bounded fill actually computes.
  DpWorkspace ws;
  const std::vector<int> weights{2, 3};
  basic_dp(weights, 4, ws);
  EXPECT_EQ(ws.counters.table_cells, 2u * 5u);
  const std::vector<int> reservation_weights{3, 4, 5};
  const std::vector<int> shadows{3, 0, 5};
  reservation_dp(reservation_weights, shadows, 6, 4, ws);
  EXPECT_EQ(ws.counters.table_cells, 2u * 5u + 3u * 7u * 5u);
  // All-zero shadows: the stored table has one shadow column, the logical
  // one still C2 + 1.
  const std::vector<int> zeros{0, 0, 0};
  reservation_dp(reservation_weights, zeros, 6, 9, ws);
  EXPECT_EQ(ws.counters.table_cells,
            2u * 5u + 3u * 7u * 5u + 3u * 7u * 10u);
  EXPECT_EQ(ws.counters.table_runs, 3u);
}

TEST(ReservationDp, WorkspaceReuseIsClean) {
  DpWorkspace ws;
  const std::vector<int> big{9, 9, 9};
  const std::vector<int> zeros{0, 0, 0};
  reservation_dp(big, zeros, 27, 10, ws);
  // A smaller follow-up problem must not see stale state.
  const std::vector<int> weights{2, 3};
  const std::vector<int> shadows{0, 0};
  const auto chosen = reservation_dp(weights, shadows, 5, 1, ws);
  EXPECT_EQ(vec(chosen), (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// Exact-selection oracle.  The production fills compute only the reachable
// box of the table; these are the unbounded in-place fills they replaced,
// kept here as the reference.  The result digests depend on which of several
// tied optimal sets is chosen, so the selections must be identical, not just
// equally good.

std::int64_t reference_value(int weight, std::size_t index, std::size_t n) {
  const auto base =
      static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n) + 1;
  return static_cast<std::int64_t>(weight) * base +
         static_cast<std::int64_t>(n - index);
}

std::vector<int> reference_basic(const std::vector<int>& weights,
                                 int capacity) {
  const std::size_t n = weights.size();
  if (n == 0 || capacity == 0) return {};
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  std::vector<std::int64_t> value(cols, 0);
  std::vector<bool> keep(n * cols, false);
  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    if (w == 0 || w > capacity) continue;
    const std::int64_t v = reference_value(w, i, n);
    for (std::size_t c = cols - 1; c >= static_cast<std::size_t>(w); --c) {
      const std::int64_t candidate = value[c - static_cast<std::size_t>(w)] + v;
      if (candidate > value[c]) {
        value[c] = candidate;
        keep[i * cols + c] = true;
      }
    }
  }
  std::vector<int> selected;
  std::size_t c = cols - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (keep[i * cols + c]) {
      selected.push_back(static_cast<int>(i));
      c -= static_cast<std::size_t>(weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

std::vector<int> reference_reservation(const std::vector<int>& weights,
                                       const std::vector<int>& shadows,
                                       int capacity, int shadow_capacity) {
  const std::size_t n = weights.size();
  if (n == 0 || capacity == 0) return {};
  const std::size_t c1 = static_cast<std::size_t>(capacity) + 1;
  const std::size_t c2 = static_cast<std::size_t>(shadow_capacity) + 1;
  const std::size_t cells = c1 * c2;
  std::vector<std::int64_t> value(cells, 0);
  std::vector<bool> keep(n * cells, false);
  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    const int s = shadows[i];
    if (w == 0 || w > capacity || s > shadow_capacity) continue;
    const std::int64_t v = reference_value(w, i, n);
    for (std::size_t a = c1 - 1; a >= static_cast<std::size_t>(w); --a) {
      for (std::size_t b = c2 - 1; b >= static_cast<std::size_t>(s); --b) {
        const std::int64_t candidate =
            value[(a - static_cast<std::size_t>(w)) * c2 + b -
                  static_cast<std::size_t>(s)] +
            v;
        if (candidate > value[a * c2 + b]) {
          value[a * c2 + b] = candidate;
          keep[i * cells + a * c2 + b] = true;
        }
        if (b == 0) break;
      }
      if (a == 0) break;
    }
  }
  std::vector<int> selected;
  std::size_t a = c1 - 1;
  std::size_t b = c2 - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (keep[i * cells + a * c2 + b]) {
      selected.push_back(static_cast<int>(i));
      a -= static_cast<std::size_t>(weights[i]);
      b -= static_cast<std::size_t>(shadows[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

/// Tie-heavy weights: drawn from a small palette (so many subsets reach
/// the same sum), with zero-weight and over-capacity items mixed in.
std::vector<int> tie_heavy_weights(util::Rng& rng, int n, int capacity) {
  std::vector<int> palette;
  const int kinds = static_cast<int>(rng.uniform_int(1, 4));
  for (int k = 0; k < kinds; ++k)
    palette.push_back(static_cast<int>(
        rng.uniform_int(1, std::max(1, capacity / 2))));
  std::vector<int> weights;
  for (int i = 0; i < n; ++i) {
    const double kind = rng.uniform(0, 1);
    if (kind < 0.08)
      weights.push_back(0);
    else if (kind < 0.14)
      weights.push_back(capacity + static_cast<int>(rng.uniform_int(1, 8)));
    else if (kind < 0.2)
      weights.push_back(static_cast<int>(rng.uniform_int(1, capacity)));
    else
      weights.push_back(palette[static_cast<std::size_t>(
          rng.uniform_int(0, kinds - 1))]);
  }
  return weights;
}

/// Shadows as the schedulers build them: 0 or the job's weight.
std::vector<int> crossing_shadows(util::Rng& rng,
                                  const std::vector<int>& weights,
                                  double crossing) {
  std::vector<int> shadows;
  for (int w : weights) shadows.push_back(rng.bernoulli(crossing) ? w : 0);
  return shadows;
}

TEST(DpOracle, BasicTableSelectsExactlyAsTheUnboundedFill) {
  util::Rng rng(5150);
  DpWorkspace ws;
  for (int round = 0; round < 20000; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 14));
    const int capacity = static_cast<int>(rng.uniform_int(1, 40));
    const auto weights = tie_heavy_weights(rng, n, capacity);
    ASSERT_EQ(vec(detail::basic_dp_table(weights, capacity, ws)),
              reference_basic(weights, capacity))
        << "round " << round;
  }
  // Wide tables, up to the granularity-1 M=4096 shape.
  for (int round = 0; round < 120; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 60));
    const int capacity = static_cast<int>(rng.uniform_int(128, 4096));
    const auto weights = tie_heavy_weights(rng, n, capacity);
    ASSERT_EQ(vec(detail::basic_dp_table(weights, capacity, ws)),
              reference_basic(weights, capacity))
        << "wide round " << round;
  }
}

TEST(DpOracle, ReservationTableSelectsExactlyAsTheUnboundedFill) {
  util::Rng rng(6160);
  DpWorkspace ws;
  for (int round = 0; round < 20000; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const int capacity = static_cast<int>(rng.uniform_int(1, 30));
    const int shadow_cap = static_cast<int>(rng.uniform_int(0, 30));
    const auto weights = tie_heavy_weights(rng, n, capacity);
    const auto shadows =
        crossing_shadows(rng, weights, rng.uniform(0, 1));  // s > C2 too
    ASSERT_EQ(vec(detail::reservation_dp_table(weights, shadows, capacity,
                                               shadow_cap, ws)),
              reference_reservation(weights, shadows, capacity, shadow_cap))
        << "round " << round;
  }
  // Wide tables: most shadows zero and shadow capacity near capacity, the
  // shape of the granularity-1 M=4096 runs, up to about 600 x 600.
  for (int round = 0; round < 24; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    const int capacity = static_cast<int>(rng.uniform_int(64, 600));
    const int shadow_cap = static_cast<int>(
        rng.uniform_int(capacity / 2, std::min(600, capacity + 32)));
    const auto weights = tie_heavy_weights(rng, n, capacity);
    const auto shadows = crossing_shadows(rng, weights, 0.2);
    ASSERT_EQ(vec(detail::reservation_dp_table(weights, shadows, capacity,
                                               shadow_cap, ws)),
              reference_reservation(weights, shadows, capacity, shadow_cap))
        << "wide round " << round;
  }
}

TEST(DpOracle, EdgeShapesSelectExactlyAsTheUnboundedFill) {
  util::Rng rng(7170);
  DpWorkspace ws;
  for (int round = 0; round < 2000; ++round) {
    const int capacity = static_cast<int>(rng.uniform_int(1, 24));
    const int shadow_cap = static_cast<int>(rng.uniform_int(0, 24));
    // Single-item tables.
    const std::vector<int> one{static_cast<int>(rng.uniform_int(0, 30))};
    const auto one_shadow = crossing_shadows(rng, one, 0.5);
    ASSERT_EQ(vec(detail::basic_dp_table(one, capacity, ws)),
              reference_basic(one, capacity));
    ASSERT_EQ(vec(detail::reservation_dp_table(one, one_shadow, capacity,
                                               shadow_cap, ws)),
              reference_reservation(one, one_shadow, capacity, shadow_cap));
    // Usable totals at or below capacity: the table's stored box is offset
    // (and may be a single column) yet must select what the full one does.
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    std::vector<int> weights;
    int room = capacity;
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(rng.uniform_int(0, std::max(0, room)));
      weights.push_back(rng.bernoulli(0.15) ? capacity + 1 : w);
      room -= w;
    }
    const auto shadows = crossing_shadows(rng, weights, 0.5);
    ASSERT_EQ(vec(detail::basic_dp_table(weights, capacity, ws)),
              reference_basic(weights, capacity))
        << "round " << round;
    ASSERT_EQ(vec(detail::reservation_dp_table(weights, shadows, capacity,
                                               shadow_cap, ws)),
              reference_reservation(weights, shadows, capacity, shadow_cap))
        << "round " << round;
  }
}

}  // namespace
}  // namespace es::core
