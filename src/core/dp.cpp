#include "core/dp.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace es::core {
namespace {

/// Secondary-objective encoding: value = weight * kPriorityBase + (n - i),
/// so any extra grain of utilization dominates, and among equal-utilization
/// sets the one containing earlier (and more) jobs wins.  kPriorityBase must
/// exceed the largest possible secondary sum.
std::int64_t priority_base(std::size_t n) {
  return static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n) + 1;
}

std::int64_t item_value(int weight, std::size_t index, std::size_t n,
                        std::int64_t base) {
  return static_cast<std::int64_t>(weight) * base +
         static_cast<std::int64_t>(n - index);
}

// Bitpacked keep table: one take/skip bit per (item, cell).
void keep_clear(DpWorkspace& ws, std::size_t bits) {
  ws.keep.assign((bits + 63) / 64, 0);
}
inline void keep_set(std::uint64_t* keep, std::size_t bit) {
  keep[bit >> 6] |= std::uint64_t{1} << (bit & 63);
}
/// Sets bits [first, end); requires first < end.
inline void keep_set_run(std::uint64_t* keep, std::size_t first,
                         std::size_t end) {
  const std::size_t last_word = (end - 1) >> 6;
  std::size_t word = first >> 6;
  std::uint64_t mask = ~std::uint64_t{0} << (first & 63);
  for (; word < last_word; ++word) {
    keep[word] |= mask;
    mask = ~std::uint64_t{0};
  }
  keep[word] |= mask & (~std::uint64_t{0} >> (63 - ((end - 1) & 63)));
}
inline bool keep_get(const DpWorkspace& ws, std::size_t bit) {
  return (ws.keep[bit >> 6] >> (bit & 63)) & 1;
}

/// An item the table can hold: positive weight within the capacity and
/// shadow weight within the shadow capacity.  Every other item is skipped.
inline bool usable(int w, int s, int capacity, int shadow_capacity) {
  return w > 0 && w <= capacity && s <= shadow_capacity;
}

/// Total usable demand in both dimensions, from one pass over the items.
/// It decides the fast path and bounds the table fill below.
struct Demand {
  std::int64_t weight = 0;
  std::int64_t shadow = 0;
  bool all_usable = true;  ///< no positive-weight item is unusable

  /// When every positive-weight item fits together, "take them all" is the
  /// unique optimum — each item adds its full weight of primary value plus
  /// a positive tie-break term, so no proper subset can match it.
  bool fits(int capacity, int shadow_capacity) const {
    return all_usable && weight <= capacity && shadow <= shadow_capacity;
  }
};

Demand usable_demand(std::span<const int> weights,
                     std::span<const int> shadow_weights, int capacity,
                     int shadow_capacity) {
  Demand demand;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const int w = weights[i];
    const int s = shadow_weights.empty() ? 0 : shadow_weights[i];
    ES_EXPECTS(w >= 0 && s >= 0);
    if (w == 0) continue;
    if (!usable(w, s, capacity, shadow_capacity)) {
      demand.all_usable = false;
      continue;
    }
    demand.weight += w;
    demand.shadow += s;
  }
  return demand;
}

/// The fast path's answer: every positive-weight item, ascending.
std::span<const int> select_all(std::span<const int> weights,
                                DpWorkspace& ws) {
  ws.selected.clear();
  for (std::size_t i = 0; i < weights.size(); ++i)
    if (weights[i] > 0) ws.selected.push_back(static_cast<int>(i));
  return ws.selected;
}

std::span<const int> select_none(DpWorkspace& ws) {
  ws.selected.clear();
  return ws.selected;
}

/// Lowest column the backtrack can reach in one dimension: it starts at
/// `capacity` and every take lowers it by a usable weight.
std::int64_t reach_floor(int capacity, std::int64_t usable_total) {
  return capacity - std::min<std::int64_t>(capacity, usable_total);
}

/// Scope timer accumulating into DpCounters::table_seconds — the
/// denominator behind `simrun --perf-report`'s ns-per-DP-invocation row.
class TableTimer {
 public:
  explicit TableTimer(DpWorkspace& ws)
      : ws_(&ws), start_(std::chrono::steady_clock::now()) {}
  TableTimer(const TableTimer&) = delete;
  TableTimer& operator=(const TableTimer&) = delete;
  ~TableTimer() {
    ws_->counters.table_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }

 private:
  DpWorkspace* ws_;
  std::chrono::steady_clock::time_point start_;
};

// The table fills below store only the reachable box.  For usable item i
// let P_i be the usable weight up to and including i and R_i the usable
// weight after it.  The backtrack reaches row i at columns >= C - R_i, and
// row i reads the previous row at >= C - R_(i-1), so columns below
// C - min(C, R_total) are never stored.  At columns >= P_i every usable
// item so far fits: the cell holds the running all-items value and keeps
// item i, with no compare.  Only [max(w_i, C - R_i), min(C, P_i - 1)] runs
// the compare.  Reservation_DP applies the bounds per dimension; its
// take-all region is the corner a >= P1_i, b >= P2_i.

std::span<const int> basic_table(std::span<const int> weights, int capacity,
                                 const Demand& demand, DpWorkspace& ws) {
  const std::size_t n = weights.size();
  TableTimer timer(ws);
  ++ws.counters.table_runs;
  ws.counters.table_cells += n * (static_cast<std::size_t>(capacity) + 1);

  // Columns are stored from `low` up: column c lives at x = c - low.
  const std::int64_t low = reach_floor(capacity, demand.weight);
  const auto width = static_cast<std::size_t>(capacity - low + 1);
  auto col = [low](std::int64_t c) {
    return static_cast<std::size_t>(c - low);
  };
  ws.value.assign(width, 0);
  keep_clear(ws, n * width);
  std::int64_t* const value = ws.value.data();
  std::uint64_t* const keep = ws.keep.data();

  const std::int64_t base = priority_base(n);
  std::int64_t after = demand.weight;  // R_i
  std::int64_t through = 0;            // P_i
  std::int64_t all_value = 0;          // value of items 0..i together
  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    if (!usable(w, 0, capacity, 0)) continue;
    after -= w;
    through += w;
    const std::int64_t v = item_value(w, i, n, base);
    all_value += v;
    // Compare over [lo, P_i - 1]; take everything from P_i up.
    const std::int64_t lo = std::max<std::int64_t>(w, capacity - after);
    const std::size_t first = col(lo);
    const auto wx = static_cast<std::size_t>(w);
    ES_ASSERT(first >= wx);  // the compare reads only stored cells
    const std::size_t take_all =
        col(std::min<std::int64_t>(std::max(lo, through), capacity + 1));
    const std::size_t row = i * width;
    if (take_all < width) {
      std::fill(value + take_all, value + width, all_value);
      keep_set_run(keep, row + take_all, row + width);
    }
    for (std::size_t x = take_all; x-- > first;) {
      const std::int64_t candidate = value[x - wx] + v;
      if (candidate > value[x]) {
        value[x] = candidate;
        keep_set(keep, row + x);
      }
    }
  }

  ws.selected.clear();
  std::int64_t c = capacity;
  for (std::size_t i = n; i-- > 0;) {
    if (keep_get(ws, i * width + col(c))) {
      ws.selected.push_back(static_cast<int>(i));
      c -= weights[i];
    }
  }
  std::reverse(ws.selected.begin(), ws.selected.end());
  return ws.selected;
}

std::span<const int> reservation_table(std::span<const int> weights,
                                       std::span<const int> shadow_weights,
                                       int capacity, int shadow_capacity,
                                       const Demand& demand,
                                       DpWorkspace& ws) {
  const std::size_t n = weights.size();
  TableTimer timer(ws);
  ++ws.counters.table_runs;
  ws.counters.table_cells += n * (static_cast<std::size_t>(capacity) + 1) *
                             (static_cast<std::size_t>(shadow_capacity) + 1);

  // Cell (a, b) is stored at (a - low1) * width2 + (b - low2).
  const std::int64_t low1 = reach_floor(capacity, demand.weight);
  const std::int64_t low2 = reach_floor(shadow_capacity, demand.shadow);
  const auto width1 = static_cast<std::size_t>(capacity - low1 + 1);
  const auto width2 = static_cast<std::size_t>(shadow_capacity - low2 + 1);
  const std::size_t cells = width1 * width2;
  auto col1 = [low1](std::int64_t a) {
    return static_cast<std::size_t>(a - low1);
  };
  auto col2 = [low2](std::int64_t b) {
    return static_cast<std::size_t>(b - low2);
  };
  ws.value.assign(cells, 0);
  keep_clear(ws, n * cells);
  std::int64_t* const value = ws.value.data();
  std::uint64_t* const keep = ws.keep.data();

  const std::int64_t base = priority_base(n);
  std::int64_t after1 = demand.weight;  // R1_i
  std::int64_t after2 = demand.shadow;  // R2_i
  std::int64_t through1 = 0;            // P1_i
  std::int64_t through2 = 0;            // P2_i
  std::int64_t all_value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    const int s = shadow_weights[i];
    ES_EXPECTS(s == 0 || s == w);  // frenum is 0 or the job size
    if (!usable(w, s, capacity, shadow_capacity)) continue;
    after1 -= w;
    after2 -= s;
    through1 += w;
    through2 += s;
    const std::int64_t v = item_value(w, i, n, base);
    all_value += v;
    const std::int64_t lo1 = std::max<std::int64_t>(w, capacity - after1);
    const std::int64_t lo2 =
        std::max<std::int64_t>(s, shadow_capacity - after2);
    const std::size_t first1 = col1(lo1);
    const std::size_t first2 = col2(lo2);
    ES_ASSERT(first1 >= static_cast<std::size_t>(w) &&
              first2 >= static_cast<std::size_t>(s));
    // Capacity rows from P1_i up take everything from shadow column P2_i up.
    const std::size_t take_all1 =
        col1(std::min<std::int64_t>(std::max(lo1, through1), capacity + 1));
    const std::size_t take_all2 = col2(
        std::min<std::int64_t>(std::max(lo2, through2), shadow_capacity + 1));
    const std::size_t shift = static_cast<std::size_t>(w) * width2 +
                              static_cast<std::size_t>(s);
    const std::size_t row = i * cells;
    for (std::size_t x1 = width1; x1-- > first1;) {
      const std::size_t at = x1 * width2;
      std::size_t compare_end = width2;
      if (x1 >= take_all1) {
        compare_end = take_all2;
        if (take_all2 < width2) {
          std::fill(value + at + take_all2, value + at + width2, all_value);
          keep_set_run(keep, row + at + take_all2, row + at + width2);
        }
      }
      for (std::size_t x = at + compare_end; x-- > at + first2;) {
        const std::int64_t candidate = value[x - shift] + v;
        if (candidate > value[x]) {
          value[x] = candidate;
          keep_set(keep, row + x);
        }
      }
    }
  }

  ws.selected.clear();
  std::int64_t a = capacity;
  std::int64_t b = shadow_capacity;
  for (std::size_t i = n; i-- > 0;) {
    if (keep_get(ws, i * cells + col1(a) * width2 + col2(b))) {
      ws.selected.push_back(static_cast<int>(i));
      a -= weights[i];
      b -= shadow_weights[i];
    }
  }
  std::reverse(ws.selected.begin(), ws.selected.end());
  return ws.selected;
}

}  // namespace

namespace detail {

std::span<const int> basic_dp_table(std::span<const int> weights,
                                    int capacity, DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  if (weights.empty() || capacity == 0) return select_none(ws);
  return basic_table(weights, capacity,
                     usable_demand(weights, {}, capacity, 0), ws);
}

std::span<const int> reservation_dp_table(std::span<const int> weights,
                                          std::span<const int> shadow_weights,
                                          int capacity, int shadow_capacity,
                                          DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ES_EXPECTS(shadow_capacity >= 0);
  ES_EXPECTS(weights.size() == shadow_weights.size());
  if (weights.empty() || capacity == 0) return select_none(ws);
  return reservation_table(
      weights, shadow_weights, capacity, shadow_capacity,
      usable_demand(weights, shadow_weights, capacity, shadow_capacity), ws);
}

}  // namespace detail

std::span<const int> basic_dp(std::span<const int> weights, int capacity,
                              DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ++ws.counters.calls;
  if (weights.empty() || capacity == 0) {
    ++ws.counters.fast_path;  // trivially empty: no table
    return select_none(ws);
  }

  const Demand demand = usable_demand(weights, {}, capacity, 0);
  if (demand.fits(capacity, 0)) {
    ++ws.counters.fast_path;
    return select_all(weights, ws);
  }
  return basic_table(weights, capacity, demand, ws);
}

std::span<const int> reservation_dp(std::span<const int> weights,
                                    std::span<const int> shadow_weights,
                                    int capacity, int shadow_capacity,
                                    DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ES_EXPECTS(shadow_capacity >= 0);
  ES_EXPECTS(weights.size() == shadow_weights.size());
  ++ws.counters.calls;
  if (weights.empty() || capacity == 0) {
    ++ws.counters.fast_path;  // trivially empty: no table
    return select_none(ws);
  }

  const Demand demand =
      usable_demand(weights, shadow_weights, capacity, shadow_capacity);
  if (demand.fits(capacity, shadow_capacity)) {
    ++ws.counters.fast_path;
    return select_all(weights, ws);
  }
  return reservation_table(weights, shadow_weights, capacity, shadow_capacity,
                           demand, ws);
}

}  // namespace es::core
