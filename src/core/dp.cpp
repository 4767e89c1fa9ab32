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
inline void keep_set(DpWorkspace& ws, std::size_t bit) {
  ws.keep[bit >> 6] |= std::uint64_t{1} << (bit & 63);
}
inline bool keep_get(const DpWorkspace& ws, std::size_t bit) {
  return (ws.keep[bit >> 6] >> (bit & 63)) & 1;
}

/// Fast path: when every positive-weight item fits together (total demand
/// <= capacity, and total shadow demand <= shadow capacity), "take them
/// all" is the unique optimum — each item adds its full weight of primary
/// value plus a positive tie-break term, so no proper subset can match it.
/// Returns true and fills `selected` (ascending) when it applies.
bool fits_entirely(std::span<const int> weights,
                   std::span<const int> shadow_weights, int capacity,
                   int shadow_capacity, std::vector<int>& selected) {
  std::int64_t total = 0;
  std::int64_t shadow_total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const int w = weights[i];
    ES_EXPECTS(w >= 0);
    if (w == 0) continue;
    total += w;
    if (!shadow_weights.empty()) shadow_total += shadow_weights[i];
  }
  if (total > capacity || shadow_total > shadow_capacity) return false;
  selected.clear();
  for (std::size_t i = 0; i < weights.size(); ++i)
    if (weights[i] > 0) selected.push_back(static_cast<int>(i));
  return true;
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

}  // namespace

namespace detail {

std::vector<int> basic_dp_table(std::span<const int> weights, int capacity,
                                DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  const std::size_t n = weights.size();
  if (n == 0 || capacity == 0) return {};
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  TableTimer timer(ws);
  const std::int64_t base = priority_base(n);
  ws.value.assign(cols, 0);
  keep_clear(ws, n * cols);
  ++ws.counters.table_runs;
  ws.counters.table_cells += n * cols;

  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    ES_EXPECTS(w >= 0);
    if (w == 0 || w > capacity) continue;
    const std::int64_t v = item_value(w, i, n, base);
    for (std::size_t c = cols - 1; c >= static_cast<std::size_t>(w); --c) {
      const std::int64_t candidate = ws.value[c - static_cast<std::size_t>(w)] + v;
      if (candidate > ws.value[c]) {
        ws.value[c] = candidate;
        keep_set(ws, i * cols + c);
      }
    }
  }

  std::vector<int> selected;
  std::size_t c = cols - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (keep_get(ws, i * cols + c)) {
      selected.push_back(static_cast<int>(i));
      c -= static_cast<std::size_t>(weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

std::vector<int> reservation_dp_table(std::span<const int> weights,
                                      std::span<const int> shadow_weights,
                                      int capacity, int shadow_capacity,
                                      DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ES_EXPECTS(shadow_capacity >= 0);
  ES_EXPECTS(weights.size() == shadow_weights.size());
  const std::size_t n = weights.size();
  if (n == 0 || capacity == 0) return {};
  TableTimer timer(ws);
  const std::int64_t base = priority_base(n);
  const std::size_t c1 = static_cast<std::size_t>(capacity) + 1;
  const std::size_t c2 = static_cast<std::size_t>(shadow_capacity) + 1;
  const std::size_t cells = c1 * c2;

  ws.value.assign(cells, 0);
  keep_clear(ws, n * cells);
  ++ws.counters.table_runs;
  ws.counters.table_cells += n * cells;
  auto cell = [c2](std::size_t a, std::size_t b) { return a * c2 + b; };

  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    const int s = shadow_weights[i];
    ES_EXPECTS(w >= 0 && s >= 0);
    ES_EXPECTS(s == 0 || s == w);  // frenum is 0 or the job size
    if (w == 0 || w > capacity || s > shadow_capacity) continue;
    const std::int64_t v = item_value(w, i, n, base);
    for (std::size_t a = c1 - 1; a >= static_cast<std::size_t>(w); --a) {
      for (std::size_t b = c2 - 1; b >= static_cast<std::size_t>(s); --b) {
        const std::int64_t candidate =
            ws.value[cell(a - static_cast<std::size_t>(w),
                          b - static_cast<std::size_t>(s))] +
            v;
        if (candidate > ws.value[cell(a, b)]) {
          ws.value[cell(a, b)] = candidate;
          keep_set(ws, i * cells + cell(a, b));
        }
        if (b == 0) break;  // avoid size_t underflow
      }
      if (a == 0) break;
    }
  }

  std::vector<int> selected;
  std::size_t a = c1 - 1;
  std::size_t b = c2 - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (keep_get(ws, i * cells + cell(a, b))) {
      selected.push_back(static_cast<int>(i));
      a -= static_cast<std::size_t>(weights[i]);
      b -= static_cast<std::size_t>(shadow_weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

}  // namespace detail

std::vector<int> basic_dp(std::span<const int> weights, int capacity,
                          DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ++ws.counters.calls;
  if (weights.empty() || capacity == 0) {
    ++ws.counters.fast_path;  // trivially empty: no table
    return {};
  }

  std::vector<int> selected;
  if (fits_entirely(weights, {}, capacity, 0, selected)) {
    ++ws.counters.fast_path;
    return selected;
  }
  return detail::basic_dp_table(weights, capacity, ws);
}

std::vector<int> reservation_dp(std::span<const int> weights,
                                std::span<const int> shadow_weights,
                                int capacity, int shadow_capacity,
                                DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  ES_EXPECTS(shadow_capacity >= 0);
  ES_EXPECTS(weights.size() == shadow_weights.size());
  ++ws.counters.calls;
  if (weights.empty() || capacity == 0) {
    ++ws.counters.fast_path;  // trivially empty: no table
    return {};
  }

  std::vector<int> selected;
  if (fits_entirely(weights, shadow_weights, capacity, shadow_capacity,
                    selected)) {
    ++ws.counters.fast_path;
    return selected;
  }
  return detail::reservation_dp_table(weights, shadow_weights, capacity,
                                      shadow_capacity, ws);
}

}  // namespace es::core
