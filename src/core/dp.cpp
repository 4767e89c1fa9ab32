#include "core/dp.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

// Explicit-SIMD row update: compiled only on x86-64 and only when the build
// enables it (ES_DP_SIMD, default on).  Per-function target attributes keep
// the rest of the translation unit at the baseline ISA; the host's actual
// support is probed once at runtime.
#if defined(ES_DP_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define ES_DP_SIMD_X86 1
#include <immintrin.h>
#else
#define ES_DP_SIMD_X86 0
#endif

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

std::atomic<bool> g_dp_simd_enabled{true};

DpSimdLevel detect_dp_simd_level() {
#if ES_DP_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return DpSimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return DpSimdLevel::kSse42;
#endif
  return DpSimdLevel::kScalar;
}

}  // namespace

DpSimdLevel dp_simd_level() {
  static const DpSimdLevel detected = detect_dp_simd_level();
  return g_dp_simd_enabled.load(std::memory_order_relaxed)
             ? detected
             : DpSimdLevel::kScalar;
}

void set_dp_simd_enabled(bool enabled) {
  g_dp_simd_enabled.store(enabled, std::memory_order_relaxed);
}

bool dp_simd_enabled() {
  return g_dp_simd_enabled.load(std::memory_order_relaxed);
}

const char* dp_simd_level_name(DpSimdLevel level) {
  switch (level) {
    case DpSimdLevel::kAvx2:
      return "avx2";
    case DpSimdLevel::kSse42:
      return "sse4.2";
    case DpSimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

namespace detail {

namespace {

// --- Basic_DP row update kernels ----------------------------------------
//
// One double-buffered row step over the column span [lo, hi): for item
// (w, v), cur[c] = max(prev[c], prev[c - w] + v), recording a keep bit
// where the candidate wins.  `keep_row` points at the row's first keep
// word (the row base is a multiple of 64, so bit c of the row is bit
// (c & 63) of keep_row[c >> 6]).  All tiers compute this identical
// recurrence; the SIMD tiers batch 64 columns per keep-word store, with
// scalar prologue/epilogue for the unaligned fringes (|= into words the
// batched stores never touch — the store target is always a whole,
// exclusively-owned word over a cleared table).
void fill_row_scalar(const std::int64_t* prev, std::int64_t* cur,
                     std::uint64_t* keep_row, std::size_t lo, std::size_t hi,
                     std::size_t w, std::int64_t v) {
  std::size_t c = lo;
  for (const std::size_t skip = std::min(hi, w); c < skip; ++c)
    cur[c] = prev[c];
  for (; c < hi; ++c) {
    const std::int64_t candidate = prev[c - w] + v;
    if (candidate > prev[c]) {
      cur[c] = candidate;
      keep_row[c >> 6] |= std::uint64_t{1} << (c & 63);
    } else {
      cur[c] = prev[c];
    }
  }
}

#if ES_DP_SIMD_X86

__attribute__((target("avx2"))) void fill_row_avx2(
    const std::int64_t* prev, std::int64_t* cur, std::uint64_t* keep_row,
    std::size_t lo, std::size_t hi, std::size_t w, std::int64_t v) {
  std::size_t c = lo;
  for (const std::size_t skip = std::min(hi, w); c < skip; ++c)
    cur[c] = prev[c];
  const auto scalar_step = [&](std::size_t col) {
    const std::int64_t candidate = prev[col - w] + v;
    if (candidate > prev[col]) {
      cur[col] = candidate;
      keep_row[col >> 6] |= std::uint64_t{1} << (col & 63);
    } else {
      cur[col] = prev[col];
    }
  };
  for (; c < hi && (c & 63) != 0; ++c) scalar_step(c);
  const __m256i vv = _mm256_set1_epi64x(v);
  for (; c + 64 <= hi; c += 64) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 64; k += 4) {
      const __m256i p = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(prev + c + k));
      const __m256i donor = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(prev + c + k - w));
      const __m256i cand = _mm256_add_epi64(donor, vv);
      // Values are non-negative and bounded far below 2^63 (weight * base
      // + tie-break over <= a few thousand items), so the signed 64-bit
      // compare is exact.
      const __m256i take = _mm256_cmpgt_epi64(cand, p);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + c + k),
                          _mm256_blendv_epi8(p, cand, take));
      word |= static_cast<std::uint64_t>(static_cast<unsigned>(
                  _mm256_movemask_pd(_mm256_castsi256_pd(take))))
              << k;
    }
    keep_row[c >> 6] = word;
  }
  for (; c < hi; ++c) scalar_step(c);
}

__attribute__((target("sse4.2"))) void fill_row_sse42(
    const std::int64_t* prev, std::int64_t* cur, std::uint64_t* keep_row,
    std::size_t lo, std::size_t hi, std::size_t w, std::int64_t v) {
  std::size_t c = lo;
  for (const std::size_t skip = std::min(hi, w); c < skip; ++c)
    cur[c] = prev[c];
  const auto scalar_step = [&](std::size_t col) {
    const std::int64_t candidate = prev[col - w] + v;
    if (candidate > prev[col]) {
      cur[col] = candidate;
      keep_row[col >> 6] |= std::uint64_t{1} << (col & 63);
    } else {
      cur[col] = prev[col];
    }
  };
  for (; c < hi && (c & 63) != 0; ++c) scalar_step(c);
  const __m128i vv = _mm_set1_epi64x(v);
  for (; c + 64 <= hi; c += 64) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 64; k += 2) {
      const __m128i p =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(prev + c + k));
      const __m128i donor = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(prev + c + k - w));
      const __m128i cand = _mm_add_epi64(donor, vv);
      const __m128i take = _mm_cmpgt_epi64(cand, p);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(cur + c + k),
                       _mm_blendv_epi8(p, cand, take));
      word |= static_cast<std::uint64_t>(static_cast<unsigned>(
                  _mm_movemask_pd(_mm_castsi128_pd(take))))
              << k;
    }
    keep_row[c >> 6] = word;
  }
  for (; c < hi; ++c) scalar_step(c);
}

#endif  // ES_DP_SIMD_X86

using RowFill = void (*)(const std::int64_t*, std::int64_t*, std::uint64_t*,
                         std::size_t, std::size_t, std::size_t, std::int64_t);

RowFill pick_row_fill() {
  switch (dp_simd_level()) {
#if ES_DP_SIMD_X86
    case DpSimdLevel::kAvx2:
      return fill_row_avx2;
    case DpSimdLevel::kSse42:
      return fill_row_sse42;
#endif
    default:
      return fill_row_scalar;
  }
}

/// Column width of one parallel block.  Large enough that a block's fill
/// amortizes the pool dispatch, and a multiple of 64 so every block's keep
/// bits land in its own words (the row stride is also 64-aligned).
constexpr std::size_t kBlockCols = 8192;

/// Minimum table width for the SIMD row update to pay off.  Below this the
/// in-place scalar loop wins on locality (the paper's BlueGene/P shape is
/// 11 columns); at or above it the double-buffered fill with the vector
/// kernel wins even single-threaded.
constexpr std::size_t kSimdCols = 128;

/// Blocked double-buffered fill for wide Basic_DP tables.  Row i is
/// computed from row i-1 (`prev` -> `cur`) tile by tile; tiles are
/// independent because cell c only reads prev[c] and prev[c - w].  Each
/// tile writes a disjoint cur range and — because both the tile origin and
/// the keep-row stride are multiples of 64 — disjoint keep words, so the
/// tiles of one row can fan out across the thread pool race-free.  The
/// recurrence is the exact in-place recurrence of the serial fill (the
/// descending in-place loop reads only not-yet-written cells, i.e. the
/// previous row), so selections are identical by construction; the
/// equivalence is additionally gated by tests and the perf_baseline
/// parallel-DP leg.  The per-tile row update dispatches to the widest
/// SIMD tier the host supports (see fill_row_* above) — every tier
/// computes the same recurrence, so the dispatch cannot change selections.
std::vector<int> basic_dp_table_blocked(std::span<const int> weights,
                                        int capacity, DpWorkspace& ws) {
  const std::size_t n = weights.size();
  const std::int64_t base = priority_base(n);
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  const std::size_t stride = (cols + 63) & ~std::size_t{63};
  const std::size_t blocks = (cols + kBlockCols - 1) / kBlockCols;
  const RowFill fill = pick_row_fill();

  ws.value.assign(cols, 0);
  ws.value2.assign(cols, 0);
  keep_clear(ws, n * stride);
  ++ws.counters.table_runs;
  ws.counters.table_cells += n * cols;  // logical cells, same as serial

  for (std::size_t i = 0; i < n; ++i) {
    const int w = weights[i];
    ES_EXPECTS(w >= 0);
    if (w == 0 || w > capacity) continue;  // row carries over: no swap
    const std::size_t sw = static_cast<std::size_t>(w);
    const std::int64_t v = item_value(w, i, n, base);
    const std::int64_t* prev = ws.value.data();
    std::int64_t* cur = ws.value2.data();
    std::uint64_t* keep_row = ws.keep.data() + (i * stride) / 64;
    util::parallel_for_each(blocks, [&](std::size_t block) {
      const std::size_t lo = block * kBlockCols;
      const std::size_t hi = std::min(cols, lo + kBlockCols);
      fill(prev, cur, keep_row, lo, hi, sw, v);
    });
    std::swap(ws.value, ws.value2);
  }

  std::vector<int> selected;
  std::size_t c = cols - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (keep_get(ws, i * stride + c)) {
      selected.push_back(static_cast<int>(i));
      c -= static_cast<std::size_t>(weights[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

}  // namespace

std::vector<int> basic_dp_table(std::span<const int> weights, int capacity,
                                DpWorkspace& ws) {
  ES_EXPECTS(capacity >= 0);
  const std::size_t n = weights.size();
  if (n == 0 || capacity == 0) return {};
  const std::size_t cols = static_cast<std::size_t>(capacity) + 1;
  TableTimer timer(ws);

  // Wide tables (far beyond the BlueGene/P 11-column shape) go through the
  // blocked fill: parallel when a pool is up, and vectorized from a lower
  // width threshold when the host has a SIMD tier — the double-buffered
  // row update is what the vector kernels implement.  Narrow tables keep
  // the in-place single-buffer loop — better locality, no barrier per row.
  const bool wide_parallel =
      cols >= kBlockCols && util::global_parallelism() > 1;
  const bool wide_simd =
      cols >= kSimdCols && dp_simd_level() != DpSimdLevel::kScalar;
  if (wide_parallel || wide_simd)
    return basic_dp_table_blocked(weights, capacity, ws);

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
