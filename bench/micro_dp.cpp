// Microbenchmarks for the scheduling kernels (google-benchmark): the cost
// of Basic_DP / Reservation_DP as a function of queue length and capacity
// grains — the complexity discussion behind Shmueli's 50-job lookahead
// limit (paper section II) — and a whole-cycle comparison against EASY's
// linear scan.  The args mix capacities, so no single complexity curve is
// fitted across them.
#include <benchmark/benchmark.h>

#include "core/dp.hpp"
#include "exp/experiment.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

std::vector<int> random_weights(std::size_t n, int max_grains,
                                std::uint64_t seed) {
  es::util::Rng rng(seed);
  std::vector<int> weights;
  weights.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    weights.push_back(static_cast<int>(rng.uniform_int(1, max_grains)));
  return weights;
}

void BM_BasicDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int capacity = static_cast<int>(state.range(1));
  const auto weights = random_weights(n, capacity, 42);
  es::core::DpWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(es::core::basic_dp(weights, capacity, ws));
  }
}
// Queue length sweep at BlueGene/P capacity (10 grains), at a
// granularity-1 SP2 (128 grains) and at the granularity-1 wide machine
// (4096 grains: every processor of M=4096 its own grain).
BENCHMARK(BM_BasicDp)
    ->Args({10, 10})
    ->Args({50, 10})
    ->Args({250, 10})
    ->Args({1000, 10})
    ->Args({50, 128})
    ->Args({250, 128})
    ->Args({250, 4096});

void BM_ReservationDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int capacity = static_cast<int>(state.range(1));
  const double crossing = static_cast<double>(state.range(2)) / 100.0;
  const int shadow_capacity =
      static_cast<int>(capacity * state.range(3) / 100);
  const auto weights = random_weights(n, capacity, 43);
  es::util::Rng rng(44);
  std::vector<int> shadows;
  shadows.reserve(n);
  for (int w : weights) shadows.push_back(rng.bernoulli(crossing) ? w : 0);
  es::core::DpWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(es::core::reservation_dp(
        weights, shadows, capacity, shadow_capacity, ws));
  }
}
// Args: queue length, capacity grains, % of jobs crossing the freeze end,
// shadow capacity as % of capacity.  The last arg is the shape of
// perfbench's wide_g1 (M=4096 at granularity 1): when the head is blocked
// the free capacity is a few hundred grains (128-288 between the 10th and
// 90th percentile), most waiting jobs end before the freeze, and the
// shadow capacity is close to the free capacity.
BENCHMARK(BM_ReservationDp)
    ->Args({10, 10, 50, 50})
    ->Args({50, 10, 50, 50})
    ->Args({250, 10, 50, 50})
    ->Args({1000, 10, 50, 50})
    ->Args({50, 128, 50, 50})
    ->Args({250, 128, 50, 50})
    ->Args({16, 256, 20, 90});

/// Whole-simulation cost per policy: events per second through the engine
/// on the paper's 500-job point.
void BM_FullSimulation(benchmark::State& state,
                       const std::string& algorithm) {
  es::workload::GeneratorConfig config;
  config.num_jobs = 500;
  config.seed = 7;
  config.target_load = 0.9;
  const auto workload = es::workload::generate(config);
  es::core::AlgorithmOptions options;
  options.lookahead = 250;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = es::exp::run_workload(workload, algorithm, options);
    events += result.events;
    benchmark::DoNotOptimize(result.mean_wait);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_FullSimulation, easy, "EASY");
BENCHMARK_CAPTURE(BM_FullSimulation, los, "LOS");
BENCHMARK_CAPTURE(BM_FullSimulation, delayed_los, "Delayed-LOS");
BENCHMARK_CAPTURE(BM_FullSimulation, conservative, "CONS");

}  // namespace

BENCHMARK_MAIN();
