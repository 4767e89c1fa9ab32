// Microbenchmarks for the scheduling kernels (google-benchmark): the cost
// of Basic_DP / Reservation_DP as a function of queue length and capacity
// grains — the complexity discussion behind Shmueli's 50-job lookahead
// limit (paper section II) — and a whole-cycle comparison against EASY's
// linear scan.
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
  state.SetComplexityN(state.range(0));
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
    ->Args({250, 4096})
    ->Complexity(benchmark::oN);

void BM_ReservationDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int capacity = static_cast<int>(state.range(1));
  const auto weights = random_weights(n, capacity, 43);
  es::util::Rng rng(44);
  std::vector<int> shadows;
  shadows.reserve(n);
  for (int w : weights) shadows.push_back(rng.bernoulli(0.5) ? w : 0);
  const int shadow_capacity = capacity / 2;
  es::core::DpWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(es::core::reservation_dp(
        weights, shadows, capacity, shadow_capacity, ws));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReservationDp)
    ->Args({10, 10})
    ->Args({50, 10})
    ->Args({250, 10})
    ->Args({1000, 10})
    ->Args({50, 128})
    ->Args({250, 128})
    ->Complexity(benchmark::oN);

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
