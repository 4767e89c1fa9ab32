// Engine perf observability: SimulationResult::perf carries the per-run DP
// counter delta, and every kernel call resolves through exactly one of the
// two DP stages (fast path or table fill).
#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "workload/generator.hpp"

namespace es::sched {
namespace {

workload::Workload fig7_workload() {
  workload::GeneratorConfig config;
  config.num_jobs = 300;
  config.seed = 17;
  config.p_small = 0.2;       // Fig 7: dominated by large jobs
  config.target_load = 0.9;   // the DP-intensive end of the sweep
  return workload::generate(config);
}

TEST(EnginePerf, DpCountersLandInSimulationResult) {
  const workload::Workload workload = fig7_workload();
  const SimulationResult result =
      exp::run_workload(workload, "Delayed-LOS");
  EXPECT_GT(result.perf.dp.calls, 0u);
  // Every call resolved through exactly one of the two stages.
  EXPECT_EQ(result.perf.dp.calls,
            result.perf.dp.fast_path + result.perf.dp.table_runs);
  EXPECT_GT(result.perf.dp.table_runs, 0u);
  // Wall timings are measurement, not simulation state: merely sane.
  EXPECT_GE(result.perf.wall_seconds, 0.0);
  EXPECT_GE(result.perf.cycle_seconds, 0.0);
  EXPECT_LE(result.perf.cycle_seconds, result.perf.wall_seconds + 1e-3);
}

TEST(EnginePerf, CycleWallOnlyWithCycleStats) {
  // The cycle wall timer belongs to CycleStatsObserver: a default run reads
  // no clock per cycle and reports 0; a collect_cycle_stats run times every
  // policy cycle, which cannot exceed the whole run.
  const workload::Workload workload = fig7_workload();
  core::Algorithm algorithm = core::make_algorithm("Delayed-LOS");
  ASSERT_NE(algorithm.policy, nullptr);
  EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  const SimulationResult plain = simulate(config, *algorithm.policy, workload);
  EXPECT_EQ(plain.perf.cycle_seconds, 0.0);

  config.collect_cycle_stats = true;
  const SimulationResult timed = simulate(config, *algorithm.policy, workload);
  EXPECT_GT(timed.perf.cycle.cycles, 0u);
  EXPECT_GT(timed.perf.cycle_seconds, 0.0);
  EXPECT_LE(timed.perf.cycle_seconds, timed.perf.wall_seconds);
  // Measurement only: the schedule is the same.
  EXPECT_EQ(plain.mean_wait, timed.mean_wait);
  EXPECT_EQ(plain.cycles, timed.cycles);
}

TEST(EnginePerf, ReservationPoliciesAlsoCount) {
  // Hybrid-LOS exercises the 2-D reservation kernel once its head blocks.
  const workload::Workload workload = fig7_workload();
  const SimulationResult result =
      exp::run_workload(workload, "Hybrid-LOS");
  EXPECT_GT(result.perf.dp.calls, 0u);
  EXPECT_EQ(result.perf.dp.calls,
            result.perf.dp.fast_path + result.perf.dp.table_runs);
}

TEST(EnginePerf, PoliciesWithoutDpReportZeroes) {
  const workload::Workload workload = fig7_workload();
  const SimulationResult result = exp::run_workload(workload, "EASY");
  EXPECT_EQ(result.perf.dp.calls, 0u);
  EXPECT_EQ(result.perf.dp.fast_path, 0u);
  EXPECT_EQ(result.perf.dp.table_runs, 0u);
}

TEST(EnginePerf, CountersAreAPerRunDelta) {
  // One policy object driven through two engine runs: the policy's counters
  // are cumulative, so each result must carry only its own run's delta —
  // identical runs report identical (not doubling) numbers.
  const workload::Workload workload = fig7_workload();
  core::Algorithm algorithm = core::make_algorithm("Delayed-LOS");
  ASSERT_NE(algorithm.policy, nullptr);
  EngineConfig config;
  config.machine_procs = workload.machine_procs;
  config.granularity = workload.granularity;
  const SimulationResult first =
      simulate(config, *algorithm.policy, workload);
  const SimulationResult second =
      simulate(config, *algorithm.policy, workload);
  EXPECT_GT(first.perf.dp.calls, 0u);
  // A cumulative (non-delta) report would double on the second run.
  EXPECT_EQ(first.perf.dp.calls, second.perf.dp.calls);
  EXPECT_EQ(first.perf.dp.fast_path, second.perf.dp.fast_path);
  EXPECT_EQ(first.perf.dp.table_runs, second.perf.dp.table_runs);
  EXPECT_EQ(first.perf.dp.table_cells, second.perf.dp.table_cells);
}

}  // namespace
}  // namespace es::sched
