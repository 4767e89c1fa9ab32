// Chunk-size invariance of the one engine run path: Engine::run(workload)
// drains a MaterializedSource in default-size chunks, and the same workload
// pulled through small chunks that force mid-run refills must reproduce it
// byte for byte — every deterministic metric, counter, ledger and per-job
// outcome — across the algorithm families, ECC processing (including
// commands issued before their job's arrival), dedicated jobs, failure
// injection, checkpointing and watchdog aborts.  The GeneratorSource case
// pins the never-materialized synthetic stream to generate() + run().
#include <gtest/gtest.h>

#include <vector>

#include "exp/experiment.hpp"
#include "testing/helpers.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace es {
namespace {

/// Runs the workload both ways and asserts full parity.
void check_parity(const workload::Workload& workload,
                  const std::string& algorithm,
                  core::AlgorithmOptions options = {},
                  std::size_t chunk_jobs = 7) {
  const sched::SimulationResult materialized =
      exp::run_workload(workload, algorithm, options);
  workload::MaterializedSource source(workload, chunk_jobs);
  const sched::SimulationResult streamed =
      exp::run_source(source, algorithm, options);
  testing::expect_identical_results(materialized, streamed);
}

workload::GeneratorConfig small_config(int jobs = 120) {
  workload::GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = jobs;
  config.seed = 11;
  return config;
}

TEST(StreamedEngine, MatchesMaterializedAcrossAlgorithms) {
  const workload::Workload workload = workload::generate(small_config());
  for (const char* algorithm :
       {"FCFS", "EASY", "LOS", "Delayed-LOS", "CONS"}) {
    SCOPED_TRACE(algorithm);
    check_parity(workload, algorithm);
  }
}

TEST(StreamedEngine, MatchesAcrossChunkSizes) {
  const workload::Workload workload = workload::generate(small_config());
  // 1-job chunks maximize refills; a huge chunk degenerates to one pull.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{13},
                                  std::size_t{100000}}) {
    SCOPED_TRACE(chunk);
    check_parity(workload, "Delayed-LOS", {}, chunk);
  }
}

TEST(StreamedEngine, MatchesWithEccsAndElasticity) {
  workload::GeneratorConfig config = small_config();
  config.p_extend = 0.3;
  config.p_reduce = 0.2;
  config.p_extend_procs = 0.2;
  config.p_reduce_procs = 0.2;
  config.max_eccs_per_job = 3;
  const workload::Workload workload = workload::generate(config);
  ASSERT_FALSE(workload.eccs.empty());
  for (const char* algorithm : {"Delayed-LOS-E", "EASY-E", "LOS-E"}) {
    SCOPED_TRACE(algorithm);
    check_parity(workload, algorithm);
  }
  // The same command stream ignored: the pending-command retire gate must
  // not leak into the non-ECC engine.
  check_parity(workload, "Delayed-LOS");
}

TEST(StreamedEngine, MatchesWithDedicatedJobs) {
  workload::GeneratorConfig config = small_config();
  config.p_dedicated = 0.4;
  const workload::Workload workload = workload::generate(config);
  for (const char* algorithm : {"EASY-D", "LOS-D", "Hybrid-LOS"}) {
    SCOPED_TRACE(algorithm);
    check_parity(workload, algorithm);
  }
}

TEST(StreamedEngine, MatchesUnderFailuresEveryRequeuePolicy) {
  const workload::Workload workload = workload::generate(small_config());
  for (const fault::RequeuePolicy policy :
       {fault::RequeuePolicy::kRequeueHead, fault::RequeuePolicy::kRequeueTail,
        fault::RequeuePolicy::kAbandon}) {
    SCOPED_TRACE(static_cast<int>(policy));
    core::AlgorithmOptions options;
    options.engine.failure.enabled = true;
    options.engine.failure.mtbf = 4000;
    options.engine.failure.mttr = 600;
    options.engine.failure.max_nodes = 2;
    options.engine.failure.seed = 5;
    options.engine.requeue = policy;
    check_parity(workload, "Delayed-LOS", options);
  }
}

TEST(StreamedEngine, MatchesWithCheckpointRestart) {
  const workload::Workload workload = workload::generate(small_config());
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.mtbf = 4000;
  options.engine.failure.mttr = 600;
  options.engine.failure.max_nodes = 2;
  options.engine.failure.seed = 5;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 1800;
  options.engine.checkpoint.overhead = 60;
  check_parity(workload, "Delayed-LOS", options);
}

TEST(StreamedEngine, WatchdogAbortFoldsTheSameFinishedJobs) {
  // An aborted run drains the rest of its source, so `unfinished` and the
  // offered load cover the whole trace, and utilization integrates up to
  // the last finish, whatever the chunking.
  const workload::Workload workload = workload::generate(small_config());
  core::AlgorithmOptions options;
  options.engine.watchdog.max_events = 200;
  const sched::SimulationResult materialized =
      exp::run_workload(workload, "Delayed-LOS", options);
  workload::MaterializedSource source(workload, 7);
  const sched::SimulationResult streamed =
      exp::run_source(source, "Delayed-LOS", options);
  EXPECT_NE(materialized.termination, sim::TerminationReason::kCompleted);
  testing::expect_identical_results(materialized, streamed);

  // By hand: job 1 frees its half of the machine at t=100, job 3 takes it
  // at t=150, and the budget stops the run there.  Utilization covers
  // [first arrival, last finish] = [0, 100] only.
  options.engine.watchdog.max_events = 4;
  const sched::SimulationResult hand = exp::run_workload(
      testing::make_workload(64, 32,
                             {testing::batch_job(1, 0, 32, 100),
                              testing::batch_job(2, 0, 32, 1000),
                              testing::batch_job(3, 150, 32, 1000)}),
      "FCFS", options);
  EXPECT_EQ(hand.utilization, 1.0);
  EXPECT_EQ(hand.unfinished, 2u);
}

TEST(StreamedEngine, EccsBeforeTheirJobsArrivalAcrossChunkBoundaries) {
  // Commands issued before their job arrives, some windows (and chunks)
  // ahead of it, plus commands for ids the trace never holds: the source
  // extends a chunk to its commands' targets, and unknown ids stay
  // unknown-job at every chunk size.
  std::vector<workload::Job> jobs;
  for (int i = 0; i < 24; ++i)
    jobs.push_back(testing::batch_job(i + 1, 50.0 * i, 8, 400.0));
  using workload::EccType;
  const workload::Workload workload = testing::make_workload(
      64, 8, jobs,
      {{10, 20, EccType::kExtendTime, 200},  // 940 s before job 20 arrives
       {60, 6, EccType::kReduceTime, 100},
       {120, 12, EccType::kExtendProcs, 8},
       {130, 99, EccType::kExtendTime, 50},  // unknown id
       {300, 24, EccType::kReduceProcs, 8},
       {400, 3, EccType::kExtendTime, 60},   // after its job's arrival
       {1300, 98, EccType::kReduceTime, 10}});
  const sched::SimulationResult reference =
      exp::run_workload(workload, "Delayed-LOS-E");
  EXPECT_EQ(reference.ecc.unknown_job, 2u);
  EXPECT_EQ(reference.ecc.processed, 5u);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    SCOPED_TRACE(chunk);
    check_parity(workload, "Delayed-LOS-E", {}, chunk);
  }
}

TEST(StreamedEngine, GeneratorSourceStreamsWithoutMaterializing) {
  // End-to-end: the generator-backed source against the materialized
  // generate() + run() pipeline, including load calibration.
  workload::GeneratorConfig config = small_config();
  config.target_load = 0.8;
  const workload::Workload workload = workload::generate(config);
  const sched::SimulationResult materialized =
      exp::run_workload(workload, "Delayed-LOS");
  workload::GeneratorSource source(config, 16);
  const sched::SimulationResult streamed =
      exp::run_source(source, "Delayed-LOS");
  testing::expect_identical_results(materialized, streamed);
}

TEST(StreamedEngine, HandCraftedTieGroupsAtChunkBoundaries) {
  // Equal arrivals straddling the nominal chunk edge: the source must
  // extend the chunk so same-instant arrival order (and any same-instant
  // command ordering) survives streaming.
  std::vector<workload::Job> jobs;
  for (int i = 0; i < 30; ++i)
    jobs.push_back(testing::batch_job(i + 1, 100.0 * (i / 3), 8, 600.0));
  std::vector<workload::Ecc> eccs;
  for (int i = 0; i < 10; ++i) {
    workload::Ecc ecc;
    ecc.job_id = 3 * i + 1;
    ecc.type = workload::EccType::kExtendTime;
    ecc.amount = 120;
    ecc.issue = 100.0 * i;  // same instant as a 3-job arrival group
    eccs.push_back(ecc);
  }
  const workload::Workload workload =
      testing::make_workload(64, 8, jobs, eccs);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE(chunk);
    check_parity(workload, "Delayed-LOS-E", {}, chunk);
  }
}

}  // namespace
}  // namespace es
