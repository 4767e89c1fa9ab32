// End-to-end scheduling scenarios cross-checking algorithms against each
// other on hand-crafted queues with known optimal behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "testing/helpers.hpp"
#include "testing/temp_path.hpp"
#include "workload/cwf.hpp"
#include "workload/generator.hpp"

namespace es {
namespace {

using es::testing::batch_job;
using es::testing::dedicated_job;
using es::testing::make_workload;
using es::testing::run_scenario;

TEST(Scenarios, EmptyWorkloadYieldsZeroMetrics) {
  const auto workload = make_workload(320, 32, {});
  for (const char* algorithm : {"FCFS", "EASY", "LOS", "Delayed-LOS"}) {
    const auto scenario = run_scenario(workload, algorithm);
    EXPECT_EQ(scenario.result.completed, 0u);
    EXPECT_DOUBLE_EQ(scenario.result.mean_wait, 0.0);
  }
}

TEST(Scenarios, SequentialSaturatingJobsIdenticalForAll) {
  // Full-machine jobs: no packing decisions exist, so every algorithm must
  // produce the same schedule.
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 320, 100), batch_job(2, 10, 320, 100),
       batch_job(3, 20, 320, 100)});
  const auto reference = run_scenario(workload, "FCFS");
  for (const char* algorithm : {"EASY", "CONS", "LOS", "Delayed-LOS"}) {
    const auto scenario = run_scenario(workload, algorithm);
    for (const auto& [id, job] : reference.by_id)
      EXPECT_DOUBLE_EQ(scenario.job(id).started, job.started)
          << algorithm << " job " << id;
  }
}

TEST(Scenarios, IndependentJobsRunImmediatelyUnderAll) {
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 64, 50), batch_job(2, 1, 64, 60),
       batch_job(3, 2, 64, 70), batch_job(4, 3, 64, 80)});
  for (const char* algorithm :
       {"FCFS", "EASY", "CONS", "LOS", "Delayed-LOS", "Hybrid-LOS"}) {
    const auto scenario = run_scenario(workload, algorithm);
    for (const auto& [id, job] : scenario.by_id)
      EXPECT_DOUBLE_EQ(job.wait, 0.0) << algorithm << " job " << id;
  }
}

TEST(Scenarios, PackingHierarchyOnFragmentedQueue) {
  // A queue constructed so better packers strictly win:
  // blocker, then alternating 7/4/6-style fragments.
  std::vector<workload::Job> jobs{batch_job(1, 0, 10, 10)};
  workload::JobId id = 2;
  for (int round = 0; round < 6; ++round) {
    jobs.push_back(batch_job(id++, round * 3 + 1, 7, 100));
    jobs.push_back(batch_job(id++, round * 3 + 2, 4, 100));
    jobs.push_back(batch_job(id++, round * 3 + 3, 6, 100));
  }
  const auto workload = make_workload(10, 1, jobs);
  const auto fcfs = run_scenario(workload, "FCFS");
  const auto easy = run_scenario(workload, "EASY");
  const auto delayed = run_scenario(workload, "Delayed-LOS");
  EXPECT_LE(easy.result.mean_wait, fcfs.result.mean_wait);
  EXPECT_LT(delayed.result.mean_wait, fcfs.result.mean_wait);
}

TEST(Scenarios, HybridMatchesDelayedOnPureBatch) {
  workload::GeneratorConfig config;
  config.num_jobs = 200;
  config.seed = 23;
  config.target_load = 0.9;
  const auto workload = workload::generate(config);
  const auto hybrid = run_scenario(workload, "Hybrid-LOS");
  const auto delayed = run_scenario(workload, "Delayed-LOS");
  EXPECT_DOUBLE_EQ(hybrid.result.mean_wait, delayed.result.mean_wait);
  EXPECT_DOUBLE_EQ(hybrid.result.utilization, delayed.result.utilization);
}

TEST(Scenarios, DedicatedVariantsMatchBaseOnPureBatch) {
  workload::GeneratorConfig config;
  config.num_jobs = 200;
  config.seed = 24;
  config.target_load = 0.9;
  const auto workload = workload::generate(config);
  for (const auto& [base, extended] :
       std::vector<std::pair<const char*, const char*>>{
           {"EASY", "EASY-D"}, {"LOS", "LOS-D"}}) {
    const auto a = run_scenario(workload, base);
    const auto b = run_scenario(workload, extended);
    EXPECT_DOUBLE_EQ(a.result.mean_wait, b.result.mean_wait)
        << base << " vs " << extended;
  }
}

TEST(Scenarios, ElasticVariantsMatchBaseWithoutEccs) {
  workload::GeneratorConfig config;
  config.num_jobs = 200;
  config.seed = 25;
  config.target_load = 0.9;
  const auto workload = workload::generate(config);  // no ECCs injected
  for (const auto& [base, extended] :
       std::vector<std::pair<const char*, const char*>>{
           {"EASY", "EASY-E"},
           {"LOS", "LOS-E"},
           {"Delayed-LOS", "Delayed-LOS-E"}}) {
    const auto a = run_scenario(workload, base);
    const auto b = run_scenario(workload, extended);
    EXPECT_DOUBLE_EQ(a.result.mean_wait, b.result.mean_wait)
        << base << " vs " << extended;
  }
}

TEST(Scenarios, CwfRoundTripPreservesSchedule) {
  // Generate -> save CWF -> load -> identical simulation results.
  workload::GeneratorConfig config;
  config.num_jobs = 150;
  config.seed = 26;
  config.p_dedicated = 0.3;
  config.p_extend = 0.2;
  config.p_reduce = 0.1;
  workload::Workload original = workload::generate(config);
  // CWF stores integer-formatted times; round timestamps so the round trip
  // is exact.
  for (auto& job : original.jobs) {
    job.arr = std::round(job.arr);
    job.dur = std::round(job.dur);
    job.actual = std::round(job.actual_runtime());
    if (job.dedicated()) job.start = std::round(job.start);
  }
  for (auto& ecc : original.eccs) {
    ecc.issue = std::round(ecc.issue);
    ecc.amount = std::round(ecc.amount);
  }
  original.normalize();

  const std::string path = es::testing::unique_temp_path("roundtrip.cwf");
  ASSERT_TRUE(workload::save_cwf_workload(path, original));
  workload::Workload loaded = workload::load_cwf_workload(path);
  loaded.machine_procs = original.machine_procs;
  loaded.granularity = original.granularity;

  const auto a = run_scenario(original, "Hybrid-LOS-E");
  const auto b = run_scenario(loaded, "Hybrid-LOS-E");
  EXPECT_DOUBLE_EQ(a.result.mean_wait, b.result.mean_wait);
  EXPECT_DOUBLE_EQ(a.result.utilization, b.result.utilization);
  std::remove(path.c_str());
}

TEST(Scenarios, OverloadedSystemStillDrains) {
  workload::GeneratorConfig config;
  config.num_jobs = 300;
  config.seed = 27;
  config.target_load = 1.5;
  const auto workload = workload::generate(config);
  for (const char* algorithm : {"EASY", "Delayed-LOS"}) {
    const auto scenario = run_scenario(workload, algorithm);
    EXPECT_EQ(scenario.result.completed + scenario.result.killed, 300u)
        << algorithm;
  }
}

}  // namespace
}  // namespace es
