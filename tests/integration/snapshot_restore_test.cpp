// Crash-consistent snapshot/restore end to end: a run killed at an event
// boundary and resumed from the engine's own snapshot must reproduce the
// uninterrupted run bit for bit — for every factory algorithm, and
// exhaustively across *every* kill point on small scenarios built around
// the nastiest interactions (a snapshot taken while nodes are down, a
// preempted job holding a banked checkpoint in the requeue, contradictory
// same-instant ECC pairs, a reservation-saturated machine).  Plus the
// rejection contract: wrong-run snapshots, tampered images, and a trace
// ledger restored into an engine that cannot hold it.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "sched/engine.hpp"
#include "snap/snapshot.hpp"
#include "testing/helpers.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace es {
namespace {

using es::testing::batch_job;
using es::testing::dedicated_job;
using es::testing::make_workload;

/// One fresh run under the given options, with an engine hook.
using RunFn = std::function<sched::SimulationResult(
    const core::AlgorithmOptions&, const std::function<void(sched::Engine&)>&)>;
/// The same run resumed from a snapshot.
using ResumeFn = std::function<sched::SimulationResult(snap::SnapshotReader&)>;

RunFn workload_run(const workload::Workload& workload,
                   const std::string& algorithm) {
  return [&workload, algorithm](const core::AlgorithmOptions& options,
                                const auto& prepare) {
    return exp::run_workload_prepared(workload, algorithm, options, prepare);
  };
}

/// Runs the simulation with snapshot-every-cycle capture and an event
/// budget of `kill_events`, returning the last snapshot image taken before
/// the watchdog killed the run (empty when the kill landed before the
/// first snapshot).
std::string snapshot_before_kill(const RunFn& run,
                                 const core::AlgorithmOptions& options,
                                 std::uint64_t kill_events) {
  core::AlgorithmOptions killed = options;
  killed.engine.snapshot.every_cycles = 1;
  killed.engine.watchdog.max_events = kill_events;
  std::string image;
  (void)run(killed, [&image](sched::Engine& engine) {
    engine.set_snapshot_sink(
        [&image](const std::string& bytes) { image = bytes; });
  });
  return image;
}

std::string snapshot_before_kill(const workload::Workload& workload,
                                 const std::string& algorithm,
                                 const core::AlgorithmOptions& options,
                                 std::uint64_t kill_events) {
  return snapshot_before_kill(workload_run(workload, algorithm), options,
                              kill_events);
}

void expect_identical(const sched::SimulationResult& expected,
                      const sched::SimulationResult& actual,
                      const std::string& label) {
  SCOPED_TRACE(label);
  es::testing::expect_identical_results(expected, actual);
}

/// The exhaustive harness: kills the run at every `stride`-th event
/// boundary from 1 to the uninterrupted event count, resumes each from its
/// last snapshot, and requires bit-identical results.  Small workloads keep
/// this affordable while covering every possible restore instant —
/// including the awkward ones (nodes down, checkpoints banked, reservations
/// pinned).
void expect_kill_points_resume(const RunFn& run, const ResumeFn& resume,
                               const core::AlgorithmOptions& options,
                               std::uint64_t stride = 1) {
  const sched::SimulationResult uninterrupted = run(options, {});
  ASSERT_EQ(uninterrupted.termination, sim::TerminationReason::kCompleted);
  for (std::uint64_t kill = 1; kill <= uninterrupted.events; kill += stride) {
    const std::string image = snapshot_before_kill(run, options, kill);
    sched::SimulationResult resumed;
    if (image.empty()) {
      resumed = run(options, {});  // killed before the first snapshot
    } else {
      snap::SnapshotReader reader(image);
      resumed = resume(reader);
    }
    expect_identical(uninterrupted, resumed,
                     "kill at " + std::to_string(kill) + " events");
  }
}

void expect_every_kill_point_resumes(const workload::Workload& workload,
                                     const std::string& algorithm,
                                     const core::AlgorithmOptions& options) {
  expect_kill_points_resume(
      workload_run(workload, algorithm),
      [&](snap::SnapshotReader& reader) {
        return exp::resume_workload(workload, algorithm, options, reader);
      },
      options);
}

core::AlgorithmOptions scripted_failure_options(
    std::vector<fault::Outage> script,
    fault::RequeuePolicy policy = fault::RequeuePolicy::kRequeueHead) {
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.script = std::move(script);
  options.engine.requeue = policy;
  return options;
}

TEST(SnapshotRestore, EveryKillPointAcrossAPendingOutage) {
  // The outage window 50..80 guarantees snapshots taken while 64 procs are
  // offline (pending NodeUp) and snapshots taken with the NodeDown still
  // pending — both chains must rebuild from the single pending-outage slot.
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 320, 100), batch_job(2, 10, 96, 200),
       batch_job(3, 20, 160, 150), batch_job(4, 120, 320, 80)});
  expect_every_kill_point_resumes(workload, "EASY",
                                  scripted_failure_options({{50, 80, 64}}));
}

TEST(SnapshotRestore, EveryKillPointWithBankedCheckpointInRequeue) {
  // Checkpoints every 20 s of work; the t=50 outage preempts job 1 with
  // 40 s banked, so kill points between the preemption and the restart
  // snapshot a requeued job whose remaining work differs from its spec —
  // exactly the state a naive restore would lose.
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 320, 100), batch_job(2, 5, 64, 120),
       batch_job(3, 60, 128, 90)});
  core::AlgorithmOptions options = scripted_failure_options({{50, 80, 32}});
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 20;
  options.engine.checkpoint.overhead = 5;
  expect_every_kill_point_resumes(workload, "EASY", options);
}

TEST(SnapshotRestore, EveryKillPointThroughAnEccStorm) {
  // Contradictory same-instant ECC pairs: the conflict shield's
  // first-wins-per-dimension state must survive a snapshot taken between
  // the two commands of a pair.
  std::vector<workload::Ecc> eccs;
  auto ecc = [](workload::JobId job, double issue, workload::EccType type,
                double amount) {
    workload::Ecc e;
    e.job_id = job;
    e.issue = issue;
    e.type = type;
    e.amount = amount;
    return e;
  };
  eccs.push_back(ecc(1, 30, workload::EccType::kExtendTime, 60));
  eccs.push_back(ecc(1, 30, workload::EccType::kReduceTime, 40));
  eccs.push_back(ecc(2, 45, workload::EccType::kExtendProcs, 32));
  eccs.push_back(ecc(2, 45, workload::EccType::kReduceProcs, 32));
  eccs.push_back(ecc(3, 10, workload::EccType::kExtendTime, 120));
  eccs.push_back(ecc(9, 40, workload::EccType::kExtendTime, 50));  // unknown
  const auto workload = make_workload(
      320, 32,
      {batch_job(1, 0, 160, 100), batch_job(2, 5, 96, 150),
       batch_job(3, 8, 64, 80), batch_job(4, 50, 320, 60)},
      eccs);
  expect_every_kill_point_resumes(workload, "Hybrid-LOS-E", {});
}

TEST(SnapshotRestore, EveryKillPointOnADedicatedSaturatedMachine) {
  // Back-to-back reservations pin the dedicated queue while batch work
  // drains around them; restore must preserve the dedicated ordering and
  // the due events.
  const auto workload = make_workload(
      320, 32,
      {dedicated_job(1, 0, 320, 50, 100), dedicated_job(2, 0, 320, 50, 150),
       dedicated_job(3, 10, 160, 40, 210), batch_job(4, 0, 96, 120),
       batch_job(5, 20, 64, 90), batch_job(6, 30, 320, 60)});
  expect_every_kill_point_resumes(workload, "Hybrid-LOS", {});
}

TEST(SnapshotRestore, EveryFactoryAlgorithmResumesIdentically) {
  // The full algorithm matrix at a generated-workload scale, one mid-run
  // kill each (the per-boundary sweeps above cover the kill-point axis).
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 60;
  config.seed = 99;
  config.p_extend = 0.2;
  config.p_reduce = 0.2;
  config.target_load = 0.9;
  const workload::Workload batch = workload::generate(config);
  config.p_dedicated = 0.35;
  config.seed = 101;
  const workload::Workload hetero = workload::generate(config);

  for (const std::string& name : core::algorithm_names()) {
    const bool dedicated =
        core::make_algorithm(name).policy->supports_dedicated();
    const workload::Workload& workload = dedicated ? hetero : batch;
    const core::AlgorithmOptions options;
    const sched::SimulationResult uninterrupted =
        exp::run_workload(workload, name, options);
    const std::string image = snapshot_before_kill(
        workload, name, options, uninterrupted.events / 2 + 1);
    ASSERT_FALSE(image.empty()) << name;
    snap::SnapshotReader reader(image);
    const sched::SimulationResult resumed =
        exp::resume_workload(workload, name, options, reader);
    expect_identical(uninterrupted, resumed, name);
  }
}

TEST(SnapshotRestore, AdaptivePolicyStateSurvivesRestore) {
  // The AdaptiveSelector carries cross-cycle semantic state; a restore
  // that dropped it would pick differently after resume.
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 80;
  config.seed = 7;
  config.target_load = 1.0;
  const workload::Workload workload = workload::generate(config);
  const core::AlgorithmOptions options;
  const sched::SimulationResult uninterrupted =
      exp::run_workload(workload, "Adaptive", options);
  for (const std::uint64_t kill :
       {uninterrupted.events / 4 + 1, uninterrupted.events / 2 + 1,
        (3 * uninterrupted.events) / 4 + 1}) {
    const std::string image =
        snapshot_before_kill(workload, "Adaptive", options, kill);
    ASSERT_FALSE(image.empty());
    snap::SnapshotReader reader(image);
    const sched::SimulationResult resumed =
        exp::resume_workload(workload, "Adaptive", options, reader);
    expect_identical(uninterrupted, resumed,
                     "kill at " + std::to_string(kill));
  }
}

TEST(SnapshotRestore, GeneratorSourceKillPointsResumeIdentically) {
  // A run that never materializes its trace snapshots and resumes like any
  // other: the resumed process re-generates the stream up to the saved
  // cursor (8-job chunks, so kill points land on every side of a refill).
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = 48;
  config.seed = 23;
  config.target_load = 0.9;
  config.p_dedicated = 0.3;
  config.p_extend = 0.3;
  config.p_reduce = 0.2;
  core::AlgorithmOptions options;
  options.engine.failure.enabled = true;
  options.engine.failure.mtbf = 20000;
  options.engine.checkpoint.enabled = true;
  options.engine.checkpoint.interval = 1200;
  const RunFn run = [&config](const core::AlgorithmOptions& opts,
                              const auto& prepare) {
    workload::GeneratorSource source(config, 8);
    return exp::run_source(source, "Hybrid-LOS-E", opts, prepare);
  };
  expect_kill_points_resume(
      run,
      [&](snap::SnapshotReader& reader) {
        workload::GeneratorSource source(config, 8);
        return exp::resume_source(source, "Hybrid-LOS-E", options, reader);
      },
      options, 3);
}

TEST(SnapshotRestore, RejectsSnapshotOfADifferentWorkload) {
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  const std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_FALSE(image.empty());
  auto other = workload;
  other.jobs[1].dur = 250;  // same shape, different run
  other.normalize();
  snap::SnapshotReader reader(image);
  try {
    (void)exp::resume_workload(other, "EASY", {}, reader);
    FAIL() << "foreign snapshot accepted";
  } catch (const snap::SnapshotError& error) {
    EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kMismatch);
  }
}

TEST(SnapshotRestore, RejectsSnapshotOfADifferentPolicy) {
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  const std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_FALSE(image.empty());
  snap::SnapshotReader reader(image);
  try {
    (void)exp::resume_workload(workload, "FCFS", {}, reader);
    FAIL() << "cross-policy snapshot accepted";
  } catch (const snap::SnapshotError& error) {
    EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kMismatch);
  }
}

TEST(SnapshotRestore, RejectsTamperedImage) {
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  std::string image = snapshot_before_kill(workload, "EASY", {}, 3);
  ASSERT_GT(image.size(), 21u);
  image[20] = static_cast<char>(static_cast<unsigned char>(image[20]) ^ 0x10);
  try {
    snap::SnapshotReader reader(image);
    (void)exp::resume_workload(workload, "EASY", {}, reader);
    FAIL() << "tampered snapshot accepted";
  } catch (const snap::SnapshotError& error) {
    EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kCorrupt);
  }
}

TEST(SnapshotRestore, SavedTraceNeedsATracingEngine) {
  // A snapshot carrying a non-empty trace ledger cannot restore into an
  // engine that is not recording one — silently dropping audit rows would
  // make the resumed trace a lie.
  const auto workload =
      make_workload(320, 32, {batch_job(1, 0, 320, 100),
                              batch_job(2, 10, 96, 200)});
  core::AlgorithmOptions tracing;
  tracing.engine.record_trace = true;
  const sched::SimulationResult uninterrupted =
      exp::run_workload(workload, "EASY", tracing);
  const std::string image = snapshot_before_kill(
      workload, "EASY", tracing, uninterrupted.events / 2 + 1);
  ASSERT_FALSE(image.empty());
  {
    snap::SnapshotReader reader(image);
    try {
      (void)exp::resume_workload(workload, "EASY", {}, reader);
      FAIL() << "trace-bearing snapshot accepted by a non-tracing engine";
    } catch (const snap::SnapshotError& error) {
      EXPECT_EQ(error.kind(), snap::SnapshotErrorKind::kMismatch);
    }
  }
  // With tracing enabled the same snapshot resumes to the identical run.
  snap::SnapshotReader reader(image);
  const sched::SimulationResult resumed =
      exp::resume_workload(workload, "EASY", tracing, reader);
  expect_identical(uninterrupted, resumed, "traced resume");
}

}  // namespace
}  // namespace es
