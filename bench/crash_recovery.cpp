// crash_recovery — kill-point injection harness for the snapshot subsystem.
//
// Three legs, every one a hard gate (non-zero exit on any failure):
//
//   1. randomized kill points: the reference run is repeated with
//      snapshot-every-cycle capture and an event-budget watchdog that kills
//      it at a random event boundary; the run is then resumed from the last
//      snapshot taken before the kill.  The resumed result must serialize
//      byte-identically to the uninterrupted run — for every kill point,
//      across batch/elastic and heterogeneous/faulty workloads, and on a
//      streamed run that never materializes its trace (a GeneratorSource
//      re-generated up to the snapshot's cursor on resume).  Full mode
//      injects >= 200 kill points; --quick a couple dozen.
//   2. corruption matrix: a captured snapshot image is mutilated —
//      truncated at sampled lengths, single-bit-flipped at sampled offsets,
//      format-version bumped — and every mutation must be *rejected* with a
//      typed SnapshotError before any engine state is touched.
//   3. ring fallback: a disk ring of K generations whose newest member is
//      corrupted must fall back to the previous intact generation and
//      resume successfully from it.
//
// The harness captures snapshots through Engine::set_snapshot_sink, so leg
// 1 does no filesystem traffic; leg 3 exercises the real ring directory.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hpp"
#include "exp/experiment.hpp"
#include "snap/ring.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"
#include "workload/source.hpp"

namespace {

struct CrashCase {
  std::string name;
  es::workload::Workload workload;  ///< materialized cases
  /// Streamed cases: the trace is only ever pulled from a GeneratorSource.
  std::optional<es::workload::GeneratorConfig> stream;
  es::core::AlgorithmOptions options;
  std::string algorithm;
  std::string expected;          ///< uninterrupted deterministic CSV
  std::uint64_t events = 0;      ///< uninterrupted event count
};

/// A fresh source over the case's trace; streamed cases pull 16-job chunks
/// so kill points land on every side of a refill.
std::unique_ptr<es::workload::JobSource> source_of(const CrashCase& test) {
  if (test.stream)
    return std::make_unique<es::workload::GeneratorSource>(*test.stream, 16);
  return std::make_unique<es::workload::MaterializedSource>(test.workload);
}

es::sched::SimulationResult run_case(
    const CrashCase& test, const es::core::AlgorithmOptions& options,
    const std::function<void(es::sched::Engine&)>& prepare = {}) {
  return es::exp::run_source(*source_of(test), test.algorithm, options,
                             prepare);
}

/// The case resumed from a snapshot: the source is re-pulled up to the
/// snapshot's cursor.
es::sched::SimulationResult resume_case(const CrashCase& test,
                                        es::snap::SnapshotReader& reader) {
  return es::exp::resume_source(*source_of(test), test.algorithm,
                                test.options, reader);
}

/// The newest snapshot image of the case killed at `kill_events` (empty
/// when the kill landed before the first snapshot); counts the images.
std::string snapshot_before_kill(const CrashCase& test,
                                 std::uint64_t kill_events,
                                 std::uint64_t* snapshots_out = nullptr) {
  es::core::AlgorithmOptions killed = test.options;
  killed.engine.snapshot.every_cycles = 1;
  killed.engine.watchdog.max_events = kill_events;
  std::string last_snapshot;
  std::uint64_t snapshots = 0;
  (void)run_case(test, killed,
                 [&last_snapshot, &snapshots](es::sched::Engine& engine) {
                   engine.set_snapshot_sink(
                       [&last_snapshot, &snapshots](const std::string& image) {
                         last_snapshot = image;
                         ++snapshots;
                       });
                 });
  if (snapshots_out != nullptr) *snapshots_out += snapshots;
  return last_snapshot;
}

/// Runs the case killed at `kill_events` and resumed from the last
/// pre-kill snapshot.  Returns true when the resumed result matches the
/// uninterrupted serialization byte for byte.
bool kill_and_resume_matches(const CrashCase& test, std::uint64_t kill_events,
                             std::uint64_t* snapshots_out) {
  const std::string last_snapshot =
      snapshot_before_kill(test, kill_events, snapshots_out);
  es::sched::SimulationResult resumed;
  if (last_snapshot.empty()) {
    // Killed before the first snapshot: recovery is a fresh full run.
    resumed = run_case(test, test.options);
  } else {
    es::snap::SnapshotReader reader(last_snapshot);
    resumed = resume_case(test, reader);
  }
  return es::bench::result_fingerprint_csv(resumed) == test.expected;
}

/// True when the mutated image is rejected with a typed SnapshotError by
/// validation or restore (acceptance of a mutated snapshot is the failure
/// mode this harness exists to catch).
bool rejected(const CrashCase& test, const std::string& image) {
  try {
    es::snap::SnapshotReader reader(image);
    (void)resume_case(test, reader);
  } catch (const es::snap::SnapshotError&) {
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv,
          "Crash-recovery gate: randomized kill points, corruption matrix, "
          "ring fallback",
          options))
    return 0;

  const int kill_points = options.quick ? 24 : 200;
  const int corruption_samples = options.quick ? 48 : 256;

  // --- the reference runs ----------------------------------------------
  es::workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = options.quick ? 120 : 250;
  config.seed = options.seed;
  config.p_small = 0.5;
  config.p_extend = 0.25;
  config.p_reduce = 0.25;
  config.target_load = 0.9;

  std::vector<CrashCase> cases;
  {
    CrashCase batch;
    batch.name = "batch-elastic";
    batch.workload = es::workload::generate(config);
    batch.algorithm = "Hybrid-LOS-E";
    batch.options = es::bench::algo_options(options);
    cases.push_back(batch);

    es::workload::GeneratorConfig hetero_config = config;
    hetero_config.p_dedicated = 0.4;
    hetero_config.seed = options.seed + 29;
    CrashCase hetero;
    hetero.name = "hetero-faulty-ckpt";
    hetero.workload = es::workload::generate(hetero_config);
    hetero.algorithm = "Hybrid-LOS-E";
    hetero.options = es::bench::algo_options(options);
    hetero.options.engine.failure.enabled = true;
    hetero.options.engine.failure.seed = 7;
    hetero.options.engine.failure.mtbf = 30000;
    hetero.options.engine.failure.mttr = 3000;
    hetero.options.engine.failure.max_nodes = 3;
    hetero.options.engine.checkpoint.enabled = true;
    hetero.options.engine.checkpoint.interval = 1500;
    hetero.options.engine.checkpoint.overhead = 20;
    hetero.options.engine.checkpoint.on_preempt = true;
    cases.push_back(hetero);

    CrashCase adaptive;
    adaptive.name = "adaptive-policy-state";
    adaptive.workload = cases.front().workload;
    adaptive.algorithm = "Adaptive";
    adaptive.options = es::bench::algo_options(options);
    cases.push_back(adaptive);

    CrashCase streamed = hetero;  // same engine options, never materialized
    streamed.name = "streamed-generator";
    streamed.workload = {};
    streamed.stream = hetero_config;
    streamed.stream->seed = options.seed + 57;
    cases.push_back(streamed);
  }
  for (CrashCase& test : cases) {
    const es::sched::SimulationResult uninterrupted =
        run_case(test, test.options);
    test.expected = es::bench::result_fingerprint_csv(uninterrupted);
    test.events = uninterrupted.events;
  }

  // --- leg 1: randomized kill points -----------------------------------
  es::util::Rng rng(options.seed ^ 0xc0ffee);
  int failures = 0;
  std::uint64_t snapshots_taken = 0;
  for (int i = 0; i < kill_points; ++i) {
    const CrashCase& test = cases[static_cast<std::size_t>(i) % cases.size()];
    const std::uint64_t kill_events = static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(test.events)));
    if (!kill_and_resume_matches(test, kill_events, &snapshots_taken)) {
      std::printf("kill point %d (%s, %llu events): DIVERGED\n", i,
                  test.name.c_str(),
                  static_cast<unsigned long long>(kill_events));
      ++failures;
    }
  }
  std::printf("kill points: %d injected across %zu cases, %llu snapshots, "
              "%d divergences\n",
              kill_points, cases.size(),
              static_cast<unsigned long long>(snapshots_taken), failures);

  // --- leg 2: corruption matrix ----------------------------------------
  // One representative mid-run snapshot per case, then sampled truncations
  // and bit flips plus a version bump.  Every mutation must be rejected.
  int accepted_mutations = 0;
  int mutations = 0;
  for (const CrashCase& test : cases) {
    const std::string image = snapshot_before_kill(test, test.events / 2 + 1);
    if (image.empty()) {
      std::printf("corruption matrix: %s captured no snapshot\n",
                  test.name.c_str());
      ++accepted_mutations;
      continue;
    }

    for (int i = 0; i < corruption_samples; ++i) {
      ++mutations;
      const auto cut = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(image.size()) - 1));
      if (!rejected(test, image.substr(0, cut))) {
        std::printf("corruption: %s truncated to %zu bytes ACCEPTED\n",
                    test.name.c_str(), cut);
        ++accepted_mutations;
      }
    }
    for (int i = 0; i < corruption_samples; ++i) {
      ++mutations;
      std::string flipped = image;
      const auto offset = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(flipped.size()) - 1));
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      flipped[offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[offset]) ^ (1u << bit));
      if (!rejected(test, flipped)) {
        std::printf("corruption: %s bit flip at %zu/%d ACCEPTED\n",
                    test.name.c_str(), offset, bit);
        ++accepted_mutations;
      }
    }
    {
      ++mutations;
      // Bump the format-version field (bytes 4..7, little-endian).
      std::string bumped = image;
      bumped[4] = static_cast<char>(static_cast<unsigned char>(bumped[4]) + 1);
      if (!rejected(test, bumped)) {
        std::printf("corruption: %s version bump ACCEPTED\n",
                    test.name.c_str());
        ++accepted_mutations;
      }
    }
  }
  std::printf("corruption matrix: %d mutations, %d wrongly accepted\n",
              mutations, accepted_mutations);

  // --- leg 3: ring fallback --------------------------------------------
  // Run with a real disk ring, corrupt the newest generation, and check
  // that recovery falls back to the previous one and still resumes to the
  // uninterrupted result.
  bool ring_ok = true;
  {
    const CrashCase& test = cases.front();
    const std::string ring_dir =
        (std::filesystem::temp_directory_path() /
         ("es_crash_recovery_" + std::to_string(::getpid())))
            .string();
    es::core::AlgorithmOptions killed = test.options;
    killed.engine.snapshot.every_cycles = 1;
    killed.engine.snapshot.dir = ring_dir;
    killed.engine.snapshot.keep = 4;
    killed.engine.watchdog.max_events = test.events / 2 + 1;
    (void)es::exp::run_workload_prepared(test.workload, test.algorithm,
                                         killed, nullptr);
    const std::vector<es::snap::SnapshotEntry> ring =
        es::snap::list_snapshots(ring_dir);
    if (ring.size() < 2) {
      std::printf("ring fallback: expected >= 2 generations, found %zu\n",
                  ring.size());
      ring_ok = false;
    } else {
      // Mutilate the newest generation on disk: damage a CRC-protected
      // payload byte (offset 20, past the header and the first section's
      // tag + length frame).
      std::string newest = ring.back().path;
      {
        std::FILE* file = std::fopen(newest.c_str(), "r+b");
        if (file != nullptr) {
          std::fseek(file, 20, SEEK_SET);
          std::fputc(0xA5, file);
          std::fclose(file);
        }
      }
      const auto intact = es::snap::latest_intact(ring_dir);
      if (!intact || intact->path == newest) {
        std::printf("ring fallback: corrupt newest generation was not "
                    "skipped\n");
        ring_ok = false;
      } else {
        auto reader = es::snap::read_snapshot_file(intact->path);
        const es::sched::SimulationResult resumed = es::exp::resume_workload(
            test.workload, test.algorithm, test.options, reader);
        ring_ok =
            es::bench::result_fingerprint_csv(resumed) == test.expected;
        if (!ring_ok)
          std::printf("ring fallback: resume from generation %llu "
                      "diverged\n",
                      static_cast<unsigned long long>(intact->generation));
      }
    }
    std::error_code cleanup_error;
    std::filesystem::remove_all(ring_dir, cleanup_error);
  }
  std::printf("ring fallback: %s\n", ring_ok ? "ok" : "FAILED");

  const bool ok = failures == 0 && accepted_mutations == 0 && ring_ok;
  std::printf("crash_recovery: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
