// perf_baseline — machine-readable perf trajectory entry (BENCH_PR5.json).
//
// Measures the cumulative engine optimizations on the paper's Fig-7 setup
// (P_S = 0.2, load sweep over EASY / LOS / Delayed-LOS):
//
//   1. campaign parallelism (PR 3): the identical load sweep run serially
//      (--jobs 1) and across the worker pool (--jobs N), with the two
//      metrics CSVs compared byte for byte — the speedup only counts if
//      the science is unchanged;
//   (2. removed with the DP result cache it compared on vs off; the other
//      legs keep their numbers so docs and older records still line up.)
//   3. the event kernel (PR 4): the slab/free-list sim::EventQueue against
//      the retired shared_ptr/hash-set queue (reference_event_queue.hpp)
//      under identical schedule/pop and cancellation-heavy workloads, same
//      host, same build flags — events/sec for each and the speedup;
//   4. simulation scale (PR 4): wall time of one Delayed-LOS run at the
//      scale_10k operating point (load 0.7), the end-to-end number the
//      kernel work is meant to move;
//   5. kernel equivalence (PR 4): a fixed mini-sweep byte-compared against
//      the committed golden CSV (data/golden/kernel_equivalence.csv),
//      generated from the pre-overhaul engine.  Any divergence fails the
//      run — the kernel rework must not change a single simulated metric.
//   6. observer chain (PR 5): the serial campaign repeated with the
//      CycleStatsObserver attachment enabled vs the default empty chain,
//      with the metrics CSVs byte-compared — the lifecycle event bus must
//      leave the science untouched and cost at most a couple percent.
//   7. crash recovery (PR 7): every factory algorithm run uninterrupted,
//      then snapshotted every cycle, killed mid-run and resumed from the
//      last snapshot, with the full deterministic result serialization
//      byte-compared — snapshot/restore must be invisible in the science.
//  (8. removed with the blocked-parallel Basic_DP fill it compared.)
//  (9. removed once Engine::run became a MaterializedSource drained through
//      Engine::run_streamed: its streamed-vs-materialized parity is the
//      same code path now; chunk-size invariance stays gated by
//      tests/sched/streamed_engine_test.cpp.)
// (10. removed with the DP SIMD rows and calendar-queue switch it
//      reverted.)
//
// Counters and equivalence verdicts in the JSON are deterministic; every
// *_seconds / *_per_second field is measurement and varies run to run.  CI
// uploads the file as an artifact; the committed copy records the numbers
// of one representative host.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "exp/experiment.hpp"
#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "snap/snapshot.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <chrono>

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Events/sec of `queue` under the micro_sim schedule-then-drain workload
/// (uniform times, trivial callback), repeated until ~0.2 s has elapsed.
template <typename Queue>
double measure_schedule_and_run(std::size_t n) {
  es::util::Rng rng(1);
  std::vector<double> times;
  times.reserve(n);
  for (std::size_t i = 0; i < n; ++i) times.push_back(rng.uniform(0, 1e6));
  std::uint64_t processed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    Queue queue;
    std::uint64_t sum = 0;
    for (double t : times)
      queue.schedule(t, es::sim::EventClass::kOther,
                     [&sum](es::sim::Time) { ++sum; });
    while (!queue.empty()) queue.pop_and_run();
    processed += n;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.2);
  return static_cast<double>(processed) / elapsed;
}

/// Events/sec with half the population cancelled before the drain — the
/// elastic-workload pattern that exercises lazy deletion.
template <typename Queue>
double measure_cancellation_heavy(std::size_t n) {
  es::util::Rng rng(2);
  std::uint64_t processed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    Queue queue;
    std::vector<decltype(queue.schedule(0, es::sim::EventClass::kOther,
                                        nullptr))> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      handles.push_back(queue.schedule(rng.uniform(0, 1e6),
                                       es::sim::EventClass::kOther,
                                       [](es::sim::Time) {}));
    for (std::size_t i = 0; i < n; i += 2) queue.cancel(handles[i]);
    while (!queue.empty()) queue.pop_and_run();
    processed += n;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.2);
  return static_cast<double>(processed) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
// Default golden path baked in by the build so the bench works from any
// working directory (ctest runs it from the build tree, CI from bench/).
#ifdef ES_KERNEL_GOLDEN
  std::string golden_path = ES_KERNEL_GOLDEN;
#else
  std::string golden_path = "data/golden/kernel_equivalence.csv";
#endif
  {
    es::util::CliParser cli(
        "Perf baseline: campaign parallelism + DP hot path + event kernel "
        "+ observer chain (BENCH_PR5.json)");
    cli.add_option("num-jobs", "jobs per simulation point (default 500)",
                   &options.num_jobs);
    cli.add_option("replications", "seeds averaged per point (default 5)",
                   &options.replications);
    cli.add_option("seed", "base RNG seed", &options.seed);
    cli.add_option("lookahead", "DP lookahead depth (default 250)",
                   &options.lookahead);
    cli.add_option("jobs",
                   "worker threads for the experiment campaign "
                   "(default 1 = serial; 0 = all cores)",
                   &options.parallel_jobs);
    cli.add_option("csv-dir", "directory for CSV output (default results/)",
                   &options.csv_dir);
    cli.add_option("golden",
                   "kernel-equivalence golden CSV to byte-compare against",
                   &golden_path);
    cli.add_flag("quick", "fast mode: fewer points and seeds",
                 &options.quick);
    if (!cli.parse(argc, argv)) return 0;
    if (options.quick) {
      options.num_jobs = 200;
      options.replications = 2;
    }
    if (options.parallel_jobs == 0)
      options.parallel_jobs = es::util::hardware_parallelism();
    es::util::set_global_parallelism(options.parallel_jobs);
  }

  // --jobs from the common CLI names the *parallel* leg; default to every
  // core when the user left it serial, since comparing 1 vs 1 says nothing.
  const int parallel_jobs = options.parallel_jobs > 1
                                ? options.parallel_jobs
                                : es::util::hardware_parallelism();

  es::workload::GeneratorConfig config = es::bench::base_workload(options);
  config.p_small = 0.2;
  const std::vector<std::string> algorithms{"EASY", "LOS", "Delayed-LOS"};
  const std::vector<double> loads = es::bench::load_grid(options);
  const es::core::AlgorithmOptions algo = es::bench::algo_options(options);

  // --- leg 1: identical campaign, serial vs pooled ---------------------
  es::util::set_global_parallelism(1);
  auto t0 = std::chrono::steady_clock::now();
  const es::exp::Sweep serial_sweep =
      es::exp::load_sweep(config, loads, algorithms, algo,
                          options.replications);
  const double serial_seconds = seconds_since(t0);

  es::util::set_global_parallelism(parallel_jobs);
  t0 = std::chrono::steady_clock::now();
  const es::exp::Sweep parallel_sweep =
      es::exp::load_sweep(config, loads, algorithms, algo,
                          options.replications);
  const double parallel_seconds = seconds_since(t0);
  es::util::set_global_parallelism(1);

  ::mkdir(options.csv_dir.c_str(), 0755);
  const std::string serial_csv = options.csv_dir + "/perf_baseline_serial.csv";
  const std::string parallel_csv =
      options.csv_dir + "/perf_baseline_parallel.csv";
  es::exp::write_sweep_csv(serial_csv, serial_sweep);
  es::exp::write_sweep_csv(parallel_csv, parallel_sweep);
  const bool csv_identical = slurp(serial_csv) == slurp(parallel_csv);
  const double speedup =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0.0;

  // --- leg 3: event kernel, slab queue vs retired reference ------------
  const std::size_t micro_n = 10000;
  const double slab_schedule_eps =
      measure_schedule_and_run<es::sim::EventQueue>(micro_n);
  const double reference_schedule_eps =
      measure_schedule_and_run<es::bench::ReferenceEventQueue>(micro_n);
  const double slab_cancel_eps =
      measure_cancellation_heavy<es::sim::EventQueue>(micro_n);
  const double reference_cancel_eps =
      measure_cancellation_heavy<es::bench::ReferenceEventQueue>(micro_n);
  const double kernel_speedup =
      reference_schedule_eps > 0 ? slab_schedule_eps / reference_schedule_eps
                                 : 0.0;
  const double kernel_cancel_speedup =
      reference_cancel_eps > 0 ? slab_cancel_eps / reference_cancel_eps : 0.0;

  // --- leg 4: end-to-end scale point (scale_10k's stable regime) -------
  es::exp::RunSpec scale_spec;
  scale_spec.workload = es::bench::base_workload(options);
  scale_spec.workload.num_jobs = options.quick ? 2000 : 10000;
  scale_spec.workload.p_small = 0.5;
  scale_spec.workload.target_load = 0.7;
  scale_spec.algorithm = "Delayed-LOS";
  scale_spec.options = algo;
  t0 = std::chrono::steady_clock::now();
  const es::sched::SimulationResult scale_result =
      es::exp::run_once(scale_spec);
  const double scale_seconds = seconds_since(t0);
  const double scale_events_per_second =
      scale_seconds > 0
          ? static_cast<double>(scale_result.perf.events.fired) / scale_seconds
          : 0.0;

  // --- leg 5: kernel-equivalence golden --------------------------------
  // Fixed configuration, independent of --quick/--num-jobs, matching the
  // committed golden exactly: 200 jobs, seeds 1+2, loads {0.6, 0.9},
  // P_S = 0.2, lookahead 250, C_s = 7, EASY / LOS / Delayed-LOS.
  es::workload::GeneratorConfig golden_config;
  golden_config.machine_procs = 320;
  golden_config.num_jobs = 200;
  golden_config.seed = 1;
  golden_config.p_small = 0.2;
  es::core::AlgorithmOptions golden_algo;
  golden_algo.lookahead = 250;
  golden_algo.max_skip_count = 7;
  const es::exp::Sweep golden_sweep = es::exp::load_sweep(
      golden_config, {0.6, 0.9}, algorithms, golden_algo, 2);
  const std::string golden_out =
      options.csv_dir + "/kernel_equivalence.csv";
  es::exp::write_sweep_csv(golden_out, golden_sweep);
  const std::string golden_expected = slurp(golden_path);
  const std::string golden_actual = slurp(golden_out);
  const bool golden_found = !golden_expected.empty();
  const bool golden_identical =
      golden_found && golden_expected == golden_actual;

  // --- leg 6: observer-chain overhead ----------------------------------
  // The leg-1 serial campaign again, alternating the default empty
  // attachment chain with the CycleStatsObserver collecting per-cycle
  // histograms.  Attachments only observe, so the metrics CSVs must be
  // byte-identical; the wall-time ratio is the chain's whole cost.  The
  // variants are timed interleaved across many reps and the per-variant
  // minimum kept: OS noise only ever adds time, so the min over enough
  // reps converges on each variant's true cost.
  es::core::AlgorithmOptions observed_algo = algo;
  observed_algo.engine.collect_cycle_stats = true;
  // Each sample times chain_iters whole campaigns so one sample is a few
  // hundred milliseconds — long enough that scheduler jitter stops
  // dominating a percent-level comparison.
  const int chain_iters = options.quick ? 2 : 8;
  const int chain_reps = options.quick ? 2 : 12;
  double chain_off_seconds = 0;
  double chain_on_seconds = 0;
  es::exp::Sweep chain_off_sweep;
  es::exp::Sweep chain_on_sweep;
  // One untimed campaign per variant first, so cold caches and lazy page
  // faults land on nobody's clock.
  chain_off_sweep = es::exp::load_sweep(config, loads, algorithms, algo,
                                        options.replications);
  chain_on_sweep = es::exp::load_sweep(config, loads, algorithms,
                                       observed_algo, options.replications);
  const auto time_chain_off = [&]() {
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < chain_iters; ++i)
      chain_off_sweep = es::exp::load_sweep(config, loads, algorithms, algo,
                                            options.replications);
    const double off = seconds_since(t0) / chain_iters;
    if (chain_off_seconds == 0 || off < chain_off_seconds)
      chain_off_seconds = off;
  };
  const auto time_chain_on = [&]() {
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < chain_iters; ++i)
      chain_on_sweep = es::exp::load_sweep(config, loads, algorithms,
                                           observed_algo,
                                           options.replications);
    const double on = seconds_since(t0) / chain_iters;
    if (chain_on_seconds == 0 || on < chain_on_seconds)
      chain_on_seconds = on;
  };
  for (int rep = 0; rep < chain_reps; ++rep) {
    // Alternate which variant is timed first: frequency boost decaying
    // through the run would otherwise systematically favour one side.
    if (rep % 2 == 0) {
      time_chain_off();
      time_chain_on();
    } else {
      time_chain_on();
      time_chain_off();
    }
  }

  const std::string chain_off_csv =
      options.csv_dir + "/perf_baseline_chain_off.csv";
  const std::string chain_on_csv =
      options.csv_dir + "/perf_baseline_chain_on.csv";
  es::exp::write_sweep_csv(chain_off_csv, chain_off_sweep);
  es::exp::write_sweep_csv(chain_on_csv, chain_on_sweep);
  const bool chain_identical = slurp(chain_off_csv) == slurp(chain_on_csv);
  const double chain_overhead =
      chain_off_seconds > 0 ? chain_on_seconds / chain_off_seconds - 1.0
                            : 0.0;

  // --- leg 7: crash-recovery equivalence -------------------------------
  // For every factory algorithm: one uninterrupted run, then the same run
  // snapshotted every cycle, killed mid-flight by an event-budget watchdog
  // and resumed from the last snapshot taken before the kill.  The resumed
  // result must serialize byte-identically to the uninterrupted one —
  // snapshot/restore is only correct if it is invisible in the science.
  // Dedicated-aware algorithms get a heterogeneous workload with fault
  // injection and checkpointing on top, so the restore path covers the
  // failure RNG, requeues and checkpoint banks too.
  const auto crash_equivalent = [](const std::string& name,
                                   const es::workload::Workload& crash_load,
                                   const es::core::AlgorithmOptions& base) {
    const es::sched::SimulationResult uninterrupted =
        es::exp::run_workload(crash_load, name, base);
    const std::string expected =
        es::bench::result_fingerprint_csv(uninterrupted);

    es::core::AlgorithmOptions killed = base;
    killed.engine.snapshot.every_cycles = 1;
    killed.engine.watchdog.max_events = uninterrupted.events / 2 + 1;
    std::string last_snapshot;
    (void)es::exp::run_workload_prepared(
        crash_load, name, killed, [&last_snapshot](es::sched::Engine& engine) {
          engine.set_snapshot_sink([&last_snapshot](const std::string& image) {
            last_snapshot = image;
          });
        });
    if (last_snapshot.empty()) return false;
    es::snap::SnapshotReader reader(last_snapshot);
    const es::sched::SimulationResult resumed =
        es::exp::resume_workload(crash_load, name, base, reader);
    return es::bench::result_fingerprint_csv(resumed) == expected;
  };

  es::workload::GeneratorConfig crash_config =
      es::bench::base_workload(options);
  crash_config.num_jobs = options.quick ? 120 : 300;
  crash_config.p_small = 0.5;
  crash_config.p_extend = 0.2;
  crash_config.p_reduce = 0.2;
  crash_config.target_load = 0.9;
  const es::workload::Workload crash_batch =
      es::workload::generate(crash_config);
  crash_config.p_dedicated = 0.4;
  crash_config.seed = options.seed + 17;
  const es::workload::Workload crash_hetero =
      es::workload::generate(crash_config);
  es::core::AlgorithmOptions crash_hetero_algo = algo;
  crash_hetero_algo.engine.failure.enabled = true;
  crash_hetero_algo.engine.failure.seed = 11;
  crash_hetero_algo.engine.failure.mtbf = 40000;
  crash_hetero_algo.engine.failure.mttr = 4000;
  crash_hetero_algo.engine.failure.max_nodes = 2;
  crash_hetero_algo.engine.checkpoint.enabled = true;
  crash_hetero_algo.engine.checkpoint.interval = 2000;
  crash_hetero_algo.engine.checkpoint.overhead = 30;

  bool crash_identical = true;
  int crash_algorithms = 0;
  for (const std::string& name : es::core::algorithm_names()) {
    const bool dedicated_aware =
        es::core::make_algorithm(name).policy->supports_dedicated();
    const es::workload::Workload& crash_load =
        dedicated_aware ? crash_hetero : crash_batch;
    const es::core::AlgorithmOptions& crash_algo =
        dedicated_aware ? crash_hetero_algo : algo;
    ++crash_algorithms;
    if (!crash_equivalent(name, crash_load, crash_algo)) {
      std::printf("crash recovery: %s DIVERGED after kill/restore\n",
                  name.c_str());
      crash_identical = false;
    }
  }

  std::printf("campaign: serial %.3fs, parallel(%d) %.3fs, speedup %.2fx, "
              "csv identical: %s\n",
              serial_seconds, parallel_jobs, parallel_seconds, speedup,
              csv_identical ? "yes" : "NO");
  std::printf("event kernel: slab %.2fM ev/s vs reference %.2fM ev/s "
              "(%.2fx); cancel-heavy %.2fM vs %.2fM (%.2fx)\n",
              slab_schedule_eps / 1e6, reference_schedule_eps / 1e6,
              kernel_speedup, slab_cancel_eps / 1e6,
              reference_cancel_eps / 1e6, kernel_cancel_speedup);
  std::printf("scale: Delayed-LOS, %zu jobs @ load 0.7: %.3fs "
              "(%.2fM events/s, peak %llu pending)\n",
              scale_spec.workload.num_jobs, scale_seconds,
              scale_events_per_second / 1e6,
              static_cast<unsigned long long>(
                  scale_result.perf.events.peak_pending));
  std::printf("kernel equivalence vs %s: %s\n", golden_path.c_str(),
              !golden_found ? "GOLDEN NOT FOUND"
                            : (golden_identical ? "byte-identical" : "DIVERGED"));
  std::printf("observer chain: off %.3fs, on %.3fs, overhead %.2f%%, "
              "csv identical: %s\n",
              chain_off_seconds, chain_on_seconds, 100.0 * chain_overhead,
              chain_identical ? "yes" : "NO");
  std::printf("crash recovery: %d algorithms snapshot/kill/restore, "
              "results identical: %s\n",
              crash_algorithms, crash_identical ? "yes" : "NO");

  const std::string out_path = "BENCH_PR5.json";
  const bool ok = es::util::write_file_atomic(
      out_path, [&](std::ostream& out) {
        out << "{\n"
            << "  \"bench\": \"perf_baseline\",\n"
            << "  \"pr\": 5,\n"
            << "  \"host_cores\": " << es::util::hardware_parallelism()
            << ",\n"
            << "  \"workload\": {\"num_jobs\": " << options.num_jobs
            << ", \"replications\": " << options.replications
            << ", \"loads\": " << loads.size()
            << ", \"algorithms\": " << algorithms.size() << "},\n"
            << "  \"campaign\": {\"serial_seconds\": " << serial_seconds
            << ", \"parallel_jobs\": " << parallel_jobs
            << ", \"parallel_seconds\": " << parallel_seconds
            << ", \"speedup\": " << speedup
            << ", \"csv_identical\": " << (csv_identical ? "true" : "false")
            << "},\n"
            << "  \"event_kernel\": {\"micro_events\": " << micro_n
            << ", \"slab_events_per_second\": " << slab_schedule_eps
            << ", \"reference_events_per_second\": " << reference_schedule_eps
            << ", \"speedup\": " << kernel_speedup
            << ", \"slab_cancel_events_per_second\": " << slab_cancel_eps
            << ", \"reference_cancel_events_per_second\": "
            << reference_cancel_eps
            << ", \"cancel_speedup\": " << kernel_cancel_speedup << "},\n"
            << "  \"scale\": {\"algorithm\": \"Delayed-LOS\", \"num_jobs\": "
            << scale_spec.workload.num_jobs
            << ", \"target_load\": 0.7, \"wall_seconds\": " << scale_seconds
            << ", \"events_fired\": " << scale_result.perf.events.fired
            << ", \"events_per_second\": " << scale_events_per_second
            << ", \"peak_pending_events\": "
            << scale_result.perf.events.peak_pending << "},\n"
            << "  \"kernel_equivalence\": {\"golden\": \"" << golden_path
            << "\", \"golden_found\": " << (golden_found ? "true" : "false")
            << ", \"identical\": " << (golden_identical ? "true" : "false")
            << "},\n"
            << "  \"observer_chain\": {\"off_seconds\": " << chain_off_seconds
            << ", \"on_seconds\": " << chain_on_seconds
            << ", \"overhead\": " << chain_overhead
            << ", \"csv_identical\": " << (chain_identical ? "true" : "false")
            << "},\n"
            << "  \"crash_recovery\": {\"algorithms\": " << crash_algorithms
            << ", \"identical\": " << (crash_identical ? "true" : "false")
            << "}\n"
            << "}\n";
        return out.good();
      });
  if (!ok) {
    std::fprintf(stderr, "perf_baseline: cannot write %s\n", out_path.c_str());
    return 3;
  }
  std::printf("[json] %s\n", out_path.c_str());
  // The equivalences are correctness gates, not just measurements: the
  // parallel campaign, the slab kernel and the observer chain must all
  // leave the simulated science untouched.
  return (csv_identical && golden_identical && chain_identical &&
          crash_identical)
             ? 0
             : 1;
}
