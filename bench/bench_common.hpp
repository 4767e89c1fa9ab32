// Shared configuration for the figure/table reproduction benches.
//
// Every bench prints the paper-style series as aligned tables and writes a
// tidy CSV next to the binary (results/<bench>.csv) for plotting.  The
// defaults reproduce the paper's setup: M = 320 processors in 32-proc node
// cards, N_J = 500 jobs per point, mean over several seeds.
//
// One deliberate deviation, documented in EXPERIMENTS.md: the DP lookahead
// is 250 jobs (not Shmueli's 50).  At the paper's offered loads the waiting
// queue regularly exceeds 50 jobs, and EASY scans the whole queue, so a
// 50-job lookahead handicaps the LOS family on information rather than on
// policy; 250 covers the queue at every load evaluated while keeping the DP
// sub-millisecond.  The ablation bench quantifies this choice.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/stat.h>

#include "core/config_spine.hpp"
#include "core/factory.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "sched/metrics.hpp"
#include "util/cli.hpp"
#include "util/rss.hpp"
#include "util/thread_pool.hpp"
#include "workload/source.hpp"

namespace es::bench {

struct BenchOptions {
  int num_jobs = 500;      ///< N_J per simulation point
  int replications = 5;    ///< seeds averaged per point
  unsigned long long seed = 1;
  int lookahead = 250;
  int parallel_jobs = 1;   ///< worker threads (--jobs); 0 = all cores
  std::string csv_dir = "results";
  bool quick = false;      ///< CI mode: fewer points/seeds
  /// Optional config file applied through the configuration spine
  /// (util::ParamRegistry) by algo_options()/apply_config_file(): engine,
  /// fair-share and tenancy knobs load from here with full validation.
  std::string config_path;
};

/// Standard CLI for every bench binary.  Returns false if the program
/// should exit (e.g. --help).  On success the global worker pool is sized
/// from --jobs, so every sweep in the bench fans out automatically.
inline bool parse_bench_options(int argc, const char* const* argv,
                                const std::string& description,
                                BenchOptions& options) {
  util::CliParser cli(description);
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
  cli.add_option("config", "engine/fair-share/tenancy parameters from this "
                 "key=value file (the simrun --config format); the bench's "
                 "own sweep parameters still override it", &options.config_path);
  cli.add_flag("quick", "fast mode: fewer points and seeds", &options.quick);
  bool list_algorithms = false;
  cli.add_flag("list-algorithms", "print every known algorithm name and exit",
               &list_algorithms);
  if (!cli.parse(argc, argv)) return false;
  if (list_algorithms) {
    for (const std::string& name : core::algorithm_names())
      std::printf("%s\n", name.c_str());
    return false;
  }
  if (options.quick) {
    options.num_jobs = 200;
    options.replications = 2;
  }
  if (options.parallel_jobs == 0)
    options.parallel_jobs = util::hardware_parallelism();
  util::set_global_parallelism(options.parallel_jobs);
  return true;
}

/// Loads `path` (when non-empty) into `algorithm_options` — and, when
/// given, the generator's tenancy knobs — through the configuration spine,
/// with the same finalize-time validation and exit code (2) as simrun.
inline void apply_config_file(const std::string& path,
                              core::AlgorithmOptions& algorithm_options,
                              workload::GeneratorConfig* generator = nullptr) {
  if (path.empty()) return;
  util::ParamRegistry registry;
  core::register_run_params(registry, algorithm_options);
  if (generator != nullptr)
    core::register_tenancy_params(registry, *generator);
  try {
    registry.load_file(path);
    registry.finalize();
  } catch (const util::ConfigError& error) {
    std::fprintf(stderr, "bench: --config: %s\n", error.what());
    std::exit(2);
  }
}

inline workload::GeneratorConfig base_workload(const BenchOptions& options) {
  workload::GeneratorConfig config;
  config.machine_procs = 320;
  config.num_jobs = static_cast<std::size_t>(options.num_jobs);
  config.seed = options.seed;
  return config;
}

/// The bench's algorithm options: --config (engine/fair-share knobs) loads
/// first, then the bench's own sweep parameters override — a bench varies
/// C_s/lookahead per case, and those cases must not be silently pinned by a
/// file value.
inline core::AlgorithmOptions algo_options(const BenchOptions& options,
                                           int max_skip_count = 7) {
  core::AlgorithmOptions algorithm_options;
  apply_config_file(options.config_path, algorithm_options);
  algorithm_options.lookahead = options.lookahead;
  algorithm_options.max_skip_count = max_skip_count;
  return algorithm_options;
}

/// Writes the sweep CSV plus a matching gnuplot script under
/// options.csv_dir (best-effort).
inline void save_csv(const BenchOptions& options, const std::string& name,
                     const exp::Sweep& sweep) {
  ::mkdir(options.csv_dir.c_str(), 0755);
  const std::string path = options.csv_dir + "/" + name + ".csv";
  if (exp::write_sweep_csv(path, sweep)) {
    std::printf("[csv] %s\n", path.c_str());
  } else {
    std::printf("[csv] could not write %s\n", path.c_str());
    return;
  }
  // Algorithms present at the first point (shared references included), in
  // map order.
  std::vector<std::string> algorithms;
  if (!sweep.points.empty())
    for (const auto& [algorithm, aggregate] :
         sweep.merged(sweep.points.front()))
      algorithms.push_back(algorithm);
  const std::string gp_path = options.csv_dir + "/" + name + ".gp";
  if (exp::write_sweep_gnuplot(gp_path, name + ".csv", name, sweep,
                               algorithms))
    std::printf("[gnuplot] %s\n", gp_path.c_str());
}

/// Serializes every *deterministic* field of a result — per-job outcomes
/// with full-precision times, the headline metrics, the ECC/failure
/// ledgers and the event counters — as CSV text.  Wall-clock measurements
/// are excluded, so two runs of the same simulation (or an uninterrupted
/// run vs a snapshot/kill/restore run) must produce byte-identical text.
inline std::string result_fingerprint_csv(
    const sched::SimulationResult& result) {
  std::ostringstream out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "summary,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%llu,%llu\n",
                result.utilization, result.mean_wait, result.slowdown,
                result.mean_per_job_slowdown, result.mean_bounded_slowdown,
                result.makespan,
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.killed));
  out << line;
  std::snprintf(line, sizeof(line),
                "counts,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
                static_cast<unsigned long long>(result.cycles),
                static_cast<unsigned long long>(result.events),
                static_cast<unsigned long long>(result.perf.events.scheduled),
                static_cast<unsigned long long>(result.perf.events.cancelled),
                static_cast<unsigned long long>(result.perf.events.fired),
                static_cast<unsigned long long>(result.ecc.processed),
                static_cast<unsigned long long>(result.ecc.conflicts));
  out << line;
  std::snprintf(line, sizeof(line),
                "failure,%llu,%llu,%llu,%llu,%.17g,%.17g,%.17g,%llu\n",
                static_cast<unsigned long long>(result.failure.outages),
                static_cast<unsigned long long>(result.failure.interruptions),
                static_cast<unsigned long long>(result.failure.requeues),
                static_cast<unsigned long long>(result.failure.abandoned),
                result.failure.lost_proc_seconds,
                result.failure.wasted_proc_seconds,
                result.failure.saved_proc_seconds,
                static_cast<unsigned long long>(result.failure.checkpoints));
  out << line;
  for (const sched::JobOutcome& job : result.jobs) {
    std::snprintf(line, sizeof(line),
                  "job,%lld,%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                  static_cast<long long>(job.id), job.dedicated ? 1 : 0,
                  job.killed ? 1 : 0, job.interruptions, job.procs,
                  job.arrival, job.started, job.finished, job.wait, job.run);
    out << line;
  }
  return out.str();
}

// --- scale-bench harness (scale_10k, scale_1m) --------------------------
//
// Both scale benches run the same science — the paper's P_S = 0.5 batch
// workload at a fixed offered load — and differ only in trace length and
// ingestion mode.  The helpers below parameterize that shared shape so the
// 10k table and the million-job soak measure the same thing.

/// The scale benches' workload point: base geometry (M = 320) and the
/// P_S = 0.5 mix with the trace length and offered load of one cell.
inline workload::GeneratorConfig scale_workload(const BenchOptions& options,
                                                std::size_t num_jobs,
                                                double load) {
  workload::GeneratorConfig config = base_workload(options);
  config.num_jobs = num_jobs;
  config.p_small = 0.5;
  config.target_load = load;
  return config;
}

/// One timed simulation leg.  Wall time covers workload production *and*
/// simulation — for the streamed leg the two are interleaved by design, so
/// the materialized leg charges generation too to keep the comparison fair.
struct ScaleLeg {
  double wall_seconds = 0;
  std::uint64_t events_fired = 0;
  double events_per_second = 0;
  /// Process-global high water at the end of the leg (util::peak_rss_bytes
  /// is monotonic: run the leg whose footprint you care about first).
  std::uint64_t peak_rss_bytes = 0;
  sched::SimulationResult result;
};

/// Runs one leg.  `streamed` pulls the synthetic trace through a
/// GeneratorSource in bounded chunks (the engine never holds more than the
/// in-flight jobs); otherwise the full workload materializes up front.
inline ScaleLeg run_scale_leg(
    const workload::GeneratorConfig& config, const std::string& algorithm,
    const core::AlgorithmOptions& options, bool streamed,
    std::size_t chunk_jobs = workload::GeneratorSource::kDefaultChunkJobs) {
  ScaleLeg leg;
  const auto t0 = std::chrono::steady_clock::now();
  if (streamed) {
    workload::GeneratorSource source(config, chunk_jobs);
    leg.result = exp::run_source(source, algorithm, options);
  } else {
    exp::RunSpec spec;
    spec.workload = config;
    spec.algorithm = algorithm;
    spec.options = options;
    leg.result = exp::run_once(spec);
  }
  leg.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  leg.events_fired = leg.result.perf.events.fired;
  leg.events_per_second =
      leg.wall_seconds > 0
          ? static_cast<double>(leg.events_fired) / leg.wall_seconds
          : 0.0;
  leg.peak_rss_bytes = util::peak_rss_bytes();
  return leg;
}

/// A replicated, seed-averaged scale point (scale_10k's table cells).
struct ScalePoint {
  exp::Aggregate aggregate;
  double wall_seconds = 0;
};

inline ScalePoint run_scale_point(const exp::RunSpec& spec,
                                  int replications) {
  ScalePoint point;
  const auto t0 = std::chrono::steady_clock::now();
  point.aggregate = exp::run_replicated(spec, replications);
  point.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return point;
}

/// The paper's load grid for Figs 7-11.
inline std::vector<double> load_grid(const BenchOptions& options) {
  if (options.quick) return {0.6, 0.9};
  return {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

}  // namespace es::bench
