// simrun — run one simulation from the command line.
//
//   $ simrun --trace trace.cwf --algorithm Hybrid-LOS-E --procs 320
//   $ simrun --synthetic --num-jobs 500 --p-small 0.2 --load 0.9
//            --algorithm Delayed-LOS --cs 7 --per-job jobs.csv
//   $ simrun --synthetic --replications 8 --jobs 4   # 8 seeds, 4 threads
//   $ simrun --scenario repro.scn --algorithm LOS-E  # replay a fuzz repro
//
// Prints the paper's three metrics plus diagnostics; optionally dumps
// per-job outcomes as CSV for plotting.  CSV outputs are written atomically
// (temp file + rename) so a crash mid-write never leaves a truncated file.
// With --replications N the run is repeated over N derived seeds (fanned
// across --jobs worker threads) and the seed-mean aggregate is printed —
// byte-identical output whatever the thread count.
//
// Crash recovery: --snapshot-every N serializes the full engine state every
// N scheduling cycles into --snapshot-dir (a ring of --snapshot-keep
// generations, each written atomically with fsync-before-rename);
// --restore-from <file-or-dir> resumes an interrupted run from a snapshot
// (a directory is scanned for its newest *intact* generation) and produces
// byte-identical results to the uninterrupted run.
//
// Exit codes: 0 success, 1 usage error, 2 invalid flag combination or
// unknown algorithm, 3 output I/O error, 4 watchdog abort (partial metrics
// were printed), 6 corrupt / version-incompatible / mismatched snapshot.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <ostream>
#include <string>

#include "core/config_spine.hpp"
#include "core/factory.hpp"
#include "exp/analysis.hpp"
#include "exp/experiment.hpp"
#include "fuzz/scenario.hpp"
#include "sim/watchdog.hpp"
#include "snap/ring.hpp"
#include "snap/snapshot.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/cwf.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"

namespace {

// Flag-validation failure: field-named message, distinct exit code (2).
int flag_error(const char* flag, const char* message) {
  std::fprintf(stderr, "simrun: --%s: %s\n", flag, message);
  return 2;
}

// Human-friendly range label for one log2 histogram bucket: "[0]", "[1]",
// "[2..3]", ..., "[32768+]" for the overflow bucket.
std::string bucket_label(int b) {
  const auto lo = es::sched::CycleStats::bucket_lo(b);
  const auto hi = es::sched::CycleStats::bucket_hi(b);
  if (lo == hi) return "[" + std::to_string(lo) + "]";
  if (b == es::sched::CycleStats::kBuckets - 1)
    return "[" + std::to_string(lo) + "+]";
  return "[" + std::to_string(lo) + ".." + std::to_string(hi) + "]";
}

// Appends the CycleStatsObserver counters to a perf table: the summary
// tallies plus one row per non-empty histogram bucket.  Everything here is
// deterministic, so the parallel-vs-serial output diff stays byte-exact.
void add_cycle_stats_rows(es::util::AsciiTable& table,
                          const es::sched::CycleStats& cycle) {
  table.cell("cycles observed")
      .cell(static_cast<long long>(cycle.cycles)).end_row();
  table.cell("job starts / backfilled")
      .cell(std::to_string(cycle.starts) + " / " +
            std::to_string(cycle.backfill_starts))
      .end_row();
  table.cell("max queue depth at cycle")
      .cell(static_cast<long long>(cycle.max_queue_depth)).end_row();
  for (int b = 0; b < es::sched::CycleStats::kBuckets; ++b) {
    if (cycle.queue_depth[b] == 0) continue;
    table.cell("queue depth " + bucket_label(b) + " cycles")
        .cell(static_cast<long long>(cycle.queue_depth[b])).end_row();
  }
  for (int b = 0; b < es::sched::CycleStats::kBuckets; ++b) {
    if (cycle.dp_calls[b] == 0) continue;
    table.cell("DP calls/cycle " + bucket_label(b) + " cycles")
        .cell(static_cast<long long>(cycle.dp_calls[b])).end_row();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace;
  std::string algorithm = "Delayed-LOS";
  std::string per_job_csv;
  std::string log_level = "warn";
  bool synthetic = false;
  int procs = 320;
  int granularity = 32;
  int num_jobs = 500;
  int replications = 1;
  int parallel_jobs = 1;
  bool perf_report = false;
  bool streamed = false;
  unsigned long long seed = 1;
  double p_small = 0.5, p_dedicated = 0.0, p_extend = 0.0, p_reduce = 0.0;
  double load = 0.0;
  int cs = 7, lookahead = 250;
  double mtbf = 0.0, mttr = 1800.0;
  unsigned long long fail_seed = 1;
  int fail_min_nodes = 1, fail_max_nodes = 1;
  int fail_retry_cap = 0;
  std::string requeue = "head";
  double ckpt_interval = 0.0, ckpt_overhead = 0.0;
  bool ckpt_on_preempt = false;
  unsigned long long max_events = 0;
  double max_sim_time = 0.0, wall_budget = 0.0;
  int no_progress_cycles = 0;
  unsigned long long snapshot_every = 0;
  std::string snapshot_dir;
  int snapshot_keep = 3;
  std::string restore_from;

  std::string scenario_path;
  std::string config_path;
  bool dump_config = false;
  bool list_params = false;
  int users = 0;
  int num_pools = 0;
  double zipf_exponent = 1.1;

  es::util::CliParser cli("Run one scheduling simulation");
  cli.add_option("trace", "SWF/CWF trace to replay", &trace);
  cli.add_option("config", "load engine/algorithm/tenancy parameters from "
                 "this key=value config file; explicit CLI flags override "
                 "file values, which override built-in defaults",
                 &config_path);
  cli.add_flag("dump-config", "print the effective configuration (after "
               "--config and CLI overrides) as a loadable config file and "
               "exit", &dump_config);
  cli.add_flag("list-params", "print every registered configuration "
               "parameter with its type, default, range and doc, then exit",
               &list_params);
  cli.add_flag("synthetic", "generate a synthetic workload instead",
               &synthetic);
  cli.add_option("scenario", "replay a serialized atlas scenario (*.scn) "
                 "through --algorithm; the file carries the workload and "
                 "the failure/checkpoint/requeue/watchdog knobs",
                 &scenario_path);
  cli.add_option("algorithm", "algorithm name (Table III, FCFS, CONS, Adaptive)",
                 &algorithm);
  bool list_algorithms = false;
  cli.add_flag("list-algorithms", "print every known algorithm name and exit",
               &list_algorithms);
  cli.add_option("procs", "machine size (default 320)", &procs);
  cli.add_option("granularity", "allocation granularity (default 32)",
                 &granularity);
  cli.add_option("num-jobs", "synthetic: job count", &num_jobs);
  cli.add_option("replications", "repeat over this many derived seeds and "
                 "print the aggregate (default 1)", &replications);
  cli.add_option("jobs", "worker threads fanning the replications "
                 "(default 1 = serial; 0 = all cores)", &parallel_jobs);
  cli.add_flag("perf-report", "print hot-path counters (DP calls, "
               "fast-path exits, table runs; event-queue scheduled/"
               "cancelled/fired, peak pending) and wall timings",
               &perf_report);
  cli.add_flag("streamed", "pull the workload through the engine in bounded "
               "chunks instead of materializing it (synthetic workloads "
               "stream straight from the generator); results are "
               "byte-identical, memory stays flat at million-job scale, "
               "and snapshots and --restore-from work as on any run",
               &streamed);
  cli.add_option("seed", "synthetic: RNG seed", &seed);
  cli.add_option("p-small", "synthetic: P_S", &p_small);
  cli.add_option("p-dedicated", "synthetic: P_D", &p_dedicated);
  cli.add_option("p-extend", "synthetic: P_E", &p_extend);
  cli.add_option("p-reduce", "synthetic: P_R", &p_reduce);
  cli.add_option("load", "synthetic: target offered load (0 = off)", &load);
  cli.add_option("users", "synthetic: Zipf-distributed submitter population "
                 "(0 = untagged single-tenant workload)", &users);
  cli.add_option("pools", "synthetic: scheduling pools the users map onto "
                 "(0 = all jobs in pool 0)", &num_pools);
  cli.add_option("zipf-exponent", "synthetic: skew of the submitter "
                 "distribution (default 1.1)", &zipf_exponent);
  cli.add_option("cs", "max skip count C_s (default 7)", &cs);
  cli.add_option("lookahead", "DP lookahead (default 250)", &lookahead);
  cli.add_option("mtbf", "fault injection: mean time between failures in "
                 "seconds (0 = disabled)", &mtbf);
  cli.add_option("mttr", "fault injection: mean time to repair in seconds "
                 "(default 1800)", &mttr);
  cli.add_option("fail-seed", "fault injection: RNG seed", &fail_seed);
  cli.add_option("fail-min-nodes", "fault injection: min nodes per outage",
                 &fail_min_nodes);
  cli.add_option("fail-max-nodes", "fault injection: max nodes per outage",
                 &fail_max_nodes);
  cli.add_option("fail-retry-cap", "fault injection: abandon a job after "
                 "this many preemptions (0 = retry forever)", &fail_retry_cap);
  cli.add_option("requeue", "preempted-job policy: head/tail/abandon",
                 &requeue);
  cli.add_option("ckpt-interval", "checkpoint recovery: seconds of work "
                 "between periodic checkpoints (0 = disabled)",
                 &ckpt_interval);
  cli.add_option("ckpt-overhead", "checkpoint recovery: seconds each "
                 "checkpoint adds to the run (default 0)", &ckpt_overhead);
  cli.add_flag("ckpt-on-preempt", "checkpoint recovery: also bank all work "
               "at the preemption instant (checkpoint-on-signal)",
               &ckpt_on_preempt);
  cli.add_option("max-events", "watchdog: abort after this many simulation "
                 "events (0 = unlimited)", &max_events);
  cli.add_option("max-sim-time", "watchdog: abort past this simulated time "
                 "in seconds (0 = unlimited)", &max_sim_time);
  cli.add_option("wall-budget", "watchdog: abort after this many wall-clock "
                 "seconds (0 = unlimited)", &wall_budget);
  cli.add_option("no-progress-cycles", "watchdog: abort after this many "
                 "consecutive scheduler cycles without a job start or finish "
                 "while work is queued (0 = disabled)", &no_progress_cycles);
  cli.add_option("snapshot-every", "crash recovery: serialize the engine "
                 "state every N scheduling cycles (0 = disabled)",
                 &snapshot_every);
  cli.add_option("snapshot-dir", "crash recovery: directory holding the "
                 "snapshot ring (required with --snapshot-every)",
                 &snapshot_dir);
  cli.add_option("snapshot-keep", "crash recovery: ring retention — newest "
                 "K snapshot generations kept (default 3)", &snapshot_keep);
  cli.add_option("restore-from", "crash recovery: resume from this snapshot "
                 "file, or scan this directory for the newest intact "
                 "generation", &restore_from);
  bool profile = false;
  std::string trace_csv;
  cli.add_option("per-job", "write per-job outcomes to this CSV", &per_job_csv);
  cli.add_option("trace-out", "write the full schedule audit trace to this CSV",
                 &trace_csv);
  cli.add_flag("profile", "print an ASCII utilization-over-time profile",
               &profile);
  cli.add_option("log", "log level: debug/info/warn/error/off", &log_level);
  if (!cli.parse(argc, argv)) return 1;
  es::util::set_log_level(es::util::parse_log_level(log_level));

  if (list_algorithms) {
    for (const std::string& name : es::core::algorithm_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }

  // The configuration spine: one registry bound to the live option structs.
  // Precedence is CLI > config file > built-in defaults — the file loads
  // first, then every flag the user actually typed writes over it.
  es::core::AlgorithmOptions options;
  es::workload::GeneratorConfig generator_config;
  es::util::ParamRegistry registry;
  es::core::register_run_params(registry, options);
  es::core::register_tenancy_params(registry, generator_config);

  if (list_params) {
    std::fputs(registry.list_params().c_str(), stdout);
    return 0;
  }
  if (!config_path.empty()) {
    try {
      registry.load_file(config_path);
    } catch (const es::util::ConfigError& error) {
      std::fprintf(stderr, "simrun: --config: %s\n", error.what());
      return 2;
    }
  }
  if (cli.was_set("procs")) options.engine.machine_procs = procs;
  if (cli.was_set("granularity")) options.engine.granularity = granularity;
  if (cli.was_set("cs")) options.max_skip_count = cs;
  if (cli.was_set("lookahead")) options.lookahead = lookahead;
  if (mtbf > 0) {
    options.engine.failure.enabled = true;
    options.engine.failure.mtbf = mtbf;
  }
  if (cli.was_set("fail-seed")) options.engine.failure.seed = fail_seed;
  if (cli.was_set("mttr")) options.engine.failure.mttr = mttr;
  if (cli.was_set("fail-min-nodes"))
    options.engine.failure.min_nodes = fail_min_nodes;
  if (cli.was_set("fail-max-nodes"))
    options.engine.failure.max_nodes = fail_max_nodes;
  if (cli.was_set("fail-retry-cap"))
    options.engine.failure.max_interruptions = fail_retry_cap;
  if (cli.was_set("requeue") &&
      !es::fault::parse_requeue_policy(requeue, options.engine.requeue))
    return flag_error("requeue", "expected head, tail or abandon");
  if (cli.was_set("ckpt-interval"))
    options.engine.checkpoint.interval = ckpt_interval;
  if (cli.was_set("ckpt-overhead"))
    options.engine.checkpoint.overhead = ckpt_overhead;
  if (ckpt_on_preempt) options.engine.checkpoint.on_preempt = true;
  if (options.engine.checkpoint.interval > 0 ||
      options.engine.checkpoint.on_preempt)
    options.engine.checkpoint.enabled = true;
  if (cli.was_set("max-events"))
    options.engine.watchdog.max_events = max_events;
  if (cli.was_set("max-sim-time"))
    options.engine.watchdog.max_sim_time = max_sim_time;
  if (cli.was_set("wall-budget"))
    options.engine.watchdog.wall_budget = wall_budget;
  if (cli.was_set("no-progress-cycles"))
    options.engine.watchdog.no_progress_cycles = no_progress_cycles;
  if (cli.was_set("snapshot-every"))
    options.engine.snapshot.every_cycles = snapshot_every;
  if (cli.was_set("snapshot-dir")) options.engine.snapshot.dir = snapshot_dir;
  if (cli.was_set("snapshot-keep"))
    options.engine.snapshot.keep = static_cast<std::size_t>(snapshot_keep);
  if (cli.was_set("users")) generator_config.num_users = users;
  if (cli.was_set("pools")) generator_config.num_pools = num_pools;
  if (cli.was_set("zipf-exponent"))
    generator_config.zipf_exponent = zipf_exponent;
  options.engine.record_trace |= !trace_csv.empty();
  options.engine.collect_cycle_stats |= perf_report;

  // Finalize-time validation: range re-checks plus the cross-field rules
  // (granularity divides procs, resize needs ECCs, checkpoint overhead
  // needs an interval, pool min-shares sum <= 1, ...), each reported with
  // the offending field name.
  try {
    registry.finalize();
  } catch (const es::util::ConfigError& error) {
    std::fprintf(stderr, "simrun: config: %s\n", error.what());
    return 2;
  }

  if (dump_config) {
    std::fputs(registry.dump_config().c_str(), stdout);
    return 0;
  }

  // Merged values drive everything downstream, including workload shaping.
  procs = options.engine.machine_procs;
  granularity = options.engine.granularity;
  snapshot_every = options.engine.snapshot.every_cycles;
  snapshot_dir = options.engine.snapshot.dir;
  snapshot_keep = static_cast<int>(options.engine.snapshot.keep);

  // Flag validation (exit 2): catch contradictory or degenerate settings
  // before spending any simulation time on them.
  if (!es::core::is_algorithm_name(algorithm)) {
    std::fprintf(stderr, "simrun: --algorithm: unknown algorithm '%s'\n",
                 algorithm.c_str());
    std::fprintf(stderr, "known names (try --list-algorithms):\n");
    for (const std::string& name : es::core::algorithm_names())
      std::fprintf(stderr, "  %s\n", name.c_str());
    return 2;
  }
  if (mtbf < 0)
    return flag_error("mtbf", "must be >= 0 (0 disables fault injection)");
  if (mtbf > 0 && mttr <= 0)
    return flag_error("mttr", "must be > 0 when fault injection is enabled");
  if (ckpt_interval < 0)
    return flag_error("ckpt-interval", "must be >= 0 (0 disables periodic "
                      "checkpoints)");
  if (ckpt_overhead < 0)
    return flag_error("ckpt-overhead", "must be >= 0");
  // Checkpoints only pay off when something preempts: fault injection or a
  // policy (FairShare) that claws capacity back on its own.  Only flags the
  // user typed are checked — a shared config file may carry checkpoint
  // settings that are simply inert for a non-preempting algorithm.
  if ((ckpt_interval > 0 || ckpt_on_preempt) &&
      !options.engine.failure.enabled &&
      !es::core::make_algorithm(algorithm, options)
           .policy->initiates_preemption())
    return flag_error("ckpt-interval", "checkpoint recovery only matters "
                      "under fault injection or a preempting policy; set "
                      "--mtbf > 0 as well");
  if (max_sim_time < 0)
    return flag_error("max-sim-time", "must be >= 0 (0 = unlimited)");
  if (wall_budget < 0)
    return flag_error("wall-budget", "must be >= 0 (0 = unlimited)");
  if (no_progress_cycles < 0)
    return flag_error("no-progress-cycles", "must be >= 0 (0 = disabled)");
  if (snapshot_every > 0 && snapshot_dir.empty())
    return flag_error("snapshot-every", "needs --snapshot-dir to hold the "
                      "snapshot ring");
  if (!snapshot_dir.empty() && snapshot_every == 0)
    return flag_error("snapshot-dir", "has no effect without "
                      "--snapshot-every > 0");
  if (snapshot_keep < 1)
    return flag_error("snapshot-keep", "must be >= 1");
  if (replications < 1)
    return flag_error("replications", "must be >= 1");
  if (!restore_from.empty() && replications > 1)
    return flag_error("restore-from", "a snapshot captures one single run; "
                      "use --replications 1");
  if ((snapshot_every > 0) && replications > 1)
    return flag_error("snapshot-every", "periodic snapshots describe a "
                      "single run; use --replications 1");
  if (parallel_jobs < 0)
    return flag_error("jobs", "must be >= 0 (0 = all cores, 1 = serial)");
  if (replications > 1 && (!per_job_csv.empty() || !trace_csv.empty()))
    return flag_error("replications", "per-job/trace CSVs describe a single "
                      "run; drop --per-job/--trace-out or use "
                      "--replications 1");
  if (replications > 1 && !trace.empty())
    return flag_error("replications", "derived seeds only vary synthetic "
                      "workloads; a fixed trace would repeat the same run");
  if (!scenario_path.empty() && (synthetic || !trace.empty()))
    return flag_error("scenario", "a scenario file already carries its "
                      "workload; drop --trace/--synthetic");
  if (!scenario_path.empty() && replications > 1)
    return flag_error("replications", "a scenario describes one fixed run; "
                      "use --replications 1");
  if (streamed && !scenario_path.empty())
    return flag_error("streamed", "scenario files are materialized repros; "
                      "drop --scenario or --streamed");
  if (streamed && replications > 1)
    return flag_error("streamed", "the seed-mean aggregate path "
                      "materializes its workloads; use --replications 1");
  if (parallel_jobs == 0) parallel_jobs = es::util::hardware_parallelism();
  es::util::set_global_parallelism(parallel_jobs);

  es::workload::Workload workload;
  es::fuzz::Scenario scenario;
  const bool have_scenario = !scenario_path.empty();
  if (have_scenario) {
    // Malformed content is a validation failure (2); an unreadable file is
    // an I/O failure (3) — the same conventions as the CSV outputs.
    try {
      scenario = es::fuzz::load_scenario(scenario_path);
    } catch (const es::fuzz::ScenarioError& error) {
      std::fprintf(stderr, "simrun: --scenario: %s\n", error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "simrun: --scenario: %s\n", error.what());
      return 3;
    }
    workload = scenario.workload;
    std::printf("Scenario %s [%s seed %llu]: %zu jobs, %zu ECCs, "
                "offered load %.3f\n",
                scenario.name.c_str(), scenario.family.c_str(),
                static_cast<unsigned long long>(scenario.seed),
                workload.jobs.size(), workload.eccs.size(),
                es::workload::offered_load(workload,
                                           workload.machine_procs));
  } else if (synthetic || trace.empty()) {
    generator_config.machine_procs = procs;
    generator_config.num_jobs = static_cast<std::size_t>(num_jobs);
    generator_config.seed = seed;
    generator_config.p_small = p_small;
    generator_config.p_dedicated = p_dedicated;
    generator_config.p_extend = p_extend;
    generator_config.p_reduce = p_reduce;
    generator_config.target_load = load;
    if (streamed) {
      // Never materialize: the jobs flow straight from the generator into
      // the engine in bounded chunks.  The machine shape still has to be
      // on the (empty) workload for the reporting epilogue.
      workload.machine_procs = procs;
      workload.granularity = generator_config.size.unit;
      std::printf("Synthetic workload (streamed): %d jobs\n", num_jobs);
    } else {
      workload = es::workload::generate(generator_config);
      std::printf("Synthetic workload: %zu jobs, offered load %.3f\n",
                  workload.jobs.size(),
                  es::workload::offered_load(workload, procs));
    }
  } else {
    workload = es::workload::load_cwf_workload(trace);
    workload.machine_procs = procs;
    workload.granularity = granularity;
    std::erase_if(workload.jobs, [procs](const es::workload::Job& job) {
      return job.num > procs;
    });
    if (workload.jobs.empty()) {
      std::fprintf(stderr, "simrun: no usable jobs in %s\n", trace.c_str());
      return 1;
    }
    std::printf("Trace %s: %zu jobs, offered load %.3f\n", trace.c_str(),
                workload.jobs.size(),
                es::workload::offered_load(workload, procs));
  }

  if (have_scenario) {
    // The scenario owns the run-shaping knobs; CLI watchdog flags override
    // its budgets when explicitly set (e.g. to re-bound a runaway repro).
    options.engine.failure = scenario.engine.failure;
    options.engine.requeue = scenario.engine.requeue;
    options.engine.checkpoint = scenario.engine.checkpoint;
    if (max_events == 0)
      options.engine.watchdog.max_events = scenario.engine.watchdog.max_events;
    if (max_sim_time == 0)
      options.engine.watchdog.max_sim_time =
          scenario.engine.watchdog.max_sim_time;
    if (no_progress_cycles == 0)
      options.engine.watchdog.no_progress_cycles =
          scenario.engine.watchdog.no_progress_cycles;
  }
  if (workload.dedicated_count() > 0 &&
      !es::core::make_algorithm(algorithm).policy->supports_dedicated())
    return flag_error("algorithm", "this workload contains dedicated jobs; "
                      "pick a dedicated-aware (-D/Hybrid) algorithm");
  const bool streamed_synthetic = streamed && (synthetic || trace.empty());
  if (streamed_synthetic && p_dedicated > 0 &&
      !es::core::make_algorithm(algorithm).policy->supports_dedicated())
    return flag_error("algorithm", "streamed synthetic workloads with "
                      "--p-dedicated > 0 need a dedicated-aware (-D/Hybrid) "
                      "algorithm");

  if (replications > 1) {
    // Seed-mean aggregate mode: N derived seeds fanned across the worker
    // pool.  Everything printed here is deterministic — identical bytes at
    // any --jobs value — so diffing serial vs parallel output is a test.
    es::exp::RunSpec spec;
    spec.workload = generator_config;
    spec.algorithm = algorithm;
    spec.options = options;
    const es::exp::Aggregate aggregate =
        es::exp::run_replicated(spec, replications);
    es::util::AsciiTable table("simrun — " + algorithm + " (mean of " +
                               std::to_string(replications) + " seeds)");
    table.set_columns({"metric", "value"});
    table.cell("mean utilization %").cell(100.0 * aggregate.utilization, 2).end_row();
    table.cell("utilization ci95 %").cell(100.0 * aggregate.utilization_ci95, 2).end_row();
    table.cell("mean wait (s)").cell(aggregate.mean_wait, 1).end_row();
    table.cell("mean wait ci95 (s)").cell(aggregate.mean_wait_ci95, 1).end_row();
    table.cell("slowdown (paper defn)").cell(aggregate.slowdown, 3).end_row();
    table.cell("offered load").cell(aggregate.offered_load, 3).end_row();
    table.cell("ECCs processed").cell(static_cast<long long>(aggregate.ecc_processed)).end_row();
    if (perf_report) {
      table.cell("DP calls").cell(static_cast<long long>(aggregate.dp.calls)).end_row();
      table.cell("DP fast-path exits").cell(static_cast<long long>(aggregate.dp.fast_path)).end_row();
      table.cell("DP table runs").cell(static_cast<long long>(aggregate.dp.table_runs)).end_row();
      table.cell("events scheduled").cell(static_cast<long long>(aggregate.events.scheduled)).end_row();
      table.cell("events cancelled").cell(static_cast<long long>(aggregate.events.cancelled)).end_row();
      table.cell("events fired").cell(static_cast<long long>(aggregate.events.fired)).end_row();
      table.cell("peak pending events").cell(static_cast<long long>(aggregate.events.peak_pending)).end_row();
      add_cycle_stats_rows(table, aggregate.cycle);
    }
    table.render(std::cout);
    return 0;
  }

  es::sched::SimulationResult result;
  if (!restore_from.empty()) {
    // Resume an interrupted run.  kIo maps to the I/O exit code (3) like
    // the CSV outputs; everything else — torn frames, CRC mismatches,
    // version skew, a snapshot of a different run — is exit 6, so crash
    // tooling can tell "retry with the previous generation" from "disk is
    // broken".
    try {
      std::string snapshot_path = restore_from;
      std::error_code directory_check;
      if (std::filesystem::is_directory(restore_from, directory_check)) {
        const auto newest = es::snap::latest_intact(restore_from);
        if (!newest) {
          std::fprintf(stderr,
                       "simrun: --restore-from: no intact snapshot in %s\n",
                       restore_from.c_str());
          return 6;
        }
        snapshot_path = newest->path;
      }
      auto reader = es::snap::read_snapshot_file(snapshot_path);
      std::printf("Resuming from snapshot %s\n", snapshot_path.c_str());
      if (streamed_synthetic) {
        // Re-generate the stream up to the snapshot's cursor.
        es::workload::GeneratorSource source(generator_config);
        result = es::exp::resume_source(source, algorithm, options, reader);
      } else {
        result =
            es::exp::resume_workload(workload, algorithm, options, reader);
      }
    } catch (const es::snap::SnapshotError& error) {
      std::fprintf(stderr, "simrun: --restore-from: %s (%s)\n", error.what(),
                   es::snap::to_string(error.kind()));
      return error.kind() == es::snap::SnapshotErrorKind::kIo ? 3 : 6;
    }
  } else if (streamed_synthetic) {
    es::workload::GeneratorSource source(generator_config);
    result = es::exp::run_source(source, algorithm, options);
  } else {
    // A parsed trace (CWF needs the whole file for its backward command
    // references) runs with the same bounded engine state either way.
    result = es::exp::run_workload(workload, algorithm, options);
  }

  es::util::AsciiTable table("simrun — " + algorithm);
  table.set_columns({"metric", "value"});
  table.cell("mean utilization %").cell(100.0 * result.utilization, 2).end_row();
  table.cell("mean wait (s)").cell(result.mean_wait, 1).end_row();
  table.cell("slowdown (paper defn)").cell(result.slowdown, 3).end_row();
  table.cell("mean per-job slowdown").cell(result.mean_per_job_slowdown, 3).end_row();
  table.cell("mean bounded slowdown").cell(result.mean_bounded_slowdown, 3).end_row();
  table.cell("completed / killed")
      .cell(std::to_string(result.completed) + " / " +
            std::to_string(result.killed))
      .end_row();
  table.cell("dedicated on time").cell(static_cast<long long>(result.dedicated_on_time)).end_row();
  table.cell("mean dedicated delay (s)").cell(result.mean_dedicated_delay, 1).end_row();
  table.cell("ECCs processed").cell(static_cast<long long>(result.ecc.processed)).end_row();
  if (result.ecc.unknown_job > 0 || result.ecc.after_finish > 0) {
    table.cell("ECCs skipped (unknown job / after finish)")
        .cell(std::to_string(result.ecc.unknown_job) + " / " +
              std::to_string(result.ecc.after_finish))
        .end_row();
  }
  table.cell("events / cycles")
      .cell(std::to_string(result.events) + " / " +
            std::to_string(result.cycles))
      .end_row();
  table.cell("termination").cell(es::sim::to_string(result.termination)).end_row();
  if (result.termination != es::sim::TerminationReason::kCompleted)
    table.cell("unfinished jobs").cell(static_cast<long long>(result.unfinished)).end_row();
  if (options.engine.failure.enabled) {
    const auto& failure = result.failure;
    table.cell("outages").cell(static_cast<long long>(failure.outages)).end_row();
    table.cell("jobs interrupted / requeued")
        .cell(std::to_string(failure.interruptions) + " / " +
              std::to_string(failure.requeues))
        .end_row();
    table.cell("jobs abandoned").cell(static_cast<long long>(failure.abandoned)).end_row();
    table.cell("lost proc-seconds").cell(failure.lost_proc_seconds, 0).end_row();
    table.cell("down proc-seconds").cell(failure.down_proc_seconds, 0).end_row();
    table.cell("goodput proc-seconds").cell(failure.goodput_proc_seconds, 0).end_row();
    table.cell("wasted proc-seconds").cell(failure.wasted_proc_seconds, 0).end_row();
    if (options.engine.checkpoint.enabled) {
      table.cell("checkpoints taken").cell(static_cast<long long>(failure.checkpoints)).end_row();
      table.cell("checkpoint overhead proc-seconds")
          .cell(failure.checkpoint_overhead_proc_seconds, 0).end_row();
      table.cell("saved proc-seconds").cell(failure.saved_proc_seconds, 0).end_row();
    }
  }
  table.render(std::cout);

  if (result.perf.fairness.collected) {
    const es::sched::FairnessStats& fairness = result.perf.fairness;
    es::util::AsciiTable fair_table("fairness — per-pool service and wait");
    fair_table.set_columns({"pool", "weight", "entitled", "got", "started",
                            "wait mean (s)", "wait p99 (s)", "satisfaction"});
    for (const es::sched::PoolFairnessStats& pool : fairness.pools) {
      fair_table.cell(pool.name)
          .cell(pool.weight, 2)
          .cell(pool.entitlement_share, 3)
          .cell(pool.service_share, 3)
          .cell(static_cast<long long>(pool.started))
          .cell(pool.wait_mean, 1)
          .cell(pool.wait_p99, 1)
          .cell(pool.satisfaction, 3)
          .end_row();
    }
    fair_table.render(std::cout);
    std::printf("Jain fairness index: %.4f\n", fairness.jain);
  }

  if (perf_report) {
    // Counters are deterministic; the wall rows are measurement only.
    const es::sched::PerfStats& perf = result.perf;
    es::util::AsciiTable perf_table("perf — hot-path breakdown");
    perf_table.set_columns({"counter", "value"});
    perf_table.cell("DP calls").cell(static_cast<long long>(perf.dp.calls)).end_row();
    perf_table.cell("DP fast-path exits").cell(static_cast<long long>(perf.dp.fast_path)).end_row();
    perf_table.cell("DP table runs").cell(static_cast<long long>(perf.dp.table_runs)).end_row();
    perf_table.cell("DP table cells").cell(static_cast<long long>(perf.dp.table_cells)).end_row();
    perf_table.cell("events scheduled").cell(static_cast<long long>(perf.events.scheduled)).end_row();
    perf_table.cell("events cancelled").cell(static_cast<long long>(perf.events.cancelled)).end_row();
    perf_table.cell("events fired").cell(static_cast<long long>(perf.events.fired)).end_row();
    perf_table.cell("peak pending events").cell(static_cast<long long>(perf.events.peak_pending)).end_row();
    add_cycle_stats_rows(perf_table, perf.cycle);
    perf_table.cell("cycle wall (s)").cell(perf.cycle_seconds, 4).end_row();
    perf_table.cell("run wall (s)").cell(perf.wall_seconds, 4).end_row();
    // Derived throughput figures.  Always printed so report parsers see a
    // stable row set; a zero denominator (instant run, no DP invocations)
    // reports 0 instead of dividing by it.
    perf_table.cell("events per second")
        .cell(perf.wall_seconds > 0
                  ? static_cast<double>(perf.events.fired) / perf.wall_seconds
                  : 0.0,
              0)
        .end_row();
    perf_table.cell("DP table wall (s)").cell(perf.dp.table_seconds, 4).end_row();
    perf_table.cell("DP ns per table run")
        .cell(perf.dp.table_runs > 0
                  ? 1e9 * perf.dp.table_seconds /
                        static_cast<double>(perf.dp.table_runs)
                  : 0.0,
              1)
        .end_row();
    if (perf.peak_rss_bytes > 0) {
      perf_table.cell("peak RSS (MiB)")
          .cell(static_cast<double>(perf.peak_rss_bytes) / (1024.0 * 1024.0),
                1)
          .end_row();
    }
    perf_table.render(std::cout);
  }

  if (profile) {
    const auto timeline =
        es::exp::utilization_timeline(result, workload.machine_procs, 72);
    std::printf("\nutilization over time (%s total):\n%s\n",
                es::util::format_duration(result.makespan).c_str(),
                es::exp::render_profile(timeline).c_str());
  }

  // CSV outputs are crash-safe: written to a temp sibling and renamed into
  // place, so readers never observe a truncated file.  On a watchdog abort
  // the files still carry the partial run (tagged via the termination row).
  if (!trace_csv.empty() && result.trace != nullptr) {
    const bool ok = es::util::write_file_atomic(
        trace_csv, [&result](std::ostream& out) {
          result.trace->write_csv(out);
          return out.good();
        });
    if (!ok) {
      std::fprintf(stderr, "simrun: cannot write %s\n", trace_csv.c_str());
      return 3;
    }
    std::printf("[csv] %s (%zu events)\n", trace_csv.c_str(),
                result.trace->size());
  }

  if (!per_job_csv.empty()) {
    const bool ok = es::util::write_file_atomic(
        per_job_csv, [&result](std::ostream& out) {
          es::util::CsvWriter csv(out);
          csv.set_header({"id", "dedicated", "killed", "procs", "arrival",
                          "started", "finished", "wait", "run"});
          for (const auto& job : result.jobs) {
            csv.cell(static_cast<long long>(job.id))
                .cell(static_cast<long long>(job.dedicated))
                .cell(static_cast<long long>(job.killed))
                .cell(job.procs)
                .cell(job.arrival)
                .cell(job.started)
                .cell(job.finished)
                .cell(job.wait)
                .cell(job.run);
            csv.end_row();
          }
          return out.good();
        });
    if (!ok) {
      std::fprintf(stderr, "simrun: cannot write %s\n", per_job_csv.c_str());
      return 3;
    }
    std::printf("[csv] %s (%zu rows)\n", per_job_csv.c_str(),
                result.jobs.size());
  }
  return result.termination == es::sim::TerminationReason::kCompleted ? 0 : 4;
}
