#include "exp/experiment.hpp"

#include <cmath>
#include <limits>

#include "exp/analysis.hpp"
#include "snap/snapshot.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace es::exp {

namespace {

/// One config spine: the options carry the EngineConfig verbatim; only
/// the machine shape (owned by the source) and the name-derived ECC flags
/// are overridden.
sched::EngineConfig engine_config(const workload::JobSource& source,
                                  const core::Algorithm& algo,
                                  const core::AlgorithmOptions& options) {
  sched::EngineConfig config = options.engine;
  config.machine_procs = source.machine_procs();
  config.granularity = source.granularity();
  config.process_eccs = algo.process_eccs;
  config.allow_running_resize = algo.allow_running_resize;
  return config;
}

}  // namespace

// The workload entry points drain a MaterializedSource through the source
// entry points, as Engine::run() does.

sched::SimulationResult run_workload(const workload::Workload& workload,
                                     const std::string& algorithm,
                                     const core::AlgorithmOptions& options,
                                     sched::EngineObserver* observer,
                                     sched::HookMask mask) {
  return run_workload_prepared(
      workload, algorithm, options, [observer, mask](sched::Engine& engine) {
        if (observer != nullptr) engine.add_observer(observer, mask);
      });
}

sched::SimulationResult run_source(
    workload::JobSource& source, const std::string& algorithm,
    const core::AlgorithmOptions& options,
    const std::function<void(sched::Engine&)>& prepare) {
  // make_algorithm throws UnknownAlgorithmError for bad names, so the
  // policy is always valid here.
  core::Algorithm algo = core::make_algorithm(algorithm, options);
  sched::Engine engine(engine_config(source, algo, options), *algo.policy);
  if (prepare) prepare(engine);
  return engine.run_streamed(source);
}

sched::SimulationResult run_workload_prepared(
    const workload::Workload& workload, const std::string& algorithm,
    const core::AlgorithmOptions& options,
    const std::function<void(sched::Engine&)>& prepare) {
  workload::MaterializedSource source(workload);
  return run_source(source, algorithm, options, prepare);
}

sched::SimulationResult resume_workload(const workload::Workload& workload,
                                        const std::string& algorithm,
                                        const core::AlgorithmOptions& options,
                                        snap::SnapshotReader& reader) {
  workload::MaterializedSource source(workload);
  return resume_source(source, algorithm, options, reader);
}

sched::SimulationResult resume_source(workload::JobSource& source,
                                      const std::string& algorithm,
                                      const core::AlgorithmOptions& options,
                                      snap::SnapshotReader& reader) {
  core::Algorithm algo = core::make_algorithm(algorithm, options);
  sched::Engine engine(engine_config(source, algo, options), *algo.policy);
  return engine.resume(source, reader);
}

sched::SimulationResult run_once(const RunSpec& spec) {
  const workload::Workload workload = workload::generate(spec.workload);
  return run_workload(workload, spec.algorithm, spec.options);
}

Aggregate run_replicated(RunSpec spec, int replications) {
  ES_EXPECTS(replications > 0);
  Aggregate aggregate;
  aggregate.algorithm = spec.algorithm;
  aggregate.replications = replications;

  // Replications are independent by construction: seed i is derived up
  // front (base_seed + i) and each run writes its own pre-sized slot, so
  // fanning them across the pool changes nothing but wall time.  The
  // statistics are then folded serially in index order — the identical
  // floating-point operation order to the old serial loop, which keeps
  // parallel results byte-for-byte equal to `--jobs 1`.
  const std::uint64_t base_seed = spec.workload.seed;
  std::vector<sched::SimulationResult> results(
      static_cast<std::size_t>(replications));
  util::parallel_for_each(
      static_cast<std::size_t>(replications), [&](std::size_t i) {
        RunSpec replication = spec;
        replication.workload.seed = base_seed + i;
        results[i] = run_once(replication);
      });

  util::RunningStats util_stats, wait_stats, slowdown_stats, load_stats;
  util::RunningStats dedicated_delay_stats;
  for (const sched::SimulationResult& result : results) {
    util_stats.add(result.utilization);
    wait_stats.add(result.mean_wait);
    slowdown_stats.add(result.slowdown);
    load_stats.add(result.offered_load);
    dedicated_delay_stats.add(result.mean_dedicated_delay);
    aggregate.ecc_processed += result.ecc.processed;
    aggregate.dp += result.perf.dp;
    aggregate.events += result.perf.events;
    aggregate.cycle += result.perf.cycle;
  }
  aggregate.utilization = util_stats.mean();
  aggregate.mean_wait = wait_stats.mean();
  aggregate.slowdown = slowdown_stats.mean();
  aggregate.utilization_stddev = util_stats.stddev();
  aggregate.mean_wait_stddev = wait_stats.stddev();
  aggregate.utilization_ci95 = confidence_half_width_95(util_stats);
  aggregate.mean_wait_ci95 = confidence_half_width_95(wait_stats);
  aggregate.offered_load = load_stats.mean();
  aggregate.mean_dedicated_delay = dedicated_delay_stats.mean();
  return aggregate;
}

int optimal_skip_count(const workload::GeneratorConfig& config, int cs_min,
                       int cs_max, int replications) {
  ES_EXPECTS(cs_min >= 1 && cs_min <= cs_max);
  // Every C_s candidate is independent; evaluate them all across the pool
  // and pick the winner serially.  The strict `<` keeps the serial loop's
  // tie-break: the lowest C_s reaching the best wait wins.
  const std::size_t count = static_cast<std::size_t>(cs_max - cs_min + 1);
  std::vector<double> waits(count);
  util::parallel_for_each(count, [&](std::size_t i) {
    RunSpec spec;
    spec.workload = config;
    spec.algorithm = "Delayed-LOS";
    spec.options.max_skip_count = cs_min + static_cast<int>(i);
    waits[i] = run_replicated(spec, replications).mean_wait;
  });
  int best_cs = cs_min;
  double best_wait = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    if (waits[i] < best_wait) {
      best_wait = waits[i];
      best_cs = cs_min + static_cast<int>(i);
    }
  }
  return best_cs;
}

}  // namespace es::exp
