#include "core/config_spine.hpp"

#include "sched/engine_params.hpp"

namespace es::core {

void register_run_params(util::ParamRegistry& registry,
                         AlgorithmOptions& options) {
  registry
      .add_int("algorithm.max_skip_count", &options.max_skip_count,
               "C_s skip budget for Delayed-LOS / Hybrid-LOS")
      .range(0, 1 << 20)
      .alias("algorithm.cs");
  registry
      .add_int("algorithm.lookahead", &options.lookahead,
               "DP lookahead depth (Shmueli's 50-job limit)")
      .range(1, 1 << 20);
  sched::register_engine_params(registry, options.engine);
}

void register_tenancy_params(util::ParamRegistry& registry,
                             workload::GeneratorConfig& config) {
  registry
      .add_int("tenancy.users", &config.num_users,
               "Zipf-distributed submitting users to tag jobs with (0 = "
               "untagged)")
      .range(0, 10'000'000)
      .alias("tenancy.num_users");
  registry
      .add_double("tenancy.zipf_exponent", &config.zipf_exponent,
                  "Zipf exponent of per-user submission rates")
      .range(0.01, 10);
  registry
      .add_int("tenancy.pools", &config.num_pools,
               "fair-share pools jobs are charged to, round-robin over user "
               "rank (0 = all in pool 0)")
      .range(0, 255)
      .alias("tenancy.num_pools");
}

}  // namespace es::core
