// Scale check (paper section V): "We also ran simulations for a couple of
// scenarios with 10,000 jobs and found no significant difference in
// performance metrics from the 500 job runs."
//
// Reproduced here: the same two scenarios at N = 500 and N = 10,000 with
// identical offered load; the interesting question is whether the
// *ordering* and rough relative gaps persist, and it also serves as a
// throughput soak test (the 10k run still takes well under a second).
// The million-job extension of this experiment lives in scale_1m, built on
// the same scale_workload/run_scale_* harness.
//
// stdout carries only the deterministic science table; the wall time of
// each point goes to stderr, so two runs' stdout compare byte for byte.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Scale check: 500 vs 10,000 jobs", options))
    return 0;

  const std::size_t big = options.quick ? 2000 : 10000;
  // Two regimes: load 0.7 sits below the fragmentation-limited utilization
  // ceiling (~80%), so queues are stable and metrics should be
  // N-independent (the paper's claim); load 0.9 exceeds the ceiling, so
  // backlog — and thus mean wait — grows with trace length for *every*
  // policy, which calibrates what "no significant difference" implies
  // about the original testbed's operating point.
  for (double load : {0.7, 0.9}) {
    char title[96];
    std::snprintf(title, sizeof title,
                  "Scale check — P_S=0.5, load %.1f (N=500 vs N=%zu)", load,
                  big);
    es::util::AsciiTable table(title);
    table.set_columns({"algorithm", "N", "util %", "wait s", "slowdown"});
    for (const char* algorithm : {"EASY", "LOS", "Delayed-LOS"}) {
      for (std::size_t jobs : {std::size_t{500}, big}) {
        es::exp::RunSpec spec;
        spec.workload = es::bench::scale_workload(options, jobs, load);
        spec.algorithm = algorithm;
        spec.options = es::bench::algo_options(options);
        const es::bench::ScalePoint point =
            es::bench::run_scale_point(spec, options.replications);
        table.cell(algorithm)
            .cell(static_cast<long long>(jobs))
            .cell(100.0 * point.aggregate.utilization, 2)
            .cell(point.aggregate.mean_wait, 0)
            .cell(point.aggregate.slowdown, 3);
        table.end_row();
        std::fprintf(stderr, "scale_10k: %s N=%zu load %.1f: %.0f ms\n",
                     algorithm, jobs, load, point.wall_seconds * 1000.0);
      }
    }
    table.render(std::cout);
    std::cout << '\n';
  }
  std::printf(
      "Paper: 10,000-job runs showed no significant difference from the\n"
      "500-job runs.  Expect that to hold in the stable regime (load 0.7);\n"
      "above the utilization ceiling the backlog grows with trace length\n"
      "for every policy, so absolute waits scale with N there.\n");
  return 0;
}
