// Million-job scale soak (BENCH_PR8.json): the scale_10k experiment pushed
// three orders of magnitude past the paper's 500-job campaigns, which is
// the regime production traces occupy (SDSC/CTC-scale archives run to
// millions of jobs).
//
// Legs, in a deliberate order — util::peak_rss_bytes() is the process
// high-water mark, so the leg whose footprint is under test must run while
// the mark is still low:
//
//   1. streamed: one Delayed-LOS run over the full trace pulled through a
//      GeneratorSource in bounded chunks.  The trace never materializes;
//      engine state is the in-flight jobs only.  This is the headline
//      events/s and peak-RSS number.
//   2. materialized: the same trace generated up front and run through
//      Engine::run — the RSS comparison point (sub-linear claim) and the
//      full-length parity gate: the deterministic result serialization of
//      legs 1 and 2 must be byte-identical.
//   3. per-job parity at a bounded N: with per-job outcome ledgers on
//      (deliberately off in the full-length legs — the ledger itself is
//      O(N) memory), streamed vs materialized fingerprints must match down
//      to every per-job line.
//
// Exit status gates the two parity verdicts; throughput and RSS are
// measurements, recorded in BENCH_PR8.json for the trajectory.  Every
// BENCH record carries `host_cores` and `threads`: the PR 8 record was
// taken on a 1-core host, which made its speedup figure meaningless
// without that provenance.
#include <cstdio>

#include "bench_common.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  es::bench::BenchOptions options;
  if (!es::bench::parse_bench_options(
          argc, argv, "Million-job scale soak (streamed vs materialized)",
          options))
    return 0;

  // --quick is the CI smoke shape: 100k jobs keeps the Release leg a few
  // seconds while still ~50 refill chunks deep into streaming.
  const std::size_t big = options.quick ? 100000 : 1000000;
  const double load = 0.7;  // scale_10k's stable regime
  const es::workload::GeneratorConfig config =
      es::bench::scale_workload(options, big, load);
  es::core::AlgorithmOptions algo = es::bench::algo_options(options);
  // The per-job outcome ledger is itself O(N) memory; the full-length legs
  // measure the engine, not the ledger.  Leg 3 turns it back on.
  algo.engine.keep_job_outcomes = false;

  std::printf("scale_1m: %zu jobs, Delayed-LOS, load %.1f\n", big, load);

  // Leg 1: streamed.
  const es::bench::ScaleLeg streamed =
      es::bench::run_scale_leg(config, "Delayed-LOS", algo, true);

  // Leg 2: materialized — RSS comparison point and full-length parity.
  const es::bench::ScaleLeg materialized =
      es::bench::run_scale_leg(config, "Delayed-LOS", algo, false);
  const bool full_identical =
      es::bench::result_fingerprint_csv(streamed.result) ==
      es::bench::result_fingerprint_csv(materialized.result);

  // Leg 3: per-job parity at a ledger-friendly N.
  const std::size_t parity_jobs = options.quick ? 5000 : 20000;
  es::core::AlgorithmOptions ledger = algo;
  ledger.engine.keep_job_outcomes = true;
  const es::workload::GeneratorConfig parity_config =
      es::bench::scale_workload(options, parity_jobs, load);
  const es::bench::ScaleLeg parity_streamed =
      es::bench::run_scale_leg(parity_config, "Delayed-LOS", ledger, true);
  const es::bench::ScaleLeg parity_materialized =
      es::bench::run_scale_leg(parity_config, "Delayed-LOS", ledger, false);
  const bool per_job_identical =
      es::bench::result_fingerprint_csv(parity_streamed.result) ==
      es::bench::result_fingerprint_csv(parity_materialized.result);

  const unsigned threads = es::util::global_parallelism();

  const auto mib = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  es::util::AsciiTable table("Million-job scale — streamed vs materialized");
  table.set_columns(
      {"leg", "N", "wall s", "events", "Mev/s", "peak RSS MiB"});
  const auto row = [&](const char* name, std::size_t jobs,
                       const es::bench::ScaleLeg& leg) {
    table.cell(name)
        .cell(static_cast<long long>(jobs))
        .cell(leg.wall_seconds, 3)
        .cell(static_cast<long long>(leg.events_fired))
        .cell(leg.events_per_second / 1e6, 2)
        .cell(mib(leg.peak_rss_bytes), 1);
    table.end_row();
  };
  row("streamed", big, streamed);
  row("materialized", big, materialized);
  row("parity streamed", parity_jobs, parity_streamed);
  row("parity materialized", parity_jobs, parity_materialized);
  table.render(std::cout);

  // PR 5's scale leg measured 1.30372e6 events/s at 10k jobs on the
  // recorded host; the acceptance target is a multiple of that at 100x the
  // trace length.
  const double pr5_events_per_second = 1.30372e6;
  std::printf(
      "\nstreamed: %.2fM events/s (%.2fx the PR 5 scale leg), peak RSS "
      "%.1f MiB vs materialized %.1f MiB\n",
      streamed.events_per_second / 1e6,
      streamed.events_per_second / pr5_events_per_second,
      mib(streamed.peak_rss_bytes), mib(materialized.peak_rss_bytes));
  std::printf("parity: full-length %s, per-job (N=%zu) %s\n",
              full_identical ? "byte-identical" : "DIVERGED", parity_jobs,
              per_job_identical ? "byte-identical" : "DIVERGED");

  const std::string out_path = "BENCH_PR8.json";
  const bool ok = es::util::write_file_atomic(out_path, [&](std::ostream&
                                                                out) {
    out << "{\n"
        << "  \"bench\": \"scale_1m\",\n"
        << "  \"pr\": 8,\n"
        << "  \"host_cores\": " << es::util::hardware_parallelism() << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"workload\": {\"num_jobs\": " << big
        << ", \"target_load\": " << load
        << ", \"p_small\": 0.5, \"algorithm\": \"Delayed-LOS\", "
           "\"chunk_jobs\": "
        << es::workload::GeneratorSource::kDefaultChunkJobs << "},\n"
        << "  \"streamed\": {\"wall_seconds\": " << streamed.wall_seconds
        << ", \"events_fired\": " << streamed.events_fired
        << ", \"events_per_second\": " << streamed.events_per_second
        << ", \"peak_rss_bytes\": " << streamed.peak_rss_bytes
        << ", \"speedup_vs_pr5_scale\": "
        << streamed.events_per_second / pr5_events_per_second << "},\n"
        << "  \"materialized\": {\"wall_seconds\": "
        << materialized.wall_seconds
        << ", \"events_fired\": " << materialized.events_fired
        << ", \"events_per_second\": " << materialized.events_per_second
        << ", \"peak_rss_bytes\": " << materialized.peak_rss_bytes << "},\n"
        << "  \"parity\": {\"full_length_identical\": "
        << (full_identical ? "true" : "false")
        << ", \"per_job_num_jobs\": " << parity_jobs
        << ", \"per_job_identical\": "
        << (per_job_identical ? "true" : "false") << "}\n"
        << "}\n";
    return out.good();
  });
  if (!ok) {
    std::fprintf(stderr, "scale_1m: cannot write %s\n", out_path.c_str());
    return 3;
  }
  std::printf("[json] %s\n", out_path.c_str());

  return (full_identical && per_job_identical) ? 0 : 1;
}
