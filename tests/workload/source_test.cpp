// JobSource contract tests: every source must deliver, chunk by chunk,
// exactly the jobs and commands its materializing counterpart produces —
// same values, same (arr, id) / (issue, job_id) order, chunk boundaries
// that never split a same-instant tie group, and command windows that
// concatenate to the normalize() order.  These invariants are what make
// the engine's schedule independent of where a source cuts its chunks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "testing/helpers.hpp"
#include "testing/temp_path.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"
#include "workload/swf.hpp"

namespace es::workload {
namespace {

/// Drains a source, checking per-chunk invariants along the way, and
/// returns the concatenation.
struct Drained {
  std::vector<Job> jobs;
  std::vector<int> ecc_counts;
  std::vector<Ecc> eccs;
  std::size_t chunks = 0;
};

Drained drain(JobSource& source) {
  Drained all;
  SourceChunk chunk;
  while (source.next_chunk(chunk)) {
    EXPECT_FALSE(chunk.jobs.empty());
    EXPECT_EQ(chunk.jobs.size(), chunk.ecc_counts.size());
    if (!all.jobs.empty() && !chunk.jobs.empty()) {
      // Tie-group contract: a chunk boundary never splits equal arrivals.
      EXPECT_GT(chunk.jobs.front().arr, all.jobs.back().arr);
    }
    all.jobs.insert(all.jobs.end(), chunk.jobs.begin(), chunk.jobs.end());
    all.ecc_counts.insert(all.ecc_counts.end(), chunk.ecc_counts.begin(),
                          chunk.ecc_counts.end());
    all.eccs.insert(all.eccs.end(), chunk.eccs.begin(), chunk.eccs.end());
    ++all.chunks;
  }
  // Exhausted sources stay exhausted.
  EXPECT_FALSE(source.next_chunk(chunk));
  return all;
}

void expect_same_jobs(const std::vector<Job>& expected,
                      const std::vector<Job>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Job& a = expected[i];
    const Job& b = actual[i];
    EXPECT_EQ(a.id, b.id) << "job " << i;
    EXPECT_EQ(a.arr, b.arr) << "job " << i;
    EXPECT_EQ(a.num, b.num) << "job " << i;
    EXPECT_EQ(a.dur, b.dur) << "job " << i;
    EXPECT_EQ(a.actual, b.actual) << "job " << i;
    EXPECT_EQ(a.type, b.type) << "job " << i;
    EXPECT_EQ(a.start, b.start) << "job " << i;
  }
}

void expect_same_eccs(const std::vector<Ecc>& expected,
                      const std::vector<Ecc>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].issue, actual[i].issue) << "ecc " << i;
    EXPECT_EQ(expected[i].job_id, actual[i].job_id) << "ecc " << i;
    EXPECT_EQ(expected[i].type, actual[i].type) << "ecc " << i;
    EXPECT_EQ(expected[i].amount, actual[i].amount) << "ecc " << i;
  }
}

void expect_counts_are_totals(const Drained& drained) {
  std::size_t total = 0;
  for (const int count : drained.ecc_counts) {
    EXPECT_GE(count, 0);
    total += static_cast<std::size_t>(count);
  }
  EXPECT_EQ(total, drained.eccs.size());
}

// --- MaterializedSource ----------------------------------------------------

TEST(MaterializedSource, DeliversWorkloadVerbatimAcrossChunkSizes) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 150;
  config.seed = 7;
  config.p_extend = 0.3;
  config.p_reduce = 0.2;
  config.max_eccs_per_job = 2;
  config.p_dedicated = 0.2;
  const Workload workload = generate(config);
  ASSERT_FALSE(workload.eccs.empty());

  for (const std::size_t chunk_jobs :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{1000}}) {
    SCOPED_TRACE(chunk_jobs);
    MaterializedSource source(workload, chunk_jobs);
    EXPECT_EQ(source.machine_procs(), workload.machine_procs);
    EXPECT_EQ(source.granularity(), workload.granularity);
    Drained drained = drain(source);
    expect_same_jobs(workload.jobs, drained.jobs);
    expect_same_eccs(workload.eccs, drained.eccs);
    expect_counts_are_totals(drained);
  }
}

TEST(MaterializedSource, CountsCommandsOnTheJobsChunkNotTheIssueChunk) {
  // Job 1 arrives at t=0 but its command issues at t=500, inside job 3's
  // window: the command must ride in a later chunk while the *count* rides
  // with job 1.
  std::vector<Job> jobs = {es::testing::batch_job(1, 0, 4, 100),
                           es::testing::batch_job(2, 200, 4, 100),
                           es::testing::batch_job(3, 400, 4, 100),
                           es::testing::batch_job(4, 600, 4, 100)};
  Ecc ecc;
  ecc.job_id = 1;
  ecc.type = EccType::kExtendTime;
  ecc.amount = 50;
  ecc.issue = 500;
  const Workload workload = es::testing::make_workload(64, 8, jobs, {ecc});

  MaterializedSource source(workload, 1);
  SourceChunk chunk;
  ASSERT_TRUE(source.next_chunk(chunk));
  ASSERT_EQ(chunk.jobs.size(), 1u);
  EXPECT_EQ(chunk.jobs[0].id, 1);
  EXPECT_EQ(chunk.ecc_counts[0], 1);  // total ever, not in-window
  EXPECT_TRUE(chunk.eccs.empty());    // issue=500 is outside [0, 200)
  ASSERT_TRUE(source.next_chunk(chunk));  // jobs[1]: window [200, 400)
  EXPECT_TRUE(chunk.eccs.empty());
  ASSERT_TRUE(source.next_chunk(chunk));  // jobs[2]: window [400, 600)
  ASSERT_EQ(chunk.eccs.size(), 1u);
  EXPECT_EQ(chunk.eccs[0].job_id, 1);
}

TEST(MaterializedSource, NeverSplitsEqualArrivalGroups) {
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i)
    jobs.push_back(es::testing::batch_job(i + 1, 100.0 * (i / 4), 4, 50));
  const Workload workload = es::testing::make_workload(64, 8, jobs);
  MaterializedSource source(workload, 3);  // nominal chunk < group size
  SourceChunk chunk;
  while (source.next_chunk(chunk)) {
    ASSERT_EQ(chunk.jobs.size(), 4u);  // extended to the full tie group
    for (const Job& job : chunk.jobs)
      EXPECT_EQ(job.arr, chunk.jobs.front().arr);
  }
}

TEST(MaterializedSource, ExtendsAChunkToTheTargetOfAnEarlyCommand) {
  // Job 5's command issues at t=50, two windows before job 5 arrives (400):
  // the chunk holding the command grows until it builds job 5, while an
  // unknown id's command neither counts nor extends anything.
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i)
    jobs.push_back(es::testing::batch_job(i + 1, 100.0 * i, 4, 50));
  const Workload workload = es::testing::make_workload(
      64, 8, jobs,
      {{50, 5, EccType::kExtendTime, 10}, {150, 77, EccType::kExtendTime, 10}});
  MaterializedSource source(workload, 1);
  SourceChunk chunk;
  ASSERT_TRUE(source.next_chunk(chunk));
  ASSERT_EQ(chunk.jobs.size(), 5u);  // jobs 1..5: the target is built
  EXPECT_EQ(chunk.ecc_counts[4], 1);
  ASSERT_EQ(chunk.eccs.size(), 2u);  // window [0, 500) holds both
  ASSERT_TRUE(source.next_chunk(chunk));
  EXPECT_EQ(chunk.jobs.size(), 1u);
  EXPECT_FALSE(source.next_chunk(chunk));
}

TEST(MaterializedSource, UnsortedWorkloadTravelsAsOneChunk) {
  // A workload that was never normalize()d keeps its job order (the
  // same-instant tie-break of a run over it) in a single chunk, and its
  // commands arrive stably sorted by issue time — their firing order.
  Workload workload;
  workload.jobs = {es::testing::batch_job(1, 0, 4, 50),
                   es::testing::batch_job(3, 200, 4, 50),
                   es::testing::batch_job(2, 100, 4, 50)};
  workload.eccs = {{250, 3, EccType::kExtendTime, 10},
                   {120, 2, EccType::kExtendTime, 10},
                   {250, 1, EccType::kExtendTime, 10}};
  MaterializedSource source(workload, 1);
  SourceChunk chunk;
  ASSERT_TRUE(source.next_chunk(chunk));
  ASSERT_EQ(chunk.jobs.size(), 3u);
  EXPECT_EQ(chunk.jobs[1].id, 3);
  ASSERT_EQ(chunk.eccs.size(), 3u);
  EXPECT_EQ(chunk.eccs[0].job_id, 2);
  EXPECT_EQ(chunk.eccs[1].job_id, 3);  // ties keep workload order
  EXPECT_FALSE(source.next_chunk(chunk));
}

// --- GeneratorSource -------------------------------------------------------

TEST(GeneratorSource, MatchesGenerateExactly) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 200;
  config.seed = 13;
  config.p_dedicated = 0.2;
  config.p_extend = 0.25;
  config.p_reduce = 0.25;
  config.p_extend_procs = 0.1;
  config.p_reduce_procs = 0.1;
  config.max_eccs_per_job = 3;
  const Workload workload = generate(config);

  for (const std::size_t chunk_jobs : {std::size_t{1}, std::size_t{17}}) {
    SCOPED_TRACE(chunk_jobs);
    GeneratorSource source(config, chunk_jobs);
    EXPECT_EQ(source.machine_procs(), config.machine_procs);
    Drained drained = drain(source);
    expect_same_jobs(workload.jobs, drained.jobs);
    expect_same_eccs(workload.eccs, drained.eccs);
    expect_counts_are_totals(drained);
  }
}

TEST(GeneratorSource, MatchesGenerateUnderLoadCalibration) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 150;
  config.seed = 21;
  config.target_load = 0.8;
  config.p_extend = 0.2;
  const Workload workload = generate(config);

  GeneratorSource source(config, 32);
  // The calibration factor chain must replay generate()'s exact scaling.
  EXPECT_FALSE(source.scale_factors().empty());
  Drained drained = drain(source);
  expect_same_jobs(workload.jobs, drained.jobs);
  expect_same_eccs(workload.eccs, drained.eccs);
}

TEST(GeneratorSource, NoCalibrationWithoutTargetLoad) {
  GeneratorConfig config;
  config.machine_procs = 64;
  config.size.unit = 8;
  config.num_jobs = 40;
  config.seed = 2;
  GeneratorSource source(config, 16);
  EXPECT_TRUE(source.scale_factors().empty());
  Drained drained = drain(source);
  const Workload workload = generate(config);
  expect_same_jobs(workload.jobs, drained.jobs);
}

// --- SwfJobSource ----------------------------------------------------------

/// Writes `text` to a unique temp file and returns the path.
std::string write_temp_swf(const std::string& name, const std::string& text) {
  const std::string path = es::testing::unique_temp_path(name);
  std::ofstream out(path);
  out << text;
  return path;
}

/// A record line with the fields the importer reads.
std::string swf_line(long long id, double submit, double run, long long procs,
                     double req_time = -1, long long status = 1) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "%lld %.0f -1 %.0f %lld -1 -1 %lld %.0f -1 %lld -1 -1 -1 -1 "
                "-1 -1 -1\n",
                id, submit, run, procs, procs, req_time, status);
  return line;
}

TEST(SwfJobSource, MatchesMaterializingLoaderOnSampleTrace) {
  for (const bool import_partial : {true, false}) {
    SCOPED_TRACE(import_partial);
    SwfImportOptions import;
    import.import_partial = import_partial;
    std::vector<Job> expected = load_swf_jobs(ES_SAMPLE_TRACE, import);
    // The engine consumes normalized workloads; the source must deliver
    // the same (arr, id) order without materializing.
    std::sort(expected.begin(), expected.end(), [](const Job& a, const Job& b) {
      if (a.arr != b.arr) return a.arr < b.arr;
      return a.id < b.id;
    });

    SwfJobSource::Options options;
    options.import = import;
    options.machine_procs = 128;
    options.chunk_jobs = 16;
    SwfJobSource source(ES_SAMPLE_TRACE, options);
    Drained drained = drain(source);
    expect_same_jobs(expected, drained.jobs);
    EXPECT_EQ(source.parse_errors(), 0u);
    for (const int count : drained.ecc_counts) EXPECT_EQ(count, 0);
  }
}

TEST(SwfJobSource, CountsDropsLikeTheLoader) {
  std::string text = "; UnixStartTime: 0\n";
  text += swf_line(1, 0, 100, 4);
  text += swf_line(2, 10, -1, -1);       // unusable: no procs, no runtime
  text += swf_line(3, 20, 0, 4, -1, 0);  // failed before running
  text += swf_line(4, 30, 50, 4, 200, 0);  // partial run
  text += swf_line(5, 40, 100, 4);
  const std::string path = write_temp_swf("source_drops.swf", text);

  {
    SwfJobSource::Options options;
    options.machine_procs = 64;
    SwfJobSource source(path, options);
    Drained drained = drain(source);
    EXPECT_EQ(drained.jobs.size(), 3u);  // 1, 4 (partial kept), 5
    EXPECT_EQ(source.drops().unusable, 1u);
    EXPECT_EQ(source.drops().never_ran, 1u);
    EXPECT_EQ(source.drops().partial_disabled, 0u);
  }
  {
    SwfJobSource::Options options;
    options.machine_procs = 64;
    options.import.import_partial = false;
    SwfJobSource source(path, options);
    Drained drained = drain(source);
    EXPECT_EQ(drained.jobs.size(), 2u);  // partial now dropped too
    EXPECT_EQ(source.drops().partial_disabled, 1u);
    EXPECT_EQ(source.drops().total(), 3u);
  }
  std::remove(path.c_str());
}

TEST(SwfJobSource, ReordersLocalSubmitInversions) {
  std::string text;
  text += swf_line(1, 100, 60, 4);
  text += swf_line(2, 50, 60, 4);  // out of order, within the window
  text += swf_line(3, 150, 60, 4);
  const std::string path = write_temp_swf("source_reorder.swf", text);
  SwfJobSource::Options options;
  options.machine_procs = 64;
  options.reorder_window = 4;
  SwfJobSource source(path, options);
  Drained drained = drain(source);
  ASSERT_EQ(drained.jobs.size(), 3u);
  EXPECT_EQ(drained.jobs[0].id, 2);
  EXPECT_EQ(drained.jobs[1].id, 1);
  EXPECT_EQ(drained.jobs[2].id, 3);
  std::remove(path.c_str());
}

TEST(SwfJobSource, ThrowsWhenInversionExceedsWindow) {
  std::string text;
  for (int i = 0; i < 8; ++i) text += swf_line(i + 1, 1000 + 10 * i, 60, 4);
  text += swf_line(99, 0, 60, 4);  // displaced past any 2-record window
  const std::string path = write_temp_swf("source_inversion.swf", text);
  SwfJobSource::Options options;
  options.machine_procs = 64;
  options.chunk_jobs = 2;
  options.reorder_window = 2;
  SwfJobSource source(path, options);
  SourceChunk chunk;
  EXPECT_THROW(
      {
        while (source.next_chunk(chunk)) {
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(SwfJobSource, ThrowsOnMissingFile) {
  SwfJobSource::Options options;
  options.machine_procs = 64;
  EXPECT_THROW(SwfJobSource("/nonexistent/trace.swf", options),
               std::runtime_error);
}

}  // namespace
}  // namespace es::workload
