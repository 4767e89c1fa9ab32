// Pull-based streaming workload ingestion.
//
// A JobSource feeds the engine the trace in bounded chunks instead of a
// materialized std::vector<Job>, so a ten-million-job run holds only the
// jobs currently in flight.  The streamed run is byte-identical to the
// materialized one because every chunk obeys three ordering contracts the
// event kernel's (time, class, seq) comparator relies on:
//
//   1. Jobs arrive sorted by (arr, id) and a chunk boundary never splits a
//      group of equal arrival times: the next chunk's first arrival is
//      strictly later than this chunk's last.  Refills happen when the last
//      scheduled arrival fires, so every event a refill schedules lies
//      strictly in the simulated future and per-class schedule order (the
//      same-instant tiebreak) matches the materialized run's.
//   2. ECCs are delivered in the chunk whose arrival window
//      [first arr, next chunk's first arr) contains their issue time,
//      sorted by (issue, job id) with generation/file order preserved for
//      ties — windows never split an equal-issue group, so the chunkwise
//      concatenation equals Workload::normalize()'s global stable order.
//      A command's target job must be delivered no later than the chunk
//      that carries the command (the generator guarantees it with
//      issue >= arrival; MaterializedSource extends a chunk to its
//      commands' targets), so the target is built before the command fires.
//      Commands for ids the stream never delivers count as unknown-job.
//   3. ecc_counts[i] is the TOTAL number of commands the stream will ever
//      deliver for jobs[i], known at build time, so the engine can retire a
//      finished job's record the moment its last command has dispatched.
//
// CWF files allow commands to reference jobs arbitrarily far back with no
// per-job totals until EOF, so CWF streams through MaterializedSource
// (bounded engine state; the parsed workload itself stays resident).
// Engine::run(workload) is exactly that: a MaterializedSource drained
// through Engine::run_streamed().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "workload/generator.hpp"
#include "workload/job.hpp"
#include "workload/swf.hpp"

namespace es::workload {

/// One bounded slice of the trace.  `jobs` and `ecc_counts` are parallel.
struct SourceChunk {
  std::vector<Job> jobs;
  std::vector<int> ecc_counts;
  std::vector<Ecc> eccs;

  void clear() {
    jobs.clear();
    ecc_counts.clear();
    eccs.clear();
  }
};

/// Pull interface the streaming engine drains.  Implementations own the
/// ordering contracts documented at the top of this header.
class JobSource {
 public:
  virtual ~JobSource();

  /// Machine geometry of the stream (known before the first chunk).
  virtual int machine_procs() const = 0;
  virtual int granularity() const = 0;

  /// Fills `chunk` with the next slice (clearing it first) and returns
  /// true; returns false once the stream is exhausted.  A true return
  /// implies a non-empty `jobs` (or, for a trace without jobs, non-empty
  /// `eccs`).
  virtual bool next_chunk(SourceChunk& chunk) = 0;
};

/// Streams an already-materialized workload: Engine::run()'s source, and
/// the one for CWF traces whose backward ECC references defeat true
/// streaming (the engine-side structures stay bounded even though the
/// workload vector is resident).  Accepts everything Engine::run() ever
/// did: commands for unknown jobs, commands issued before their job's
/// arrival (the chunk is extended to the target), and workloads that were
/// never normalize()d (unsorted arrivals travel as one chunk; commands are
/// delivered stably sorted by issue, their firing order).
class MaterializedSource : public JobSource {
 public:
  static constexpr std::size_t kDefaultChunkJobs = 4096;

  /// The workload must outlive the source; job IDs must be unique.
  explicit MaterializedSource(const Workload& workload,
                              std::size_t chunk_jobs = kDefaultChunkJobs);

  int machine_procs() const override { return workload_->machine_procs; }
  int granularity() const override { return workload_->granularity; }
  bool next_chunk(SourceChunk& chunk) override;

 private:
  static constexpr std::size_t kUnknownJob = static_cast<std::size_t>(-1);

  const Workload* workload_;
  const std::vector<Ecc>* eccs_;  ///< workload_->eccs or sorted_eccs_
  std::vector<Ecc> sorted_eccs_;  ///< only when the workload's are unsorted
  std::size_t chunk_jobs_;
  std::size_t job_cursor_ = 0;
  std::size_t ecc_cursor_ = 0;
  std::vector<int> ecc_totals_;  ///< per job index in workload order
  std::vector<std::size_t> ecc_targets_;  ///< per command: job index
};

/// Streams the synthetic Lublin/CWF generator without materializing the
/// trace: bitwise-identical to generate(config) fed to the engine, chunk by
/// chunk.  Jobs and their commands are produced in one interleaved pass
/// (the generator's split RNG streams make that equal to its two-pass
/// structure); target_load calibration replays generate()'s iterative
/// scale_arrivals() as a factor chain applied per emitted timestamp.
class GeneratorSource : public JobSource {
 public:
  static constexpr std::size_t kDefaultChunkJobs = 4096;

  explicit GeneratorSource(const GeneratorConfig& config,
                           std::size_t chunk_jobs = kDefaultChunkJobs);
  ~GeneratorSource() override;

  int machine_procs() const override { return config_.machine_procs; }
  int granularity() const override { return config_.size.unit; }
  bool next_chunk(SourceChunk& chunk) override;

  /// The sequential scale factors calibration settled on (empty when
  /// target_load <= 0 or the trace needed no scaling).
  const std::vector<double>& scale_factors() const { return factors_; }

 private:
  struct Stream;  // one generation pass over the trace

  /// Applies the calibration factor chain around the trace origin, in the
  /// same sequential order calibrate_load() applied scale_arrivals().
  double scaled(double t) const;
  bool generate_lookahead();

  GeneratorConfig config_;
  std::size_t chunk_jobs_;
  std::vector<double> factors_;
  double origin_ = 0;
  std::unique_ptr<Stream> stream_;

  // One-job lookahead so a chunk cut can honour the tie-group rule and the
  // ECC window end is known when the chunk is emitted.
  bool lookahead_valid_ = false;
  Job lookahead_job_{};
  int lookahead_ecc_count_ = 0;

  std::vector<Ecc> ecc_buffer_;  ///< scaled, generation order
  bool exhausted_ = false;
  std::size_t generated_ = 0;
};

/// Streams an SWF archive trace from disk, line by line.  Honours the same
/// SwfImportOptions/status semantics as load_swf_jobs() and accumulates the
/// same per-file drop summary.  Archive traces are nearly submit-ordered
/// but not strictly; a bounded reorder window re-sorts local inversions —
/// a record displaced further than the window aborts the stream with
/// std::runtime_error (fall back to the materializing loader).
class SwfJobSource : public JobSource {
 public:
  struct Options {
    SwfImportOptions import{};
    int machine_procs = 0;  ///< required (SWF headers are advisory)
    int granularity = 1;
    std::size_t chunk_jobs = 4096;
    std::size_t reorder_window = 4096;
  };

  /// Drop totals, mirroring load_swf_jobs()'s summary warning.
  struct DropSummary {
    std::uint64_t unusable = 0;
    std::uint64_t never_ran = 0;
    std::uint64_t partial_disabled = 0;
    std::uint64_t total() const {
      return unusable + never_ran + partial_disabled;
    }
  };

  /// Throws std::runtime_error when the file cannot be opened.
  SwfJobSource(const std::string& path, const Options& options);
  ~SwfJobSource() override;

  int machine_procs() const override { return options_.machine_procs; }
  int granularity() const override { return options_.granularity; }
  bool next_chunk(SourceChunk& chunk) override;

  const DropSummary& drops() const { return drops_; }
  std::uint64_t parse_errors() const { return parse_errors_; }

 private:
  struct Later {
    bool operator()(const Job& a, const Job& b) const {
      if (a.arr != b.arr) return a.arr > b.arr;
      return a.id > b.id;
    }
  };

  bool fill_window();
  bool pop_lookahead();

  Options options_;
  std::string path_;
  std::unique_ptr<std::ifstream> in_;
  std::priority_queue<Job, std::vector<Job>, Later> window_;
  bool eof_ = false;
  bool lookahead_valid_ = false;
  Job lookahead_{};
  double last_emitted_arr_ = -1;
  DropSummary drops_;
  std::uint64_t parse_errors_ = 0;
  std::size_t line_number_ = 0;
  bool summary_logged_ = false;
};

}  // namespace es::workload
