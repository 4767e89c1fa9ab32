#include "workload/source.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "util/check.hpp"
#include "util/log.hpp"

namespace es::workload {
namespace {

bool ecc_before(const Ecc& a, const Ecc& b) {
  if (a.issue != b.issue) return a.issue < b.issue;
  return a.job_id < b.job_id;
}

}  // namespace

JobSource::~JobSource() = default;

// ---------------------------------------------------------------------------
// MaterializedSource

MaterializedSource::MaterializedSource(const Workload& workload,
                                       std::size_t chunk_jobs)
    : workload_(&workload),
      eccs_(&workload.eccs),
      chunk_jobs_(std::max<std::size_t>(1, chunk_jobs)) {
  const std::vector<Job>& jobs = workload.jobs;
  std::unordered_map<JobId, std::size_t> position;
  position.reserve(jobs.size());
  bool arrival_sorted = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0 && jobs[i].arr < jobs[i - 1].arr) arrival_sorted = false;
    const bool inserted = position.emplace(jobs[i].id, i).second;
    ES_EXPECTS(inserted);  // duplicate job IDs are a malformed workload
  }
  // An unsorted job list has no arrival windows to cut: one chunk carries
  // the whole workload, in its own order.
  if (!arrival_sorted) chunk_jobs_ = std::max<std::size_t>(1, jobs.size());
  // Commands fire in (issue, workload order).  normalize()d workloads are
  // already in it; anything else is delivered from a stably sorted copy.
  const auto issue_before = [](const Ecc& a, const Ecc& b) {
    return a.issue < b.issue;
  };
  if (!std::is_sorted(workload.eccs.begin(), workload.eccs.end(),
                      issue_before)) {
    sorted_eccs_ = workload.eccs;
    std::stable_sort(sorted_eccs_.begin(), sorted_eccs_.end(), issue_before);
    eccs_ = &sorted_eccs_;
  }
  ecc_totals_.assign(jobs.size(), 0);
  ecc_targets_.reserve(eccs_->size());
  for (const Ecc& ecc : *eccs_) {
    const auto it = position.find(ecc.job_id);
    ecc_targets_.push_back(it == position.end() ? kUnknownJob : it->second);
    if (it != position.end()) ++ecc_totals_[it->second];
  }
}

bool MaterializedSource::next_chunk(SourceChunk& chunk) {
  chunk.clear();
  const std::vector<Job>& jobs = workload_->jobs;
  const std::vector<Ecc>& eccs = *eccs_;
  if (job_cursor_ >= jobs.size() && ecc_cursor_ >= eccs.size()) return false;
  std::size_t end = std::min(jobs.size(), job_cursor_ + chunk_jobs_);
  std::size_t scanned = ecc_cursor_;
  while (end < jobs.size()) {
    // Never split an equal-arrival tie group across a chunk boundary.
    while (end < jobs.size() && jobs[end].arr == jobs[end - 1].arr) ++end;
    if (end == jobs.size()) break;
    // A command in this chunk's window may precede its job's arrival:
    // extend the chunk so the target is built no later than the command
    // is scheduled, then re-check the wider window.
    std::size_t needed = end;
    while (scanned < eccs.size() && eccs[scanned].issue < jobs[end].arr) {
      if (ecc_targets_[scanned] != kUnknownJob)
        needed = std::max(needed, ecc_targets_[scanned] + 1);
      ++scanned;
    }
    if (needed == end) break;
    end = needed;
  }
  chunk.jobs.assign(jobs.begin() + static_cast<std::ptrdiff_t>(job_cursor_),
                    jobs.begin() + static_cast<std::ptrdiff_t>(end));
  chunk.ecc_counts.assign(
      ecc_totals_.begin() + static_cast<std::ptrdiff_t>(job_cursor_),
      ecc_totals_.begin() + static_cast<std::ptrdiff_t>(end));
  job_cursor_ = end;
  const bool bounded = job_cursor_ < jobs.size();
  const double window_end = bounded ? jobs[job_cursor_].arr : 0;
  while (ecc_cursor_ < eccs.size() &&
         (!bounded || eccs[ecc_cursor_].issue < window_end)) {
    chunk.eccs.push_back(eccs[ecc_cursor_]);
    ++ecc_cursor_;
  }
  return true;
}

// ---------------------------------------------------------------------------
// GeneratorSource

/// One generation pass.  Declaration order of the split streams must match
/// generate()'s split() call order exactly — that is what makes this
/// bitwise-identical to the materializing generator.
struct GeneratorSource::Stream {
  util::Rng master;
  util::Rng size_rng;
  util::Rng runtime_rng;
  util::Rng arrival_rng;
  util::Rng type_rng;
  util::Rng ecc_rng;
  util::Rng estimate_rng;
  ArrivalProcess arrivals;
  std::size_t index = 0;

  explicit Stream(const GeneratorConfig& config)
      : master(config.seed),
        size_rng(master.split()),
        runtime_rng(master.split()),
        arrival_rng(master.split()),
        type_rng(master.split()),
        ecc_rng(master.split()),
        estimate_rng(master.split()),
        arrivals(config.arrival, arrival_rng) {}

  /// Generates the next job; when `eccs` is non-null its commands are
  /// appended (the ecc stream is independent, so calibration pre-passes
  /// skip the draws entirely).  Mirrors generate()'s per-job draw order;
  /// interleaving the ECC pass per job is equivalent to the generator's
  /// two-pass structure because each attribute consumes its own stream.
  bool next(const GeneratorConfig& config, Job& job, std::vector<Ecc>* eccs) {
    if (index >= config.num_jobs) return false;
    job = Job{};
    job.id = static_cast<JobId>(index + 1);
    job.arr = arrivals.next();
    job.num = std::min(config.size.sample(size_rng, config.p_small),
                       config.machine_procs);
    const double actual = config.runtime.sample(runtime_rng, job.num);
    job.actual = actual;
    if (config.estimate_uniform_max > 1.0) {
      job.dur =
          actual * estimate_rng.uniform(1.0, config.estimate_uniform_max);
    } else {
      job.dur = actual * config.estimate_factor;
    }
    if (type_rng.bernoulli(config.p_dedicated)) {
      job.type = JobType::kDedicated;
      job.start =
          job.arr + type_rng.exponential(config.dedicated_start_mean);
    }
    if (eccs != nullptr) {
      for (int k = 0; k < config.max_eccs_per_job; ++k) {
        const double draw = ecc_rng.uniform01();
        EccType type;
        if (draw < config.p_extend) {
          type = EccType::kExtendTime;
        } else if (draw < config.p_extend + config.p_reduce) {
          type = EccType::kReduceTime;
        } else {
          continue;
        }
        Ecc ecc;
        ecc.job_id = job.id;
        ecc.type = type;
        double amount =
            ecc_rng.exponential(config.ecc_amount_frac_mean * job.dur);
        if (type == EccType::kReduceTime) {
          amount = std::min(amount, 0.9 * job.dur);
        }
        ecc.amount = std::max(1.0, amount);
        ecc.issue = job.arr +
                    ecc_rng.uniform(0.0, config.issue_window_frac * job.dur);
        eccs->push_back(ecc);
      }
      const double proc_draw = ecc_rng.uniform01();
      if (proc_draw < config.p_extend_procs + config.p_reduce_procs) {
        Ecc ecc;
        ecc.job_id = job.id;
        ecc.type = proc_draw < config.p_extend_procs ? EccType::kExtendProcs
                                                     : EccType::kReduceProcs;
        ecc.amount = std::max(
            1.0,
            std::round(ecc_rng.exponential(config.ecc_proc_amount_mean)));
        ecc.issue = job.arr +
                    ecc_rng.uniform(0.0, config.issue_window_frac * job.dur);
        eccs->push_back(ecc);
      }
    }
    ++index;
    return true;
  }
};

GeneratorSource::GeneratorSource(const GeneratorConfig& config,
                                 std::size_t chunk_jobs)
    : config_(config), chunk_jobs_(std::max<std::size_t>(1, chunk_jobs)) {
  ES_EXPECTS(config.num_jobs > 0);
  ES_EXPECTS(config.machine_procs > 0);
  ES_EXPECTS(config.p_small >= 0 && config.p_small <= 1);
  ES_EXPECTS(config.p_dedicated >= 0 && config.p_dedicated <= 1);
  ES_EXPECTS(config.p_extend >= 0 && config.p_extend <= 1);
  ES_EXPECTS(config.p_reduce >= 0 && config.p_reduce <= 1);
  ES_EXPECTS(config.p_extend + config.p_reduce <= 1);
  ES_EXPECTS(config.p_extend_procs + config.p_reduce_procs <= 1);
  ES_EXPECTS(config.estimate_factor >= 1.0);

  // calibrate_load() replayed as generation passes: pass 0 measures the
  // scale-invariant proc-seconds and the unscaled load; each iteration
  // appends one factor and re-measures the span under the factor chain.
  // Jobs-only passes — the ECC stream is untouched, so skipping it changes
  // nothing downstream.
  if (config_.target_load > 0) {
    double proc_seconds = 0;
    const auto measure = [&](bool accumulate_work) {
      Stream pass(config_);
      Job job;
      double last = 0;
      bool first = true;
      while (pass.next(config_, job, nullptr)) {
        if (accumulate_work)
          proc_seconds +=
              static_cast<double>(job.num) * job.actual_runtime();
        if (first) {
          // The first arrival has offset 0, so it is a scaling fixed point:
          // the origin is invariant across calibration iterations.
          origin_ = job.arr;
          last = origin_;
          first = false;
        }
        const double arr = scaled(job.arr);
        double begin = arr;
        if (job.dedicated() && job.start >= 0)
          begin = std::max(arr, scaled(job.start));
        last = std::max(last, begin + job.actual_runtime());
      }
      const double span = last - origin_;
      if (span <= 0) return 0.0;
      return proc_seconds / (span * config_.machine_procs);
    };
    double load = measure(true);
    if (load > 0) {
      for (int i = 0; i < 25; ++i) {
        const double error =
            std::abs(load - config_.target_load) / config_.target_load;
        if (error < 0.01) break;
        factors_.push_back(load / config_.target_load);
        load = measure(false);
      }
      ES_LOG_DEBUG("calibrated load %.4f (target %.4f, %zu factors)", load,
                   config_.target_load, factors_.size());
    }
  }
  stream_ = std::make_unique<Stream>(config_);
}

GeneratorSource::~GeneratorSource() = default;

double GeneratorSource::scaled(double t) const {
  // Sequential replay of scale_arrivals(f1), scale_arrivals(f2), ... —
  // folding the factors into a product would change the floating-point
  // operation order and break bitwise parity with the materialized path.
  for (const double factor : factors_) t = origin_ + (t - origin_) * factor;
  return t;
}

bool GeneratorSource::generate_lookahead() {
  if (exhausted_) return false;
  Job job;
  const std::size_t before = ecc_buffer_.size();
  if (!stream_->next(config_, job, &ecc_buffer_)) {
    exhausted_ = true;
    return false;
  }
  job.arr = scaled(job.arr);
  if (job.dedicated() && job.start >= 0) job.start = scaled(job.start);
  for (std::size_t i = before; i < ecc_buffer_.size(); ++i)
    ecc_buffer_[i].issue = scaled(ecc_buffer_[i].issue);
  lookahead_job_ = job;
  lookahead_ecc_count_ = static_cast<int>(ecc_buffer_.size() - before);
  lookahead_valid_ = true;
  ++generated_;
  return true;
}

bool GeneratorSource::next_chunk(SourceChunk& chunk) {
  chunk.clear();
  while (true) {
    if (!lookahead_valid_ && !generate_lookahead()) break;
    if (!chunk.jobs.empty() && chunk.jobs.size() >= chunk_jobs_ &&
        lookahead_job_.arr > chunk.jobs.back().arr)
      break;  // the lookahead starts the next chunk strictly later
    chunk.jobs.push_back(lookahead_job_);
    chunk.ecc_counts.push_back(lookahead_ecc_count_);
    lookahead_valid_ = false;
  }
  if (chunk.jobs.empty()) return false;
  // Emit buffered commands whose issue falls inside this chunk's arrival
  // window.  The lookahead job's own commands have issue >= its arrival ==
  // the window end, so they are never emitted early.  stable_partition
  // keeps generation order within the window; the stable (issue, job id)
  // sort then reproduces normalize()'s global order segment by segment.
  const bool bounded = lookahead_valid_;
  const double window_end = lookahead_job_.arr;
  const auto mid = std::stable_partition(
      ecc_buffer_.begin(), ecc_buffer_.end(),
      [&](const Ecc& e) { return !bounded || e.issue < window_end; });
  std::stable_sort(ecc_buffer_.begin(), mid, ecc_before);
  chunk.eccs.assign(ecc_buffer_.begin(), mid);
  ecc_buffer_.erase(ecc_buffer_.begin(), mid);
  return true;
}

// ---------------------------------------------------------------------------
// SwfJobSource

SwfJobSource::SwfJobSource(const std::string& path, const Options& options)
    : options_(options),
      path_(path),
      in_(std::make_unique<std::ifstream>(path)) {
  ES_EXPECTS(options.machine_procs > 0);
  ES_EXPECTS(options.granularity > 0);
  ES_EXPECTS(options.chunk_jobs > 0);
  if (!*in_) throw std::runtime_error("cannot open SWF trace: " + path);
}

SwfJobSource::~SwfJobSource() = default;

bool SwfJobSource::fill_window() {
  std::string line;
  while (!eof_ && window_.size() <= options_.reorder_window) {
    if (!std::getline(*in_, line)) {
      eof_ = true;
      break;
    }
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == ';') continue;
    SwfRecord record;
    std::string message;
    if (!parse_swf_record(line, record, message)) {
      ES_LOG_WARN("%s:%zu: %s", path_.c_str(), line_number_,
                  message.c_str());
      ++parse_errors_;
      continue;
    }
    Job job;
    SwfDropReason reason = SwfDropReason::kNone;
    if (!to_job(record, job, options_.import, &reason)) {
      switch (reason) {
        case SwfDropReason::kUnusable: ++drops_.unusable; break;
        case SwfDropReason::kNeverRan: ++drops_.never_ran; break;
        case SwfDropReason::kPartialDisabled:
          ++drops_.partial_disabled;
          break;
        case SwfDropReason::kNone: break;
      }
      continue;
    }
    window_.push(job);
  }
  if (eof_ && window_.empty() && !summary_logged_) {
    summary_logged_ = true;
    if (drops_.total() > 0) {
      // Same one-summary-per-file shape as load_swf_jobs().
      ES_LOG_WARN(
          "%s: dropped %llu records (%llu unusable, %llu failed/cancelled "
          "before running, %llu partial runs excluded)",
          path_.c_str(), static_cast<unsigned long long>(drops_.total()),
          static_cast<unsigned long long>(drops_.unusable),
          static_cast<unsigned long long>(drops_.never_ran),
          static_cast<unsigned long long>(drops_.partial_disabled));
    }
  }
  return !window_.empty();
}

bool SwfJobSource::pop_lookahead() {
  if (lookahead_valid_) return true;
  if (!fill_window()) return false;
  lookahead_ = window_.top();
  window_.pop();
  if (lookahead_.arr < last_emitted_arr_) {
    throw std::runtime_error(
        path_ + ": submit order inversion exceeds the reorder window (job " +
        std::to_string(lookahead_.id) +
        "); re-run with a larger window or the materializing loader");
  }
  lookahead_valid_ = true;
  return true;
}

bool SwfJobSource::next_chunk(SourceChunk& chunk) {
  chunk.clear();
  while (true) {
    if (!lookahead_valid_ && !pop_lookahead()) break;
    if (!chunk.jobs.empty() && chunk.jobs.size() >= options_.chunk_jobs &&
        lookahead_.arr > chunk.jobs.back().arr)
      break;
    chunk.jobs.push_back(lookahead_);
    chunk.ecc_counts.push_back(0);
    last_emitted_arr_ = lookahead_.arr;
    lookahead_valid_ = false;
  }
  return !chunk.jobs.empty();
}

}  // namespace es::workload
