#include "sched/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include "sched/engine_params.hpp"
#include "snap/ring.hpp"
#include "snap/snapshot.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rss.hpp"

namespace es::sched {

Engine::Engine(const EngineConfig& config, Scheduler& policy)
    : config_(config),
      policy_(&policy),
      machine_(config.machine_procs, config.granularity),
      utilization_(config.machine_procs),
      ecc_processor_(config.machine_procs, config.granularity),
      failure_model_(config.failure, config.machine_procs,
                     config.granularity),
      checkpoint_attach_(config.checkpoint),
      trace_attach_(config.record_trace),
      progress_attach_(config.watchdog, &abort_),
      cycle_stats_attach_(policy),
      fairness_attach_(config.fairshare, config.machine_procs) {
  // The engine reads the busy integral only up to the last record it made
  // (see busy_at_last_finish_), so the tracker retains no step list.
  utilization_.set_bounded(true);
  ecc_processor_.set_running_resize(config.allow_running_resize);
  // Register the enabled attachments in the canonical chain order (see
  // attach/observer.hpp): CheckpointObserver must precede
  // FailureStatsObserver (preempt `saved` feeds `lost`), which must
  // precede TraceObserver (the preempt record carries `lost`).  With the
  // default config nothing registers and every dispatch site loops over
  // an empty chain.  Each built-in registers with its kHookMask so hooks
  // it does not override never virtual-dispatch to it.
  if (config.checkpoint.enabled)
    attachments_.add(&checkpoint_attach_, CheckpointObserver::kHookMask);
  // The failure-stats ledger also accounts policy-initiated preemptions
  // (FairShare starvation relief), so it attaches whenever preemption can
  // occur — with or without fault injection.
  if (config.failure.enabled || policy.initiates_preemption())
    attachments_.add(&failure_attach_, FailureStatsObserver::kHookMask);
  if (config.process_eccs)
    attachments_.add(&ecc_audit_attach_, EccAuditObserver::kHookMask);
  if (config.record_trace)
    attachments_.add(&trace_attach_, TraceObserver::kHookMask);
  if (config.watchdog.no_progress_cycles > 0)
    attachments_.add(&progress_attach_, WatchdogProgressObserver::kHookMask);
  if (config.collect_cycle_stats)
    attachments_.add(&cycle_stats_attach_, CycleStatsObserver::kHookMask);
  if (config.fairshare.collect_stats)
    attachments_.add(&fairness_attach_, FairnessObserver::kHookMask);
  // A process-unique epoch tags this engine's SchedulerContexts so policy
  // caches keyed on (epoch, active_version) can never confuse two runs.
  // Only uniqueness matters; the value never influences scheduling, so the
  // nondeterministic claim order across threads is harmless.
  static std::atomic<std::uint64_t> next_epoch{1};
  run_epoch_ = next_epoch.fetch_add(1, std::memory_order_relaxed);

  // One policy view for the whole run: everything but `now` and
  // `active_version` is fixed at construction, so run_cycle() refreshes
  // only those two.  The active array is maintained sorted by (planned
  // end, id) across all mutations — start, finish, preemption, ECC resize —
  // so policies get a live view instead of a per-cycle copy and re-sort.
  // start_job inserts new runners in order, which keeps the freeze math
  // within a cycle coherent with the same (end, id) key.
  ctx_.machine = &machine_;
  ctx_.batch = &batch_queue_;
  ctx_.dedicated = &dedicated_queue_;
  ctx_.active = &active_;
  ctx_.run_epoch = run_epoch_;
  ctx_.start = [this](JobRun* job) { start_job(job); };
  ctx_.move_dedicated_head_to_batch_head = [this] {
    move_dedicated_head_to_batch_head();
  };
  ctx_.preempt = [this](JobRun* job) { preempt_running(job); };
}

// Out of line so the unique_ptr<snap::SnapshotRing> member can destroy its
// (header-incomplete) pointee.
Engine::~Engine() = default;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Active-array order: ascending (planned end, job id) — the estimated
/// residual order the paper's freeze computations walk.
bool active_before(const JobRun* a, const JobRun* b) {
  const double ea = a->start_time + a->estimated_duration();
  const double eb = b->start_time + b->estimated_duration();
  if (ea != eb) return ea < eb;
  return a->id < b->id;
}

/// FNV-1a accumulator for the run fingerprint a restore validates against.
struct Fingerprint {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { i64(v); }
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    u64(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// Seed of the rolling run fingerprint a restore validates against:
/// everything that must agree between the snapshotting run and the resuming
/// run besides the trace itself — machine shape, the behaviour-steering
/// config knobs and the policy.  Watchdog budgets and the snapshot policy
/// itself are deliberately excluded — the resumed process may run with
/// different guardrails.
std::uint64_t config_fingerprint(const EngineConfig& config,
                                 const Scheduler& policy) {
  Fingerprint fp;
  // Registry-driven config portion: every fingerprint-participating
  // parameter (see sched/engine_params.cpp — watchdog budgets and snapshot
  // cadence are excluded by their no_fingerprint() marks) renders into a
  // stable name=value blob, so a knob added to the registry can never be
  // silently missing from the restore validation.  Registration needs
  // mutable storage, hence the local copy.
  EngineConfig bound = config;
  util::ParamRegistry registry;
  register_engine_params(registry, bound);
  std::string blob;
  registry.fingerprint_into(blob);
  fp.str(blob);
  fp.u64(config.failure.script.size());
  for (const fault::Outage& outage : config.failure.script) {
    fp.f64(outage.down);
    fp.f64(outage.up);
    fp.i32(outage.procs);
  }
  fp.str(policy.name());
  return fp.hash;
}

/// Rolls one delivered chunk — its jobs, then its commands — into the run
/// fingerprint.
std::uint64_t fold_chunk(std::uint64_t hash,
                         const workload::SourceChunk& chunk) {
  Fingerprint fp{hash};
  fp.u64(chunk.jobs.size());
  for (const workload::Job& job : chunk.jobs) {
    fp.i64(job.id);
    fp.f64(job.arr);
    fp.i32(job.num);
    fp.f64(job.dur);
    fp.f64(job.actual);
    fp.i32(static_cast<std::int32_t>(job.type));
    fp.f64(job.start);
    fp.i32(job.user);
    fp.i32(job.pool);
  }
  fp.u64(chunk.eccs.size());
  for (const workload::Ecc& ecc : chunk.eccs) {
    fp.f64(ecc.issue);
    fp.i64(ecc.job_id);
    fp.i32(static_cast<std::int32_t>(ecc.type));
    fp.f64(ecc.amount);
  }
  return fp.hash;
}

[[noreturn]] void snapshot_mismatch() {
  throw snap::SnapshotError(
      snap::SnapshotErrorKind::kMismatch,
      "snapshot belongs to a different run (trace/config/policy "
      "fingerprint disagrees)");
}

[[noreturn]] void snapshot_corrupt(const std::string& what) {
  throw snap::SnapshotError(snap::SnapshotErrorKind::kCorrupt,
                            "corrupt snapshot: " + what);
}

}  // namespace

void Engine::insert_active(JobRun* job) {
  ES_ASSERT(job->active_index < 0);
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), job, active_before);
  const auto pos = it - active_.begin();
  active_.insert(it, job);
  for (auto i = pos; i < static_cast<std::ptrdiff_t>(active_.size()); ++i)
    active_[static_cast<std::size_t>(i)]->active_index =
        static_cast<std::int32_t>(i);
  ++active_version_;
}

void Engine::remove_active(JobRun* job) {
  const std::ptrdiff_t pos = job->active_index;
  ES_ASSERT(pos >= 0 && pos < static_cast<std::ptrdiff_t>(active_.size()) &&
            active_[static_cast<std::size_t>(pos)] == job);
  active_.erase(active_.begin() + pos);
  job->active_index = -1;
  for (auto i = pos; i < static_cast<std::ptrdiff_t>(active_.size()); ++i)
    active_[static_cast<std::size_t>(i)]->active_index =
        static_cast<std::int32_t>(i);
  ++active_version_;
}

void Engine::reposition_active(JobRun* job) {
  // The job's sort key (planned end, or its alloc visible to profile
  // consumers) changed: re-seat it.  Erase+insert keeps every neighbour's
  // back-reference exact; the version bumps along the way.
  remove_active(job);
  insert_active(job);
}

CycleInfo Engine::cycle_info() const {
  CycleInfo info;
  info.now = sim_.now();
  info.cycle = cycles_;
  info.batch_depth = batch_queue_.size();
  info.dedicated_depth = dedicated_queue_.size();
  info.active_jobs = active_.size();
  return info;
}

ParanoidSnapshot Engine::paranoid_snapshot() const {
  ParanoidSnapshot snapshot;
  snapshot.now = sim_.now();
  snapshot.cycle = cycles_;
  // Re-derived from the live records plus the sums folded at retire —
  // never from counters bumped beside the ledgers being checked.
  snapshot.interruptions = sums_.interruptions;
  for (const auto& [id, job] : by_id_) {
    if (job->status == JobStatus::kWaiting ||
        job->status == JobStatus::kRunning)
      snapshot.interruptions +=
          static_cast<std::uint64_t>(arena_.cold(*job).interruptions);
  }
  snapshot.abandoned = folded_.abandoned;
  snapshot.finishes = folded_.completed + folded_.killed;
  snapshot.active_jobs = active_.size();
  snapshot.cycles = cycles_;
  snapshot.dp_delta = policy_->dp_counters() - dp_baseline_;
  snapshot.ecc = &ecc_processor_.stats();
  return snapshot;
}

void Engine::run_cycle() {
  ES_ASSERT(!in_cycle_);
  in_cycle_ = true;
  ++cycles_;
  if (attachments_.has(Hook::kCycleBegin))
    attachments_.on_cycle_begin(cycle_info());
  ctx_.now = sim_.now();
  ctx_.active_version = active_version_;
  policy_->cycle(ctx_);
  in_cycle_ = false;
  if (attachments_.has(Hook::kCycleEnd))
    attachments_.on_cycle_end(cycle_info());
  if (config_.paranoid) {
    check_invariants();
    attachments_.on_paranoid_check(paranoid_snapshot());
  }
}

void Engine::check_invariants() const {
  const double now = sim_.now();
  const unsigned long long cycle = cycles_;

  // Ledger: free + sum of active allocations == in-service capacity, and
  // the machine agrees job-by-job.  The array must also be exactly what a
  // from-scratch sort would produce — ascending (planned end, id) — with
  // every back-reference pointing at the job's own slot.
  int active_sum = 0;
  const JobRun* prev_active = nullptr;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const JobRun* job = active_[i];
    const long long id = job->id;
    ES_ASSERT_MSG(job->status == JobStatus::kRunning,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    ES_ASSERT_MSG(job->alloc == machine_.allocated(job->id),
                  "t=%.3f cycle=%llu job=%lld alloc=%d ledger=%d", now, cycle,
                  id, job->alloc, machine_.allocated(job->id));
    ES_ASSERT_MSG(job->start_time >= job->arr,
                  "t=%.3f cycle=%llu job=%lld start=%.3f arr=%.3f", now,
                  cycle, id, job->start_time, job->arr);
    ES_ASSERT_MSG(job->active_index == static_cast<std::int32_t>(i),
                  "t=%.3f cycle=%llu job=%lld index=%d slot=%zu", now, cycle,
                  id, job->active_index, i);
    ES_ASSERT_MSG(!job->in_batch_queue, "t=%.3f cycle=%llu job=%lld", now,
                  cycle, id);
    if (prev_active != nullptr) {
      const double prev_end =
          prev_active->start_time + prev_active->estimated_duration();
      const double end = job->start_time + job->estimated_duration();
      ES_ASSERT_MSG(prev_end < end ||
                        (prev_end == end && prev_active->id < id),
                    "t=%.3f cycle=%llu job=%lld end=%.3f prev=%lld "
                    "prev_end=%.3f",
                    now, cycle, id, end,
                    static_cast<long long>(prev_active->id), prev_end);
    }
    prev_active = job;
    active_sum += job->alloc;
  }
  ES_ASSERT_MSG(machine_.free() + active_sum == machine_.available(),
                "t=%.3f cycle=%llu free=%d active=%d available=%d offline=%d",
                now, cycle, machine_.free(), active_sum, machine_.available(),
                machine_.offline());
  ES_ASSERT_MSG(machine_.offline() >= 0 &&
                    machine_.offline() <= machine_.total(),
                "t=%.3f cycle=%llu offline=%d", now, cycle,
                machine_.offline());
  ES_ASSERT_MSG(active_.size() == machine_.active_jobs(),
                "t=%.3f cycle=%llu active=%zu ledger=%zu", now, cycle,
                active_.size(), machine_.active_jobs());

  // Batch queue: waiting status; FIFO by arrival once past any
  // forced-priority (moved dedicated) prefix.  Jobs requeued after a
  // node-failure preemption sit wherever the requeue policy put them, so
  // they are exempt from the arrival ordering.
  bool in_prefix = true;
  double last_arr = -1;
  std::size_t batch_count = 0;
  for (const JobRun* job : batch_queue_) {
    const long long id = job->id;
    ++batch_count;
    ES_ASSERT_MSG(job->in_batch_queue && job->active_index < 0,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    ES_ASSERT_MSG(job->status == JobStatus::kWaiting,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    if (in_prefix && job->forced_priority) continue;
    in_prefix = false;
    if (arena_.cold(*job).interruptions > 0) continue;
    ES_ASSERT_MSG(job->arr >= last_arr,
                  "t=%.3f cycle=%llu job=%lld arr=%.3f last=%.3f", now, cycle,
                  id, job->arr, last_arr);
    last_arr = job->arr;
  }
  ES_ASSERT_MSG(batch_count == batch_queue_.size(),
                "t=%.3f cycle=%llu walked=%zu size=%zu", now, cycle,
                batch_count, batch_queue_.size());

  // Dedicated list: waiting, sorted by requested start.
  double last_start = -1;
  for (const JobRun* job : dedicated_queue_) {
    const long long id = job->id;
    ES_ASSERT_MSG(job->status == JobStatus::kWaiting,
                  "t=%.3f cycle=%llu job=%lld", now, cycle, id);
    ES_ASSERT_MSG(job->dedicated(), "t=%.3f cycle=%llu job=%lld", now, cycle,
                  id);
    ES_ASSERT_MSG(job->req_start >= last_start,
                  "t=%.3f cycle=%llu job=%lld req_start=%.3f last=%.3f", now,
                  cycle, id, job->req_start, last_start);
    last_start = job->req_start;
  }
}

void Engine::move_dedicated_head_to_batch_head() {
  ES_EXPECTS(!dedicated_queue_.empty());
  JobRun* job = dedicated_queue_.front();
  dedicated_queue_.erase(dedicated_queue_.begin());
  // Algorithm 3: the job keeps its arrival time and enters the batch queue
  // head with a saturated skip count so it is started as soon as it fits.
  job->forced_priority = true;
  job->scount = std::numeric_limits<int>::max() / 2;
  batch_queue_.push_front(job);
  attachments_.on_dedicated_move(sim_.now(), *job);
}

void Engine::on_arrival(JobRun* job) {
  // Refill when the last scheduled arrival fires: every event the next
  // chunk schedules is then strictly in the future, so the heap order does
  // not depend on the chunk size (see source.hpp for the chunk-boundary
  // contracts that make this safe at equal timestamps).
  ES_ASSERT(arrivals_pending_ > 0);
  if (--arrivals_pending_ == 0) load_next_chunk();
  ES_ASSERT(job->status == JobStatus::kWaiting);
  if (job->dedicated()) {
    // Keep W^d sorted by (requested start, arrival).
    auto it = std::lower_bound(
        dedicated_queue_.begin(), dedicated_queue_.end(), job,
        [](const JobRun* a, const JobRun* b) {
          if (a->req_start != b->req_start) return a->req_start < b->req_start;
          return a->arr < b->arr;
        });
    dedicated_queue_.insert(it, job);
  } else {
    batch_queue_.push_back(job);
  }
  attachments_.on_arrival(sim_.now(), *job);
  run_cycle();
}

void Engine::on_dedicated_due() {
  // The job may already have been moved, started or even retired; the
  // wake-up is only a trigger for a scheduling cycle at its requested start
  // instant, so the closure carries no job.
  run_cycle();
}

void Engine::on_ecc() {
  // ECC events fire in the order they were scheduled (see pending_eccs_).
  const workload::Ecc ecc = pending_eccs_.front();
  pending_eccs_.pop_front();
  const auto it = by_id_.find(ecc.job_id);
  if (it == by_id_.end()) {
    attachments_.on_ecc_unknown_job(sim_.now(), ecc);
    return;
  }
  JobRun* job = it->second;
  JobRunCold& cold = arena_.cold(*job);
  ES_ASSERT(cold.ecc_pending > 0);
  --cold.ecc_pending;
  const EccOutcome outcome =
      ecc_processor_.apply(ecc, *job, sim_.now(), machine_.free());
  attachments_.on_ecc_applied(sim_.now(), *job, ecc, outcome);
  switch (outcome) {
    case EccOutcome::kResizedRunning:
      // The processor already scaled the remaining time work-conservingly
      // and set the new allocation; mirror it in the machine ledger, then
      // move the completion event like any running-job change.
      machine_.resize(job->id, job->num);
      ES_ASSERT(machine_.allocated(job->id) == job->alloc);
      utilization_.record(sim_.now(), machine_.used());
      [[fallthrough]];
    case EccOutcome::kAppliedRunning: {
      // Kill-by (and possibly true runtime or the allocation) moved:
      // reschedule completion and re-seat the job under its new planned
      // end.
      const bool cancelled = sim_.cancel(job->finish_event);
      ES_ASSERT(cancelled);
      attachments_.on_checkpoint_replan(*job);
      reposition_active(job);
      const sim::Time finish =
          std::max(sim_.now(), job->start_time + job->run_duration());
      job->finish_event =
          sim_.at(finish, sim::EventClass::kJobFinish,
                  [this, job](sim::Time) { on_finish(job); },
                  static_cast<std::uint64_t>(job->id));
      break;
    }
    case EccOutcome::kCompletedJob: {
      const bool cancelled = sim_.cancel(job->finish_event);
      ES_ASSERT(cancelled);
      attachments_.on_checkpoint_replan(*job);  // the run was cut short
      finish_job(job);
      break;
    }
    case EccOutcome::kAppliedQueued:
    case EccOutcome::kRejectedFinished:
    case EccOutcome::kRejectedShape:
    case EccOutcome::kRejectedBounds:
    case EccOutcome::kSkippedConflict:
      break;
  }
  // A finished job whose last pending command just dispatched can retire
  // now (kCompletedJob released inside finish_job; `job` may dangle here
  // only on paths that did not touch it).
  if (outcome != EccOutcome::kCompletedJob) maybe_release(job);
  run_cycle();
}

void Engine::schedule_next_outage(sim::Time from) {
  fault::Outage outage;
  if (!failure_model_.next(from, outage)) return;
  // Mirror the closure's payload for the snapshot path: the outage chain
  // keeps at most one NodeDown pending, so a single slot suffices.
  has_pending_outage_ = true;
  pending_outage_ = outage;
  sim_.at(std::max(outage.down, sim_.now()), sim::EventClass::kNodeDown,
          [this, outage](sim::Time) { on_node_down(outage); });
}

void Engine::preempt_victim() {
  // Deterministic victim rule: the most recently started running job loses
  // the least sunk work; ties (same start instant) break toward the higher
  // job id so replays are bit-identical.
  ES_EXPECTS(!active_.empty());
  auto it = std::max_element(active_.begin(), active_.end(),
                             [](const JobRun* a, const JobRun* b) {
                               if (a->start_time != b->start_time)
                                 return a->start_time < b->start_time;
                               return a->id < b->id;
                             });
  preempt_job(*it, config_.requeue);
}

void Engine::preempt_running(JobRun* job) {
  // Policy-initiated (fair-share starvation relief): the policy picked the
  // victim; the displaced job always re-enters at the batch *tail* — it
  // lost its turn to a starving pool, so jumping the queue head would undo
  // the relief.  The shared path still applies the retry cap, so a
  // thrash-prone job is eventually abandoned rather than looping forever.
  ES_EXPECTS(in_cycle_);
  ES_EXPECTS(job != nullptr);
  ES_EXPECTS(job->status == JobStatus::kRunning);
  preempt_job(job, fault::RequeuePolicy::kRequeueTail);
}

void Engine::preempt_job(JobRun* job, fault::RequeuePolicy requeue_policy) {
  remove_active(job);
  const bool cancelled = sim_.cancel(job->finish_event);
  ES_ASSERT(cancelled);
  machine_.release(job->id);
  JobRunCold& cold = arena_.cold(*job);
  ++cold.interruptions;
  // Retry budget: past the cap a job is abandoned even under a requeue
  // policy (see FailureModelConfig::max_interruptions).
  fault::RequeuePolicy policy = requeue_policy;
  if (config_.failure.max_interruptions > 0 &&
      cold.interruptions >= config_.failure.max_interruptions)
    policy = fault::RequeuePolicy::kAbandon;
  // The attachments do the preemption ledger work: CheckpointObserver
  // banks the saved work into the job, FailureStatsObserver turns the
  // unsaved remainder into lost/wasted work, TraceObserver records the
  // final figure (chain order guarantees that sequence).
  PreemptInfo info;
  info.job = job;
  info.elapsed = sim_.now() - job->start_time;
  info.policy = policy;
  attachments_.on_preempt(sim_.now(), info);
  utilization_.record(sim_.now(), machine_.used());

  const int alloc = job->alloc;
  job->finish_event = {};
  switch (policy) {
    case fault::RequeuePolicy::kRequeueHead:
      // Front of the batch queue with saturated priority, like a moved
      // dedicated job: it restarts as soon as it fits again.
      job->status = JobStatus::kWaiting;
      job->alloc = 0;
      job->start_time = -1;
      job->forced_priority = true;
      job->scount = std::numeric_limits<int>::max() / 2;
      batch_queue_.push_front(job);
      attachments_.on_requeue(sim_.now(), *job, alloc);
      break;
    case fault::RequeuePolicy::kRequeueTail:
      job->status = JobStatus::kWaiting;
      job->alloc = 0;
      job->start_time = -1;
      batch_queue_.push_back(job);
      attachments_.on_requeue(sim_.now(), *job, alloc);
      break;
    case fault::RequeuePolicy::kAbandon:
      // Keeps its alloc/start_time so retire() folds the partial run.
      job->status = JobStatus::kAbandoned;
      cold.end_time = sim_.now();
      last_finish_ = std::max(last_finish_, cold.end_time);
      busy_at_last_finish_ = utilization_.integral();
      retire(job);
      attachments_.on_abandon(sim_.now(), *job, alloc);
      maybe_release(job);
      break;
  }
}

void Engine::on_node_down(const fault::Outage& outage) {
  has_pending_outage_ = false;  // this event is no longer pending
  if (all_jobs_finished()) return;  // run is over; let the queue drain
  // Never take more than what is still in service (a scripted storm may
  // overlap outages).
  const int procs = std::min(outage.procs, machine_.available());
  if (procs > 0) {
    // Cover the lost capacity: first from the free pool, then by preempting
    // running jobs until the failed processors are idle.
    while (machine_.free() < procs) preempt_victim();
    machine_.take_offline(procs);
    utilization_.record_capacity(sim_.now(), machine_.available());
    attachments_.on_node_down(sim_.now(), procs);
    sim_.at(std::max(outage.up, sim_.now()), sim::EventClass::kNodeUp,
            [this, procs](sim::Time) { on_node_up(procs); },
            static_cast<std::uint64_t>(procs));
  } else {
    // Nothing left to fail right now; keep the outage chain alive.
    schedule_next_outage(outage.up);
  }
  run_cycle();
}

void Engine::on_node_up(int procs) {
  machine_.bring_online(procs);
  utilization_.record_capacity(sim_.now(), machine_.available());
  attachments_.on_node_up(sim_.now(), procs);
  if (!all_jobs_finished()) schedule_next_outage(sim_.now());
  run_cycle();
}

void Engine::start_job(JobRun* job) {
  ES_EXPECTS(job->status == JobStatus::kWaiting);
  // Unlink from the batch queue (policies start batch-queue members only;
  // dedicated jobs are moved to the batch queue first) — O(1) through the
  // intrusive links instead of a linear scan.
  ES_EXPECTS(job->in_batch_queue);
  const bool backfilled = batch_queue_.front() != job;
  batch_queue_.erase(job);

  job->alloc = machine_.allocate(job->id, job->num);
  job->status = JobStatus::kRunning;
  job->start_time = sim_.now();
  // Plan checkpoint overhead before seating the job: it is part of the
  // (planned end, id) sort key insert_active files the job under.
  attachments_.on_checkpoint_replan(*job);
  insert_active(job);
  utilization_.record(sim_.now(), machine_.used());
  attachments_.on_start(sim_.now(), *job, backfilled);

  const sim::Time finish = sim_.now() + job->run_duration();
  job->finish_event = sim_.at(finish, sim::EventClass::kJobFinish,
                              [this, job](sim::Time) { on_finish(job); },
                              static_cast<std::uint64_t>(job->id));
}

void Engine::finish_job(JobRun* job) {
  ES_EXPECTS(job->status == JobStatus::kRunning);
  machine_.release(job->id);
  remove_active(job);

  job->status = job->actual_time > job->req_time ? JobStatus::kKilled
                                                 : JobStatus::kCompleted;
  JobRunCold& cold = arena_.cold(*job);
  cold.end_time = sim_.now();
  last_finish_ = std::max(last_finish_, cold.end_time);
  retire(job);
  attachments_.on_finish(sim_.now(), *job);
  utilization_.record(sim_.now(), machine_.used());
  busy_at_last_finish_ = utilization_.integral();
  // Release only after the attachments read the record; `job` dangles past
  // this point once no scheduled command still targets it.
  maybe_release(job);
}

void Engine::on_finish(JobRun* job) {
  finish_job(job);
  run_cycle();
}

JobRun* Engine::build_job(const workload::Job& spec) {
  ES_EXPECTS(spec.num >= 1);
  ES_EXPECTS(machine_.allocation_for(spec.num) <= machine_.total());
  ES_EXPECTS(spec.dur > 0);
  if (spec.dedicated()) {
    ES_EXPECTS(policy_->supports_dedicated());
    ES_EXPECTS(spec.start >= 0);
  }
  JobRun* run = arena_.claim();
  run->id = spec.id;
  run->arr = spec.arr;
  run->req_time = spec.dur;
  run->actual_time = spec.actual_runtime();
  run->num = spec.num;
  run->req_start = spec.start;
  // Pool tags are 8-bit in the hot record; out-of-range tags saturate (the
  // registry caps configured pools at 255, so this only trims hand-built
  // workloads).
  run->pool = static_cast<std::uint8_t>(std::clamp(spec.pool, 0, 255));
  return run;
}

SimulationResult Engine::run(const workload::Workload& workload) {
  workload::MaterializedSource source(workload);
  return run_streamed(source);
}

void Engine::begin(workload::JobSource& source, bool fingerprint) {
  ES_EXPECTS(source_ == nullptr);  // one run per engine instance
  ES_EXPECTS(source.machine_procs() == config_.machine_procs);
  source_ = &source;
  fingerprinting_ = fingerprint;
  if (fingerprinting_) fingerprint_ = config_fingerprint(config_, *policy_);
}

SimulationResult Engine::run_streamed(workload::JobSource& source) {
  const auto run_start = std::chrono::steady_clock::now();
  begin(source, config_.snapshot.every_cycles > 0);
  dp_baseline_ = policy_->dp_counters();
  load_next_chunk();
  // The utilization baseline lands at the first arrival even though later
  // chunks are scheduled after it (records are time-ordered because refills
  // fire at the last scheduled arrival).
  utilization_.record(first_arrival_, 0);
  if (failure_model_.enabled() && jobs_pulled_ > 0) {
    utilization_.record_capacity(first_arrival_, machine_.available());
    schedule_next_outage(first_arrival_);
  }
  return finish_run(run_start);
}

bool Engine::pull_chunk() {
  if (source_exhausted_) return false;
  if (!source_->next_chunk(chunk_)) {
    source_exhausted_ = true;
    return false;
  }
  ES_EXPECTS(chunk_.ecc_counts.size() == chunk_.jobs.size());
  if (jobs_pulled_ == 0 && !chunk_.jobs.empty()) {
    first_arrival_ = chunk_.jobs.front().arr;
    offered_origin_ = first_arrival_;
    offered_last_ = first_arrival_;
    warn_if_unbounded_retry(chunk_.jobs);
  }
  for (const workload::Job& spec : chunk_.jobs) {
    // workload::offered_load(), term for term in trace order.
    offered_proc_seconds_ +=
        static_cast<double>(spec.num) * spec.actual_runtime();
    const sim::Time begin = spec.dedicated() && spec.start >= 0
                                ? std::max(spec.arr, spec.start)
                                : spec.arr;
    offered_last_ = std::max(offered_last_, begin + spec.actual_runtime());
  }
  jobs_pulled_ += chunk_.jobs.size();
  if (fingerprinting_) fingerprint_ = fold_chunk(fingerprint_, chunk_);
  return true;
}

bool Engine::load_next_chunk() {
  // A chunk without jobs (a job-less trace's commands) schedules no
  // arrival, hence no refill trigger: keep pulling.
  while (pull_chunk()) {
    for (std::size_t i = 0; i < chunk_.jobs.size(); ++i) {
      const workload::Job& spec = chunk_.jobs[i];
      // The refill fires at the last scheduled arrival, so every new event
      // is at or after now; the source's tie-group contract guarantees
      // strictly later arrivals, so the per-class schedule order does not
      // depend on where the chunks were cut.
      ES_EXPECTS(spec.arr >= sim_.now());
      JobRun* ptr = build_job(spec);
      const auto [pos, inserted] = by_id_.emplace(spec.id, ptr);
      (void)pos;
      ES_EXPECTS(inserted);  // duplicate live job IDs: malformed workload
      if (config_.process_eccs)
        arena_.cold(*ptr).ecc_pending = chunk_.ecc_counts[i];
      ++arrivals_pending_;
      sim_.at(ptr->arr, sim::EventClass::kJobArrival,
              [this, ptr](sim::Time) { on_arrival(ptr); },
              static_cast<std::uint64_t>(ptr->id));
      if (ptr->dedicated() && ptr->req_start > ptr->arr) {
        sim_.at(ptr->req_start, sim::EventClass::kDedicatedDue,
                [this](sim::Time) { on_dedicated_due(); },
                static_cast<std::uint64_t>(ptr->id));
      }
    }
    if (config_.process_eccs) {
      for (const workload::Ecc& ecc : chunk_.eccs) {
        // Issue order across chunks is what lets on_ecc() pop payloads
        // front-first: same-class events at one instant fire in seq order.
        ES_EXPECTS(ecc.issue >= sim_.now());
        ES_EXPECTS(pending_eccs_.empty() ||
                   pending_eccs_.back().issue <= ecc.issue);
        pending_eccs_.push_back(ecc);
        sim_.at(ecc.issue, sim::EventClass::kEccArrival,
                [this](sim::Time) { on_ecc(); },
                static_cast<std::uint64_t>(ecc.job_id));
      }
    }
    if (arrivals_pending_ > 0) return true;
  }
  return false;
}

void Engine::retire(JobRun* job) {
  const JobRunCold& cold = arena_.cold(*job);
  JobOutcome outcome;
  outcome.id = job->id;
  outcome.dedicated = job->dedicated();
  outcome.killed = job->status == JobStatus::kKilled;
  outcome.abandoned = job->status == JobStatus::kAbandoned;
  outcome.interruptions = cold.interruptions;
  outcome.procs = job->alloc;
  outcome.arrival = job->arr;
  outcome.started = job->start_time;
  outcome.finished = cold.end_time;
  outcome.run = cold.end_time - job->start_time;
  outcome.wait = job->dedicated()
                     ? std::max(0.0, job->start_time - job->req_start)
                     : job->start_time - job->arr;
  ++sums_.count;
  sums_.interruptions += static_cast<std::uint64_t>(outcome.interruptions);
  if (outcome.dedicated) {
    sums_.dedicated_delay_sum += outcome.wait;
    if (outcome.wait == 0) ++folded_.dedicated_on_time;
    ++sums_.dedicated_count;
  }
  sums_.wait_sum += outcome.wait;
  sums_.run_sum += outcome.run;
  const double run_floor = std::max(outcome.run, 1e-9);
  sums_.sd_sum += (outcome.wait + outcome.run) / run_floor;
  sums_.bsd_sum += (outcome.wait + outcome.run) / std::max(outcome.run, 10.0);
  folded_.max_wait = std::max(folded_.max_wait, outcome.wait);
  const double work = static_cast<double>(outcome.procs) * outcome.run;
  if (outcome.abandoned) {
    ++folded_.abandoned;
    deferred_wasted_.push_back(work);
  } else if (outcome.killed) {
    ++folded_.killed;
    deferred_wasted_.push_back(work);
  } else {
    ++folded_.completed;
    folded_.failure.goodput_proc_seconds += work;
  }
  if (config_.keep_job_outcomes) folded_.jobs.push_back(outcome);
  ++jobs_retired_;
}

void Engine::maybe_release(JobRun* job) {
  if (job->status == JobStatus::kWaiting || job->status == JobStatus::kRunning)
    return;
  // Late commands must still find the record so the EccProcessor's
  // rejected-after-finish audit sees the finished job.
  if (config_.process_eccs && arena_.cold(*job).ecc_pending > 0) return;
  const std::size_t erased = by_id_.erase(job->id);
  ES_ASSERT(erased == 1);
  (void)erased;
  arena_.release(job);
}

SimulationResult Engine::finish_run(
    std::chrono::steady_clock::time_point start) {
  pump_events();
  if (termination_ == sim::TerminationReason::kCompleted) {
    // Every job must have completed: the scheduler invariant tests rely on
    // it.  A watchdog abort leaves the run mid-flight by design, so the
    // postconditions only hold for completed runs.
    ES_ENSURES(batch_queue_.empty());
    ES_ENSURES(dedicated_queue_.empty());
    ES_ENSURES(active_.empty());
    ES_ENSURES(all_jobs_finished());
    ES_ENSURES(arena_.live() == 0 && by_id_.empty());
    ES_ENSURES(machine_.offline() == 0);  // every outage was repaired
  } else {
    // The jobs the source still holds are unfinished too, and count toward
    // the offered load.
    while (pull_chunk()) {
    }
    ES_LOG_WARN(
        "watchdog abort (%s) at t=%.3f after %llu events: %llu/%llu jobs "
        "finished; reporting partial metrics",
        sim::to_string(termination_), sim_.now(),
        static_cast<unsigned long long>(sim_.events_processed()),
        static_cast<unsigned long long>(jobs_retired_),
        static_cast<unsigned long long>(jobs_pulled_));
  }
  SimulationResult result = collect();
  result.perf.dp = policy_->dp_counters() - dp_baseline_;
  result.perf.events = sim_.queue().counters();
  result.perf.wall_seconds = seconds_since(start);
  result.perf.peak_rss_bytes = util::peak_rss_bytes();
  return result;
}

SimulationResult Engine::collect() {
  // The counters folded at retire (and the outcome ledger) seed the result.
  SimulationResult result = std::move(folded_);
  result.first_arrival = first_arrival_;
  result.last_finish = last_finish_;
  result.makespan = last_finish_ - first_arrival_;
  result.cycles = cycles_;
  result.events = sim_.events_processed();
  result.termination = termination_;
  result.unfinished = jobs_pulled_ - jobs_retired_;
  const double span = offered_last_ - offered_origin_;
  result.offered_load =
      jobs_pulled_ > 0 && span > 0
          ? offered_proc_seconds_ / (span * machine_.total())
          : 0.0;
  result.ecc = ecc_processor_.stats();
  // Attachments deposit their ledgers (failure stats, checkpoint stats,
  // the audit trace, cycle histograms, ECC skip counts).  The deferred
  // wasted-work terms follow, in completion order, because
  // FailureStatsObserver assigns its share of that ledger.
  attachments_.on_collect(result);
  for (const double work : deferred_wasted_)
    result.failure.wasted_proc_seconds += work;

  const double n = static_cast<double>(sums_.count);
  if (n > 0) {
    result.mean_wait = sums_.wait_sum / n;
    result.mean_run = sums_.run_sum / n;
    result.mean_per_job_slowdown = sums_.sd_sum / n;
    result.mean_bounded_slowdown = sums_.bsd_sum / n;
    // Paper definition: ratio of averages.
    result.slowdown =
        result.mean_run > 0
            ? (result.mean_wait + result.mean_run) / result.mean_run
            : 0.0;
  }
  if (sums_.dedicated_count > 0)
    result.mean_dedicated_delay =
        sums_.dedicated_delay_sum / static_cast<double>(sums_.dedicated_count);
  result.utilization = utilization_.utilization_of(
      busy_at_last_finish_, first_arrival_, last_finish_);
  if (failure_model_.enabled() && last_finish_ > first_arrival_) {
    result.failure.down_proc_seconds =
        static_cast<double>(machine_.total()) *
            (last_finish_ - first_arrival_) -
        utilization_.available_proc_seconds(first_arrival_, last_finish_);
  }
  return result;
}

void Engine::pump_events() {
  const bool snapshotting = config_.snapshot.every_cycles > 0;
  if (!config_.watchdog.enabled() && !snapshotting) {
    // The exact seed event loop: no per-event budget checks on the fast
    // path when no budget or snapshot cadence is configured.
    sim_.run();
    return;
  }
  std::optional<sim::Watchdog> watchdog;
  if (config_.watchdog.enabled()) watchdog.emplace(config_.watchdog);
  sim::TerminationReason reason = sim::TerminationReason::kCompleted;
  while (!sim_.idle()) {
    if (watchdog && watchdog->exhausted(sim_, reason)) break;
    sim_.step();
    if (abort_.requested) {
      // An attachment (the watchdog-progress observer) asked for a typed
      // abort from inside the event loop.
      reason = abort_.reason;
      break;
    }
    // Snapshots land only here, *between* events: the engine is never
    // mid-cycle, so the serialized state is a consistent event boundary.
    if (snapshotting) maybe_snapshot();
  }
  termination_ = reason;
}

void Engine::maybe_snapshot() {
  if (cycles_ - last_snapshot_cycle_ < config_.snapshot.every_cycles) return;
  last_snapshot_cycle_ = cycles_;
  snap::SnapshotWriter writer;
  snapshot(writer);
  const std::string image = writer.finish();
  if (snapshot_sink_) snapshot_sink_(image);
  if (!config_.snapshot.dir.empty()) {
    if (!ring_)
      ring_ = std::make_unique<snap::SnapshotRing>(config_.snapshot.dir,
                                                   config_.snapshot.keep);
    ring_->commit(image);
  }
}

JobRun* Engine::job_by_id(workload::JobId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end())
    snapshot_corrupt("unknown job id " + std::to_string(id));
  return it->second;
}

// --- snapshot field walkers -------------------------------------------------
//
// Each record lists its fields once; Save walks the list to serialize and
// Load walks the same list to restore, so the two directions cannot drift.

namespace {

struct Save {
  snap::SnapshotWriter& out;
  void operator()(double v) { out.f64(v); }
  void operator()(std::uint64_t v) { out.u64(v); }
  void operator()(std::int64_t v) { out.i64(v); }
  void operator()(std::int32_t v) { out.i32(v); }
  void operator()(std::uint8_t v) { out.u8(v); }
  void operator()(bool v) { out.boolean(v); }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v, E = E{}) {
    out.i32(static_cast<std::int32_t>(v));
  }
  /// A vector's length; the elements follow through the caller's walk.
  template <class T>
  void size(const std::vector<T>& items, std::uint64_t) {
    out.u64(items.size());
  }
};

struct Load {
  snap::SnapshotReader& in;
  void operator()(double& v) { v = in.f64(); }
  void operator()(std::uint64_t& v) { v = in.u64(); }
  void operator()(std::int64_t& v) { v = in.i64(); }
  void operator()(std::int32_t& v) { v = in.i32(); }
  void operator()(std::uint8_t& v) { v = in.u8(); }
  void operator()(bool& v) { v = in.boolean(); }
  /// Enumerators are range-checked against `last`.
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& v, E last = E{}) {
    const std::int32_t raw = in.i32();
    if (raw < 0 || raw > static_cast<std::int32_t>(last))
      snapshot_corrupt("enumerator out of range");
    v = static_cast<E>(raw);
  }
  template <class T>
  void size(std::vector<T>& items, std::uint64_t limit) {
    const std::uint64_t count = in.u64();
    if (count > limit) snapshot_corrupt("record count out of range");
    items.resize(static_cast<std::size_t>(count));
  }
};

/// `T`, const when saving.
template <class IO, class T>
using Field = std::conditional_t<std::is_same_v<IO, Save>, const T, T>;

template <class IO>
void walk(IO& io, Field<IO, JobOutcome>& o) {
  io(o.id), io(o.dedicated), io(o.killed), io(o.abandoned);
  io(o.interruptions), io(o.procs), io(o.arrival), io(o.started);
  io(o.finished), io(o.wait), io(o.run);
}

template <class IO>
void walk(IO& io, Field<IO, JobRun>& job, Field<IO, JobRunCold>& cold) {
  io(job.id), io(job.arr), io(job.pool), io(job.req_time);
  io(job.actual_time), io(job.num), io(job.alloc), io(job.req_start);
  io(job.scount), io(job.forced_priority), io(cold.interruptions);
  io(cold.ecc_pending), io(job.ckpt_progress), io(job.ckpt_overhead_planned);
  io(job.status, JobStatus::kAbandoned);
  io(job.start_time), io(cold.end_time), io(job.frenum);
}

template <class IO>
void walk(IO& io, Field<IO, EccProcessor::State>& ecc) {
  io(ecc.stats.processed), io(ecc.stats.extensions);
  io(ecc.stats.reductions), io(ecc.stats.rejected);
  io(ecc.stats.unknown_job), io(ecc.stats.after_finish);
  io(ecc.stats.running_resizes), io(ecc.stats.conflicts);
  io(ecc.stats.time_added), io(ecc.stats.time_removed);
  io(ecc.stats.procs_added), io(ecc.stats.procs_removed);
  io(ecc.group_job), io(ecc.group_time), io(ecc.group_time_dim);
  io(ecc.group_proc_dim);
}

template <class IO>
void walk(IO& io, Field<IO, fault::FailureModel::State>& failure) {
  for (auto& word : failure.rng.s) io(word);
  io(failure.rng.cached_normal), io(failure.rng.has_cached_normal);
  io(failure.script_index), io(failure.cursor);
}

template <class IO>
void walk(IO& io, Field<IO, DpCounters>& dp) {
  io(dp.calls), io(dp.fast_path), io(dp.table_runs), io(dp.table_cells);
}

template <class IO>
void walk(IO& io, Field<IO, sim::EventQueueCounters>& counters) {
  io(counters.scheduled), io(counters.cancelled), io(counters.fired);
  io(counters.peak_pending);
}

}  // namespace

template <class IO, class Self>
void Engine::walk_fold(IO& io, Self& self) {
  auto& sums = self.sums_;
  auto& folded = self.folded_;
  io(sums.wait_sum), io(sums.run_sum), io(sums.sd_sum), io(sums.bsd_sum);
  io(sums.dedicated_delay_sum), io(sums.dedicated_count), io(sums.count);
  io(sums.interruptions), io(folded.completed), io(folded.killed);
  io(folded.abandoned), io(folded.dedicated_on_time), io(folded.max_wait);
  io(folded.failure.goodput_proc_seconds);
  io.size(self.deferred_wasted_, self.jobs_retired_);
  for (auto& work : self.deferred_wasted_) io(work);
  io.size(folded.jobs, self.jobs_retired_);
  for (auto& outcome : folded.jobs) walk(io, outcome);
}

void Engine::snapshot(snap::SnapshotWriter& writer) const {
  ES_EXPECTS(!in_cycle_);  // only valid at an event boundary
  ES_EXPECTS(fingerprinting_);
  Save save{writer};

  // The run fingerprint and the source cursor a restore re-pulls to.
  writer.begin_section("META");
  save(fingerprint_), save(jobs_pulled_), save(jobs_retired_);
  save(arrivals_pending_), save(source_exhausted_);
  writer.end_section();

  // Clock + event-queue allocator/counters.  next_seq must round-trip so
  // post-restore schedule() calls draw the sequence numbers the original
  // run would have drawn — same-instant tie-breaking depends on them.
  writer.begin_section("CLCK");
  save(sim_.now()), save(sim_.events_processed());
  save(sim_.queue().next_seq());
  walk(save, sim_.queue().counters());
  writer.end_section();

  // Pending events as (time, class, original seq, semantic tag) — the
  // callbacks are rebuilt from the tags on restore.  ECC events carry
  // their command: seq order is their firing order, which is the order of
  // the pending payload queue.
  writer.begin_section("EVTS");
  const std::vector<sim::PendingEvent> pending = sim_.queue().pending_events();
  save(pending.size());
  auto next_ecc = pending_eccs_.begin();
  for (const sim::PendingEvent& event : pending) {
    save(event.time), save(event.cls), save(event.seq), save(event.tag);
    if (static_cast<sim::EventClass>(event.cls) ==
        sim::EventClass::kEccArrival) {
      ES_ASSERT(next_ecc != pending_eccs_.end());
      const workload::Ecc& ecc = *next_ecc++;
      save(ecc.job_id), save(ecc.type), save(ecc.amount);
    }
  }
  ES_ASSERT(next_ecc == pending_eccs_.end());
  writer.end_section();

  // Live job records — waiting, running, and retired ones that commands
  // still target — with their spec fields, in id order; then the batch
  // FIFO, the dedicated list and the active array (by planned end).
  std::vector<const JobRun*> live;
  live.reserve(by_id_.size());
  for (const auto& [id, job] : by_id_) live.push_back(job);
  std::sort(live.begin(), live.end(),
            [](const JobRun* a, const JobRun* b) { return a->id < b->id; });
  writer.begin_section("JOBS");
  save(live.size());
  for (const JobRun* job : live) walk(save, *job, arena_.cold(*job));
  writer.end_section();
  writer.begin_section("ORDR");
  save(batch_queue_.size());
  for (const JobRun* job : batch_queue_) save(job->id);
  save(dedicated_queue_.size());
  for (const JobRun* job : dedicated_queue_) save(job->id);
  save(active_.size());
  for (const JobRun* job : active_) save(job->id);
  writer.end_section();

  writer.begin_section("MACH");
  const cluster::MachineState machine_state = machine_.save_state();
  save(machine_state.free), save(machine_state.offline);
  save(machine_state.allocations.size());
  for (const auto& [job, procs] : machine_state.allocations)
    save(job), save(procs);
  writer.end_section();

  // The bounded tracker: running busy integral (no step list) plus the
  // capacity timeline, which only outages extend.
  writer.begin_section("UTIL");
  const cluster::UtilizationState util_state = utilization_.save_state();
  save(util_state.busy), save(util_state.first), save(util_state.last);
  save(util_state.started), save(util_state.integral);
  save(busy_at_last_finish_);
  save(util_state.capacity_steps.size());
  for (const auto& [time, available] : util_state.capacity_steps)
    save(time), save(available);
  writer.end_section();

  writer.begin_section("ECCP");
  walk(save, ecc_processor_.save_state());
  writer.end_section();

  // Failure model draw position + the payload of the (at most one) pending
  // outage-chain event.
  writer.begin_section("FAIL");
  save(has_pending_outage_), save(pending_outage_.down);
  save(pending_outage_.up), save(pending_outage_.procs);
  walk(save, failure_model_.save_state());
  writer.end_section();

  // Engine scalars.  DP counters are policy-cumulative (the policy object
  // outlives engines), so the snapshot stores the *delta* accumulated by
  // this run; restore re-anchors the baseline below the resuming policy's
  // own counter.
  writer.begin_section("ENGN");
  save(cycles_), save(last_finish_);
  walk(save, policy_->dp_counters() - dp_baseline_);
  writer.end_section();

  // What retired jobs left behind: the running sums, the result counters,
  // the deferred wasted-work terms and the per-job outcome ledger (empty
  // unless keep_job_outcomes).
  writer.begin_section("FOLD");
  walk_fold(save, *this);
  writer.end_section();

  // Every built-in attachment is a plain member that exists whether or not
  // it is registered, so all seven ledgers serialize unconditionally — the
  // layout never depends on which observers the config enabled.
  writer.begin_section("ATCH");
  checkpoint_attach_.save_state(writer);
  failure_attach_.save_state(writer);
  ecc_audit_attach_.save_state(writer);
  trace_attach_.save_state(writer);
  progress_attach_.save_state(writer);
  cycle_stats_attach_.save_state(writer);
  fairness_attach_.save_state(writer);
  writer.end_section();

  // Policy cross-cycle state (empty for every memoryless factory policy;
  // the AdaptiveSelector writes its sliding window).
  writer.begin_section("POLI");
  policy_->save_state(writer);
  writer.end_section();
}

SimulationResult Engine::resume(workload::JobSource& source,
                                snap::SnapshotReader& reader) {
  const auto run_start = std::chrono::steady_clock::now();
  begin(source, true);  // a fresh engine: resume() is its one run
  Load load{reader};

  // Re-pull the source up to the saved cursor: the rolling fingerprint
  // over what it delivers must match, and so must the cursor itself.
  reader.open_section("META");
  std::uint64_t fingerprint = 0, pulled = 0;
  bool exhausted = false;
  load(fingerprint), load(pulled), load(jobs_retired_);
  load(arrivals_pending_), load(exhausted);
  if (jobs_retired_ > pulled) snapshot_corrupt("more jobs retired than built");
  while (jobs_pulled_ < pulled && pull_chunk()) {
  }
  if (exhausted) {
    while (pull_chunk())
      if (!chunk_.jobs.empty()) snapshot_mismatch();  // the trace is longer
  }
  if (jobs_pulled_ != pulled || fingerprint != fingerprint_)
    snapshot_mismatch();

  reader.open_section("JOBS");
  std::uint64_t live_count = 0;
  load(live_count);
  if (live_count > pulled) snapshot_corrupt("more live records than jobs");
  for (std::uint64_t i = 0; i < live_count; ++i) {
    JobRun* job = arena_.claim();
    walk(load, *job, arena_.cold(*job));
    if (!by_id_.emplace(job->id, job).second)
      snapshot_corrupt("duplicate live job id");
  }
  reader.open_section("ORDR");
  std::uint64_t count = 0;
  const auto for_each_id = [&](const auto& place) {
    load(count);
    for (std::uint64_t i = 0; i < count; ++i) place(job_by_id(reader.i64()));
  };
  for_each_id([this](JobRun* job) {
    if (job->in_batch_queue) snapshot_corrupt("job enqueued twice");
    batch_queue_.push_back(job);
  });
  for_each_id([this](JobRun* job) { dedicated_queue_.push_back(job); });
  for_each_id([this](JobRun* job) {
    if (job->active_index >= 0) snapshot_corrupt("job active twice");
    job->active_index = static_cast<std::int32_t>(active_.size());
    active_.push_back(job);
  });

  reader.open_section("MACH");
  cluster::MachineState machine_state;
  load(machine_state.free), load(machine_state.offline);
  load.size(machine_state.allocations,
            static_cast<std::uint64_t>(machine_.total()));
  for (auto& [job, procs] : machine_state.allocations)
    load(job), load(procs);
  machine_.restore_state(machine_state);

  reader.open_section("UTIL");
  cluster::UtilizationState util_state;
  load(util_state.busy), load(util_state.first), load(util_state.last);
  load(util_state.started), load(util_state.integral);
  load(busy_at_last_finish_);
  load.size(util_state.capacity_steps, reader.remaining());
  for (auto& [time, available] : util_state.capacity_steps)
    load(time), load(available);
  utilization_.restore_state(util_state);

  reader.open_section("ECCP");
  EccProcessor::State ecc_state;
  walk(load, ecc_state);
  ecc_processor_.restore_state(ecc_state);

  reader.open_section("FAIL");
  load(has_pending_outage_), load(pending_outage_.down);
  load(pending_outage_.up), load(pending_outage_.procs);
  fault::FailureModel::State fail_state;
  walk(load, fail_state);
  failure_model_.restore_state(fail_state);

  reader.open_section("ENGN");
  load(cycles_), load(last_finish_);
  DpCounters dp_delta;
  walk(load, dp_delta);
  // Re-anchor mod 2^64: baseline = current − delta, so the final
  // (counters − baseline) report equals delta + whatever the resumed run
  // adds — exactly the uninterrupted run's figure.
  dp_baseline_ = policy_->dp_counters() - dp_delta;

  reader.open_section("FOLD");
  walk_fold(load, *this);
  if (sums_.count != jobs_retired_ ||
      folded_.completed + folded_.killed + folded_.abandoned != jobs_retired_)
    snapshot_corrupt("folded counts disagree with the cursor");
  // keep_job_outcomes is behaviour-neutral: a ledger the resumed run does
  // not keep is dropped, one it keeps must have been saved.
  if (!config_.keep_job_outcomes)
    folded_.jobs.clear();
  else if (folded_.jobs.size() != jobs_retired_)
    snapshot_mismatch();

  // Rebuild the pending event set: each saved (class, tag) pair maps back
  // to the closure the original run had scheduled.  Events are replayed in
  // saved (seq) order; restore_meta afterwards overwrites the counters the
  // replay inflated and re-seats the sequence allocator.
  reader.open_section("CLCK");
  sim::Time now = 0;
  std::uint64_t processed = 0, next_seq = 0;
  sim::EventQueueCounters counters;
  load(now), load(processed), load(next_seq);
  walk(load, counters);

  reader.open_section("EVTS");
  load(count);
  bool saw_outage_event = false;
  std::uint64_t arrival_events = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    sim::Time time = 0;
    std::int32_t cls_raw = 0;
    std::uint64_t seq = 0, tag = 0;
    load(time), load(cls_raw), load(seq), load(tag);
    if (seq >= next_seq) snapshot_corrupt("event seq beyond allocator");
    const auto cls = static_cast<sim::EventClass>(cls_raw);
    switch (cls) {
      case sim::EventClass::kJobFinish: {
        JobRun* job = job_by_id(static_cast<workload::JobId>(tag));
        if (job->status != JobStatus::kRunning)
          snapshot_corrupt("finish event for a job that is not running");
        if (job->finish_event.valid())
          snapshot_corrupt("duplicate finish event");
        job->finish_event = sim_.restore_event(
            time, cls, [this, job](sim::Time) { on_finish(job); }, tag, seq);
        break;
      }
      case sim::EventClass::kJobArrival: {
        JobRun* job = job_by_id(static_cast<workload::JobId>(tag));
        ++arrival_events;
        sim_.restore_event(
            time, cls, [this, job](sim::Time) { on_arrival(job); }, tag, seq);
        break;
      }
      case sim::EventClass::kDedicatedDue:
        sim_.restore_event(
            time, cls, [this](sim::Time) { on_dedicated_due(); }, tag, seq);
        break;
      case sim::EventClass::kEccArrival: {
        workload::Ecc& ecc = pending_eccs_.emplace_back();
        ecc.issue = time;
        load(ecc.job_id), load(ecc.type, workload::EccType::kReduceProcs);
        load(ecc.amount);
        sim_.restore_event(
            time, cls, [this](sim::Time) { on_ecc(); }, tag, seq);
        break;
      }
      case sim::EventClass::kNodeDown: {
        if (!has_pending_outage_ || saw_outage_event)
          snapshot_corrupt("NodeDown event without a pending outage");
        saw_outage_event = true;
        const fault::Outage outage = pending_outage_;
        sim_.restore_event(
            time, cls, [this, outage](sim::Time) { on_node_down(outage); },
            tag, seq);
        break;
      }
      case sim::EventClass::kNodeUp: {
        const int procs = static_cast<int>(tag);
        if (procs <= 0 || procs > machine_.total())
          snapshot_corrupt("NodeUp processor count out of range");
        sim_.restore_event(
            time, cls, [this, procs](sim::Time) { on_node_up(procs); }, tag,
            seq);
        break;
      }
      default:
        snapshot_corrupt("unknown event class");
    }
  }
  if (has_pending_outage_ && !saw_outage_event)
    snapshot_corrupt("pending outage without its NodeDown event");
  if (arrival_events != arrivals_pending_)
    snapshot_corrupt("arrival events disagree with the cursor");
  sim_.restore_clock(now, processed);
  sim_.restore_queue_meta(next_seq, counters);

  reader.open_section("ATCH");
  checkpoint_attach_.restore_state(reader);
  failure_attach_.restore_state(reader);
  ecc_audit_attach_.restore_state(reader);
  trace_attach_.restore_state(reader);
  progress_attach_.restore_state(reader);
  cycle_stats_attach_.restore_state(reader);
  fairness_attach_.restore_state(reader);

  reader.open_section("POLI");
  policy_->restore_state(reader);

  last_snapshot_cycle_ = cycles_;
  return finish_run(run_start);
}

void Engine::warn_if_unbounded_retry(
    const std::vector<workload::Job>& jobs) const {
  // Footgun detector: stochastic failures, capless restart-from-scratch
  // requeue, no checkpointing, and an MTBF below the mean job runtime mean
  // the expected number of attempts per job grows like e^(runtime/MTBF) —
  // the run may effectively never terminate.  Judged on the first chunk,
  // so it fires before the run starts on every path.  Warn once per
  // process.
  if (!config_.failure.enabled || !config_.failure.script.empty()) return;
  if (config_.failure.max_interruptions > 0) return;
  if (config_.requeue == fault::RequeuePolicy::kAbandon) return;
  if (config_.checkpoint.enabled) return;
  if (jobs.empty()) return;
  double runtime_sum = 0;
  for (const workload::Job& job : jobs) runtime_sum += job.actual_runtime();
  const double mean_runtime = runtime_sum / static_cast<double>(jobs.size());
  if (config_.failure.mtbf >= mean_runtime) return;
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  ES_LOG_WARN(
      "failure MTBF (%.0f s) is below the mean job runtime (%.0f s) with an "
      "uncapped restart-from-scratch requeue policy: expected attempts grow "
      "like e^(runtime/MTBF), so the run may not terminate.  Consider "
      "--fail-retry-cap, checkpointing (--ckpt-interval), or a watchdog "
      "budget (--max-events / --wall-budget).",
      config_.failure.mtbf, mean_runtime);
}

SimulationResult simulate(const EngineConfig& config, Scheduler& policy,
                          const workload::Workload& workload) {
  Engine engine(config, policy);
  return engine.run(workload);
}

}  // namespace es::sched
