// Simulation engine: wires a workload, a machine and a scheduling policy
// over the discrete-event kernel.
//
// Event flow (one run):
//   * the JobSource is pulled chunk by chunk, the next chunk when the last
//     scheduled arrival fires; every submission schedules a JobArrival at
//     its arrival time;
//   * every dedicated job additionally schedules a DedicatedDue wake-up at
//     its requested start time;
//   * (-E variants) every ECC schedules an EccArrival at its issue time —
//     simulation order is the FCFS elastic control queue;
//   * each event updates queues/state and then runs one scheduler cycle;
//   * policy start() decisions allocate processors and schedule JobFinish at
//     start + min(actual, kill-by estimate); jobs overrunning their estimate
//     are killed, per the backfilling literature;
//   * (fault injection) the failure model chains NodeDown/NodeUp pairs: a
//     NodeDown preempts enough running jobs to cover the lost capacity and
//     applies the requeue policy; the paired NodeUp restores the processors
//     and, while unfinished jobs remain, schedules the next outage.
//
// The engine core does machine/queue/active-set mechanics only.  Every
// cross-cutting concern — audit tracing, failure accounting, checkpoint
// recovery bookkeeping, watchdog progress notes, ECC audits, cycle
// statistics — is an EngineObserver on the attachment chain
// (sched/attach/), registered at construction from the EngineConfig and
// dispatched at each lifecycle site.  See sched/attach/observer.hpp for
// the chain's ordering rules and docs/architecture.md for the map.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/machine.hpp"
#include "cluster/utilization.hpp"
#include "fault/failure_model.hpp"
#include "sched/attach/checkpoint_observer.hpp"
#include "sched/attach/cycle_stats_observer.hpp"
#include "sched/attach/ecc_audit_observer.hpp"
#include "sched/attach/failure_stats_observer.hpp"
#include "sched/attach/fairness_observer.hpp"
#include "sched/attach/observer.hpp"
#include "sched/attach/trace_observer.hpp"
#include "sched/attach/watchdog_progress_observer.hpp"
#include "sched/ecc_processor.hpp"
#include "sched/engine_config.hpp"
#include "sched/job_arena.hpp"
#include "sched/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulation.hpp"
#include "sim/watchdog.hpp"
#include "workload/job.hpp"
#include "workload/source.hpp"

namespace es::snap {
class SnapshotWriter;
class SnapshotReader;
class SnapshotRing;
}  // namespace es::snap

namespace es::sched {

/// One engine instance runs one workload with one policy.
class Engine {
 public:
  Engine(const EngineConfig& config, Scheduler& policy);
  ~Engine();

  /// Appends an external observer to the attachment chain, after the
  /// config-selected built-ins.  Must be called before run(); the engine
  /// does not take ownership.
  void add_observer(EngineObserver* observer, HookMask mask = kAllHooks) {
    attachments_.add(observer, mask);
  }

  /// Runs the whole workload to completion and returns the metrics: drains
  /// a MaterializedSource over `workload` through run_streamed().
  SimulationResult run(const workload::Workload& workload);

  /// The run path.  Drains a JobSource chunk by chunk, holding only the
  /// jobs in flight: the next chunk is built and scheduled when the last
  /// scheduled arrival fires, finished jobs are folded into the metrics
  /// when they retire, and their arena records are released once their
  /// last command has dispatched (see workload/source.hpp for the ordering
  /// contracts that keep the schedule independent of the chunk size).  A
  /// watchdog-aborted run drains the rest of the source, so `unfinished`
  /// and `offered_load` cover the whole trace.
  SimulationResult run_streamed(workload::JobSource& source);

  // --- crash-consistent snapshot/restore ----------------------------------

  /// Serializes the engine's live mid-run state into `writer` (layout in
  /// docs/architecture.md): source cursor and rolling run fingerprint,
  /// pending events with ECC payloads, live job records, queues, ledgers,
  /// the sums folded from retired jobs, attachment and policy state.  Only
  /// valid between events, on a run that snapshots (snapshot.every_cycles >
  /// 0) or was restored — the runs that keep the fingerprint.
  void snapshot(snap::SnapshotWriter& writer) const;

  /// Continues a snapshotted run on a fresh engine: re-pulls `source` (a
  /// fresh source over the same trace) up to the saved cursor, checks the
  /// rolling fingerprint over what it delivered, restores the live state
  /// and runs to completion — metrics identical to the uninterrupted run.
  /// Throws snap::SnapshotError: kMismatch for a different (trace, machine,
  /// policy, fault-config) combination, kCorrupt for damaged content.
  SimulationResult resume(workload::JobSource& source,
                          snap::SnapshotReader& reader);

  /// Receives every periodic snapshot image (in addition to the disk ring,
  /// when SnapshotPolicy::dir is set).  Used by the crash-recovery
  /// harnesses to capture kill-point snapshots without filesystem traffic.
  using SnapshotSink = std::function<void(const std::string&)>;
  void set_snapshot_sink(SnapshotSink sink) {
    snapshot_sink_ = std::move(sink);
  }

  /// The machine, exposed for tests that inspect the final state.
  const cluster::Machine& machine() const { return machine_; }

 private:
  void on_arrival(JobRun* job);
  void on_dedicated_due();
  void on_ecc();
  void on_finish(JobRun* job);
  void on_node_down(const fault::Outage& outage);
  void on_node_up(int procs);
  void schedule_next_outage(sim::Time from);
  void preempt_victim();
  /// Policy-initiated preemption (SchedulerContext::preempt): the shared
  /// preempt sequence with a forced tail requeue.
  void preempt_running(JobRun* job);
  /// Shared preempt machinery: cancel, release, retry-cap check, attachment
  /// hooks, requeue under `policy`.
  void preempt_job(JobRun* job, fault::RequeuePolicy requeue_policy);
  void start_job(JobRun* job);
  void finish_job(JobRun* job);
  void insert_active(JobRun* job);
  void remove_active(JobRun* job);
  void reposition_active(JobRun* job);
  void move_dedicated_head_to_batch_head();
  void warn_if_unbounded_retry(const std::vector<workload::Job>& jobs) const;
  void run_cycle();
  void pump_events();
  void maybe_snapshot();
  void check_invariants() const;
  CycleInfo cycle_info() const;
  ParanoidSnapshot paranoid_snapshot() const;
  bool all_jobs_finished() const {
    return source_exhausted_ && jobs_retired_ == jobs_pulled_;
  }

  /// Attaches the source and, on runs that snapshot or restore, seeds the
  /// rolling fingerprint with the config and policy.
  void begin(workload::JobSource& source, bool fingerprint);
  /// Pulls the next chunk into chunk_ and advances the source cursor: job
  /// count, first arrival, offered-load accumulators, rolling fingerprint
  /// and, on the first chunk, the retry footgun check.  Builds nothing.
  bool pull_chunk();
  /// Pulls, builds and schedules chunks until one schedules an arrival (the
  /// refill trigger); returns false at end of stream.
  bool load_next_chunk();
  JobRun* build_job(const workload::Job& spec);
  /// Folds a finished job into the running sums (completion order) — does
  /// not release the record.
  void retire(JobRun* job);
  /// Releases a finished job's record once no scheduled command still
  /// targets it.  No-op while the job waits, runs or has commands pending.
  void maybe_release(JobRun* job);
  /// Pump + completed-run postconditions (or the abort drain) + collect +
  /// perf counters: the tail shared by run_streamed() and resume().
  SimulationResult finish_run(std::chrono::steady_clock::time_point start);
  SimulationResult collect();
  JobRun* job_by_id(workload::JobId id) const;
  /// The FOLD snapshot section's field list (Self: [const] Engine).
  template <class IO, class Self>
  static void walk_fold(IO& io, Self& self);

  EngineConfig config_;
  Scheduler* policy_;
  sim::Simulation sim_;
  cluster::Machine machine_;
  cluster::UtilizationTracker utilization_;
  EccProcessor ecc_processor_;
  fault::FailureModel failure_model_;

  // The lifecycle event bus.  Built-in attachments are plain members (no
  // heap); the constructor registers the enabled ones with the chain in
  // the canonical order (see attach/observer.hpp).  AbortFlag lets the
  // watchdog-progress attachment abort the stepping event pump.
  AbortFlag abort_;
  CheckpointObserver checkpoint_attach_;
  FailureStatsObserver failure_attach_;
  EccAuditObserver ecc_audit_attach_;
  TraceObserver trace_attach_;
  WatchdogProgressObserver progress_attach_;
  CycleStatsObserver cycle_stats_attach_;
  FairnessObserver fairness_attach_;
  AttachmentChain attachments_;

  JobRunArena arena_;  ///< owns every live JobRun (and its cold fields)
  std::unordered_map<workload::JobId, JobRun*> by_id_;  ///< live records
  JobQueue batch_queue_;                  ///< intrusive FIFO (W^b)
  std::vector<JobRun*> dedicated_queue_;  ///< sorted by (req_start, arr)
  std::vector<JobRun*> active_;  ///< running jobs, kept sorted by
                                 ///< (planned end, id); JobRun::active_index
                                 ///< back-references positions

  // Cache keys handed to policies through SchedulerContext: the epoch is
  // process-unique per engine, the version bumps on every active-set
  // mutation (see bump_active_version callers).
  std::uint64_t run_epoch_ = 0;
  std::uint64_t active_version_ = 0;

  bool in_cycle_ = false;
  std::uint64_t cycles_ = 0;
  sim::Time first_arrival_ = 0;
  sim::Time last_finish_ = 0;
  /// Busy proc-seconds integrated up to last_finish_: the utilization
  /// numerator, exact for aborted runs whose tracker ran past it.
  double busy_at_last_finish_ = 0;

  /// The policy's view, built once in the constructor; run_cycle()
  /// refreshes `now` and `active_version` only.
  SchedulerContext ctx_;

  // Perf observability: DP counters are policy-cumulative, so run() keeps a
  // start snapshot and reports the delta.  The engine reads no clock per
  // cycle: cycle wall time is CycleStatsObserver's (collect_cycle_stats).
  DpCounters dp_baseline_;

  sim::TerminationReason termination_ = sim::TerminationReason::kCompleted;

  // The source cursor.  Every delivered job counts into jobs_pulled_ and
  // the offered-load accumulators (a replay of workload::offered_load(),
  // term for term in trace order).
  workload::JobSource* source_ = nullptr;
  bool source_exhausted_ = false;
  workload::SourceChunk chunk_;       ///< reused pull buffer
  std::size_t arrivals_pending_ = 0;  ///< scheduled, not yet fired
  std::uint64_t jobs_pulled_ = 0;
  std::uint64_t jobs_retired_ = 0;
  double offered_proc_seconds_ = 0;
  sim::Time offered_origin_ = 0;
  sim::Time offered_last_ = 0;

  /// Payloads of the scheduled, not yet fired ECC events, in firing order:
  /// sources deliver commands sorted by issue time, so ECC events fire in
  /// the order they were scheduled and the closures carry no payload.
  std::deque<workload::Ecc> pending_eccs_;

  // Running sums folded from retired jobs.  `folded_` carries the counter
  // fields (completed, killed, abandoned, goodput, max wait) and, when
  // keep_job_outcomes is set, the per-job outcome ledger.  Wasted-work
  // terms are deferred: FailureStatsObserver::on_collect *assigns* the
  // failure ledger, so per-job wasted work is replayed after it.
  struct FoldSums {
    double wait_sum = 0;
    double run_sum = 0;
    double sd_sum = 0;
    double bsd_sum = 0;
    double dedicated_delay_sum = 0;
    std::uint64_t dedicated_count = 0;
    std::uint64_t count = 0;
    std::uint64_t interruptions = 0;  ///< of retired jobs (paranoid checks)
  };
  FoldSums sums_;
  SimulationResult folded_;
  std::vector<double> deferred_wasted_;

  // Snapshot/restore machinery.  `pending_outage_` mirrors the payload of
  // the (at most one) scheduled NodeDown event — callbacks cannot
  // serialize, so the outage travels through the snapshot and the restore
  // path rebuilds the closure from it.  The fingerprint rolls over the
  // config, the policy and every job and command the source delivered; it
  // is kept only by runs that snapshot or restore.
  bool fingerprinting_ = false;
  std::uint64_t fingerprint_ = 0;
  bool has_pending_outage_ = false;
  fault::Outage pending_outage_{};
  SnapshotSink snapshot_sink_;
  std::unique_ptr<snap::SnapshotRing> ring_;
  std::uint64_t last_snapshot_cycle_ = 0;
};

/// Convenience wrapper: one-shot run.
SimulationResult simulate(const EngineConfig& config, Scheduler& policy,
                          const workload::Workload& workload);

}  // namespace es::sched
