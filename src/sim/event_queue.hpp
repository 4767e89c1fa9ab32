// Stable, cancellable priority queue of timed events.
//
// This is the core of the discrete-event kernel that replaces GridSim/ALEA in
// the original study.  Events are ordered by (time, class, insertion
// sequence); cancellation is O(1) (lazy removal on pop) which is what the
// elastic workload needs — an ET/RT command reschedules a job's completion by
// cancelling the pending finish event and inserting a new one.
//
// Storage is a slab of event records recycled through a free list.  Pending
// items are plain (time, class, seq, slot, generation) PODs; callbacks live
// in the slab and are moved in and out, so the steady-state schedule/pop
// cycle performs no heap allocation (the engine's completion lambdas fit
// std::function's small-object buffer).  Handles encode (slot, generation):
// retiring a record bumps its generation, so a stale handle — fired,
// cancelled, or pointing at a recycled slot — fails the generation match and
// cancel() returns false in O(1), with no side table of cancelled ids.
//
// Ordering structure (PR 9): a two-tier calendar queue.  The *near band* is
// a circular array of kBuckets buckets, each covering one `width_`-wide
// window of simulation time starting at `band_start_`; events landing inside
// the band are an O(1) push into their bucket, and a bucket is sorted only
// when the cursor reaches it (so each event is sorted exactly once, in a
// bucket-sized batch).  Events beyond the band horizon — checkpoint replans,
// MTBF outages, far-future finishes — fall back to the binary heap and
// migrate into the band as the cursor rotates toward them.  The migration
// invariant (every heap item lies at or beyond the band horizon) means the
// minimum is always in the band when the band is non-empty, so pops never
// compare across tiers.  Bucket width adapts to the observed event density
// (shrink when a bucket drains dense, grow after a sparse rotation), and a
// width change redistributes the band in one pass.  Both tiers order by the
// same strict (time, class, seq) total order, so enabling or disabling the
// band cannot change the pop sequence — the heap-only mode remains available
// via set_band_enabled(false) as the oracle for differential tests and
// benchmarks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace es::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// Monotonic traffic counters for one queue's lifetime.  `fired` counts
/// callbacks actually run (cancelled events never fire); `peak_pending` is
/// the high-water mark of live events.  Always: scheduled = fired +
/// cancelled + still-pending.  The band_* fields are calendar-tier
/// diagnostics (not serialized into snapshots — a restored queue restarts
/// them at zero): `band_scheduled` counts events that entered through the
/// near band, `band_migrated` counts heap items pulled into the band as the
/// cursor rotated toward them.
struct EventQueueCounters {
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t band_scheduled = 0;
  std::uint64_t band_migrated = 0;

  /// Aggregation across runs: traffic sums, the high-water mark maxes.
  EventQueueCounters& operator+=(const EventQueueCounters& other) {
    scheduled += other.scheduled;
    cancelled += other.cancelled;
    fired += other.fired;
    peak_pending = std::max(peak_pending, other.peak_pending);
    band_scheduled += other.band_scheduled;
    band_migrated += other.band_migrated;
    return *this;
  }
};

/// Snapshot view of one live (armed) event.  Callbacks cannot serialize, so
/// restore works from the semantic `tag` the scheduler attached at
/// schedule() time; `seq` is preserved so same-instant tie-breaking after
/// restore matches the original run exactly.
struct PendingEvent {
  Time time{};
  std::int32_t cls = 0;
  std::uint64_t seq = 0;
  std::uint64_t tag = 0;
};

/// Two-tier (calendar band + heap) event queue with deterministic
/// tie-breaking and lazy cancellation.
class EventQueue {
 public:
  using Callback = std::function<void(Time)>;

  /// Schedules `fn` at absolute time `at`.  Returns a handle for cancel().
  /// `tag` is an opaque caller-defined descriptor carried alongside the
  /// callback so the event can be re-established after a snapshot restore.
  EventHandle schedule(Time at, EventClass cls, Callback fn,
                       std::uint64_t tag = 0);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or the handle is invalid.
  bool cancel(EventHandle handle);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live pending events.
  std::size_t size() const { return live_; }

  /// Time of the next live event.  Precondition: !empty().
  Time next_time();

  /// Pops and runs the next live event; returns its time.
  /// Precondition: !empty().
  Time pop_and_run();

  /// Total events ever scheduled (for diagnostics / tests).
  std::uint64_t total_scheduled() const { return counters_.scheduled; }

  /// Lifetime traffic counters (see EventQueueCounters).
  const EventQueueCounters& counters() const { return counters_; }

  /// Enables/disables the calendar band (on by default; the engine always
  /// runs with it).  Off means every event goes through the binary heap —
  /// the oracle that the event-queue model test and micro_sim compare the
  /// band against.  Only valid on a queue that has never scheduled an event
  /// (the tiers do not rebalance on the fly).
  void set_band_enabled(bool enabled);
  bool band_enabled() const { return band_enabled_; }

  // --- snapshot/restore support -------------------------------------------

  /// All live events sorted by insertion sequence (a stable, deterministic
  /// serialization order).  Cancelled residue is excluded.
  std::vector<PendingEvent> pending_events() const;

  /// Re-inserts an event with its *original* sequence number during restore.
  /// Preserving seq (and restoring next_seq via restore_meta) is what makes
  /// post-restore tie-breaking — and every later schedule() — byte-identical
  /// to the uninterrupted run.  Precondition: only valid on a queue that has
  /// never allocated a sequence >= `seq` organically.
  EventHandle restore_event(Time at, EventClass cls, Callback fn,
                            std::uint64_t tag, std::uint64_t seq);

  /// Restores the sequence allocator and lifetime counters after the
  /// pending set has been re-established with restore_event().
  void restore_meta(std::uint64_t next_seq, const EventQueueCounters& counters);

  /// Next insertion sequence number (serialized into snapshots).
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  // One slab slot.  `generation` starts at 1 (so a default EventHandle or a
  // forged id with generation 0 never matches) and is bumped every time the
  // record retires — fire and cancel both invalidate outstanding handles.
  struct Record {
    Callback fn;
    std::uint64_t tag = 0;  ///< caller's restore descriptor, valid while armed
    std::uint32_t generation = 1;
  };

  // What both tiers order.  POD — pushing/popping never allocates beyond the
  // amortized vector growth, which reaches steady state.
  struct HeapItem {
    Time time;
    std::int32_t cls;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.cls != b.cls) return a.cls > b.cls;
      return a.seq > b.seq;
    }
  };

  // Calendar-band geometry.  kBuckets is a power of two so the circular
  // index is a mask; kDenseBucket is the drain-time occupancy that triggers
  // a width shrink, kSparseRotation the per-rotation pop count below which
  // the width grows.
  static constexpr std::size_t kBuckets = 512;
  static constexpr std::size_t kBucketMask = kBuckets - 1;
  static constexpr std::size_t kDenseBucket = 64;
  static constexpr std::uint64_t kSparseRotation = kBuckets / 8;

  static constexpr std::uint64_t make_id(std::uint32_t slot,
                                         std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }

  /// True when `item`'s record is still armed (not cancelled/retired).
  bool armed(const HeapItem& item) const {
    return records_[item.slot].generation == item.generation;
  }

  /// Absolute window index of time `t` under the current (origin, width)
  /// map, clamped so nothing lands behind the cursor and far-future times
  /// saturate into the heap tier.  One fixed monotone map per band epoch:
  /// every insert — whenever it happens — buckets through the same
  /// function, so bucket order can never contradict time order.
  std::uint64_t window_of(Time t) const;

  /// Routes a new item to its tier (band bucket or heap).
  void insert_item(const HeapItem& item);
  /// Places an in-band item into its bucket (sorted-insert when the cursor
  /// bucket is already draining).
  void band_insert(const HeapItem& item);
  /// Starts (or restarts) the band at `at`, keeping the adapted width.
  void anchor(Time at);
  /// Migrates every heap item below the band horizon into the band.
  void pull_from_heap();
  /// Moves the cursor to the next bucket, adapting width on a full rotation.
  void advance_cursor();
  /// Prepares the cursor bucket for draining: prunes cancelled residue,
  /// shrinks the width when the bucket drained dense, sorts.  On success
  /// cursor_sorted_ is true; otherwise the caller re-evaluates the band.
  void enter_bucket();
  /// Re-buckets the whole band after a width change (overflow re-enters the
  /// heap tier).
  void redistribute();
  /// Positions the cursor on the armed band minimum and returns its bucket.
  /// Precondition: an armed item exists somewhere in the queue.
  std::vector<HeapItem>& seek_band_min();
  /// Removes and returns the armed queue minimum.  Precondition: !empty().
  HeapItem take_next();

  /// Drops cancelled entries from the heap top.
  void skim();
  /// In-place removal of all cancelled residue from both tiers.
  void sweep();

  /// Invalidates the slot's handles and recycles it.
  void retire(std::uint32_t slot);

  std::vector<HeapItem> heap_;       // far tier: std::push_heap with Later
  std::vector<Record> records_;      // slab, indexed by slot
  std::vector<std::uint32_t> free_;  // recycled slots
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueCounters counters_;

  // Near-band state.  width_ == 0 means the band has never anchored (no
  // event scheduled yet); buckets_ is sized lazily on first anchor.  The
  // cursor bucket is buckets_[window_ & kBucketMask]; the band covers
  // absolute windows [window_, window_ + kBuckets) of the (origin_, width_)
  // map and everything at or beyond that horizon lives in the heap tier.
  bool band_enabled_ = true;
  std::vector<std::vector<HeapItem>> buckets_;
  std::vector<HeapItem> scratch_;  ///< redistribute staging, reused
  Time origin_ = 0;                ///< window 0 epoch of the current band
  Time width_ = 0;                 ///< bucket width in simulation time
  std::uint64_t window_ = 0;       ///< absolute index of the cursor bucket
  std::size_t band_count_ = 0;     ///< band items incl. cancelled residue
  bool cursor_sorted_ = false;     ///< cursor bucket sorted and draining
  std::uint64_t rotation_pops_ = 0;  ///< pops since the cursor last wrapped
};

}  // namespace es::sim
