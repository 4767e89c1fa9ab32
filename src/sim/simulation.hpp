// Simulation driver: a monotonically advancing clock over an EventQueue.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace es::sim {

/// Owns the clock and the event queue and exposes the scheduling primitives
/// the engine layers use.  The clock never moves backwards; scheduling an
/// event in the past is a contract violation.
class Simulation {
 public:
  Time now() const { return now_; }

  /// Schedules an event at absolute time `at` (>= now()).  `tag` is an
  /// opaque descriptor used to re-establish the event after a snapshot
  /// restore (see EventQueue::schedule).
  EventHandle at(Time when, EventClass cls, EventQueue::Callback fn,
                 std::uint64_t tag = 0);

  /// Schedules an event `delay` seconds from now (delay >= 0).
  EventHandle after(Time delay, EventClass cls, EventQueue::Callback fn,
                    std::uint64_t tag = 0);

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventHandle handle) { return queue_.cancel(handle); }

  /// Runs events until the queue is empty.  Returns the number processed.
  std::uint64_t run();

  /// Runs events with time <= horizon.  The clock is advanced to at most the
  /// last processed event (it does not jump to the horizon).
  std::uint64_t run_until(Time horizon);

  /// Processes exactly one event if any is pending.  Returns true if one ran.
  bool step();

  bool idle() const { return queue_.empty(); }
  /// Time of the next live event.  Precondition: !idle().  Non-const: the
  /// queue may skim lazily cancelled entries off its top.
  Time next_event_time() { return queue_.next_time(); }
  std::uint64_t events_processed() const { return processed_; }
  const EventQueue& queue() const { return queue_; }

  // --- snapshot/restore support -------------------------------------------

  /// Sets the clock and processed-event count from a snapshot.  Only valid
  /// while re-establishing state on a fresh simulation.
  void restore_clock(Time now, std::uint64_t processed) {
    now_ = now;
    processed_ = processed;
  }

  /// Re-inserts a pending event with its original sequence number; see
  /// EventQueue::restore_event.
  EventHandle restore_event(Time at, EventClass cls, EventQueue::Callback fn,
                            std::uint64_t tag, std::uint64_t seq) {
    return queue_.restore_event(at, cls, std::move(fn), tag, seq);
  }

  /// Restores the queue's sequence allocator and counters; see
  /// EventQueue::restore_meta.
  void restore_queue_meta(std::uint64_t next_seq,
                          const EventQueueCounters& counters) {
    queue_.restore_meta(next_seq, counters);
  }

 private:
  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t processed_ = 0;
};

}  // namespace es::sim
