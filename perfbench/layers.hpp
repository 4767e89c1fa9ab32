// Outside-in layer timers for the traced run.
//
// Each class wraps one public interface of the simulator and forwards every
// call unchanged, timing the calls that belong to its layer with
// std::chrono::steady_clock.  Nothing here reaches inside the engine: the
// engine sees an ordinary Scheduler, JobSource and snapshot sink, so a
// traced run schedules exactly like an untraced one (perfbench.cpp checks
// this by comparing result digests).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "workload/source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Forwarding policy: times every cycle() call (the `core` layer) and
/// remembers when the last one returned, which is where the engine's
/// snapshot step starts.  Owns the wrapped policy, so the samples and the
/// policy live as long as the trace that holds them.
class TimedScheduler final : public es::sched::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<es::sched::Scheduler> inner)
      : owned_(std::move(inner)), inner_(*owned_) {}

  std::string name() const override { return inner_.name(); }

  void cycle(es::sched::SchedulerContext& ctx) override {
    const Clock::time_point start = Clock::now();
    inner_.cycle(ctx);
    last_return_ = Clock::now();
    cycle_ns_.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(last_return_ -
                                                             start)
            .count()));
  }

  bool supports_dedicated() const override {
    return inner_.supports_dedicated();
  }
  bool initiates_preemption() const override {
    return inner_.initiates_preemption();
  }
  es::sched::DpCounters dp_counters() const override {
    return inner_.dp_counters();
  }
  void set_dp_cache(bool enabled) override { inner_.set_dp_cache(enabled); }
  void set_dp_cache_slots(std::size_t slots) override {
    inner_.set_dp_cache_slots(slots);
  }
  void speculate(const es::sched::SchedulerContext& ctx) override {
    inner_.speculate(ctx);
  }
  void settle_speculation() override { inner_.settle_speculation(); }
  void finish_speculation() override { inner_.finish_speculation(); }
  void save_state(es::snap::SnapshotWriter& writer) const override {
    inner_.save_state(writer);
  }
  void restore_state(es::snap::SnapshotReader& reader) override {
    inner_.restore_state(reader);
  }

  /// Per-call durations in call order.
  const std::vector<std::uint64_t>& cycle_ns() const { return cycle_ns_; }
  Clock::time_point last_return() const { return last_return_; }

 private:
  std::unique_ptr<es::sched::Scheduler> owned_;
  es::sched::Scheduler& inner_;
  std::vector<std::uint64_t> cycle_ns_;
  Clock::time_point last_return_ = Clock::now();
};

/// Forwarding job source: times every next_chunk() call (the `workload`
/// layer's ingest) and counts the chunks it delivered.
class TimedSource final : public es::workload::JobSource {
 public:
  explicit TimedSource(es::workload::JobSource& inner) : inner_(inner) {}

  int machine_procs() const override { return inner_.machine_procs(); }
  int granularity() const override { return inner_.granularity(); }

  bool next_chunk(es::workload::SourceChunk& chunk) override {
    const Clock::time_point start = Clock::now();
    const bool more = inner_.next_chunk(chunk);
    seconds_ += seconds_between(start, Clock::now());
    if (more) ++chunks_;
    return more;
  }

  double seconds() const { return seconds_; }
  std::uint64_t chunks() const { return chunks_; }

 private:
  es::workload::JobSource& inner_;
  double seconds_ = 0;
  std::uint64_t chunks_ = 0;
};

/// Snapshot sink tap (the `snap` layer): counts the images the engine hands
/// to its sink and their bytes, and charges each save from the return of
/// the cycle before it (the engine snapshots between events, right after a
/// cycle) to the sink call.
class SnapshotTap {
 public:
  explicit SnapshotTap(const TimedScheduler& policy) : policy_(policy) {}

  void record(const std::string& image) {
    save_seconds_ += seconds_between(policy_.last_return(), Clock::now());
    ++images_;
    bytes_ += image.size();
  }

  std::uint64_t images() const { return images_; }
  std::uint64_t bytes() const { return bytes_; }
  double save_seconds() const { return save_seconds_; }

 private:
  const TimedScheduler& policy_;
  std::uint64_t images_ = 0;
  std::uint64_t bytes_ = 0;
  double save_seconds_ = 0;
};

}  // namespace perfbench
