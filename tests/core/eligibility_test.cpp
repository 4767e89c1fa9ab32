// Eligibility scans of the LOS family at a coarse allocation granularity.
//
// DelayedLos::step (Basic_DP branch) and run_reservation_dp (LOS's packing
// step, and Delayed-LOS's blocked-head branch) skip a waiting job when its
// request does not fit the free pool and weight the others in grains.  The
// scans test `num > m` against the free processors instead of rounding each
// request up first; that is exact only because `m` is a whole number of
// grains.  These tests pin the scans against a reference that rounds every
// request with SchedulerContext::alloc_of, at granularity 32 where a request
// one processor over a grain boundary costs a whole extra grain.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/machine.hpp"
#include "core/delayed_los.hpp"
#include "core/dp.hpp"
#include "core/los.hpp"
#include "sched/reservation.hpp"
#include "util/rng.hpp"

namespace es::core {
namespace {

constexpr int kGrain = 32;

/// A machine, queues and an active set wired into a SchedulerContext by
/// hand, no engine.  start() only records the job: each test runs a single
/// scan, so the queue and the machine need not change under it.
class EligibilityTest : public ::testing::Test {
 protected:
  EligibilityTest() : machine_(320, kGrain) {}

  sched::JobRun* add_waiting(workload::JobId id, int procs, double req_time) {
    auto job = std::make_unique<sched::JobRun>();
    job->id = id;
    job->num = procs;
    job->req_time = req_time;
    job->actual_time = req_time;
    batch_.push_back(job.get());
    owned_.push_back(std::move(job));
    return owned_.back().get();
  }

  /// Occupies `procs` processors until `req_time` (planned end).
  void add_active(workload::JobId id, int procs, double req_time) {
    auto job = std::make_unique<sched::JobRun>();
    job->id = id;
    job->num = procs;
    job->req_time = req_time;
    job->actual_time = req_time;
    job->status = sched::JobStatus::kRunning;
    job->start_time = 0;
    job->alloc = machine_.allocate(id, procs);
    active_.push_back(job.get());
    owned_.push_back(std::move(job));
  }

  sched::SchedulerContext context() {
    sched::SchedulerContext ctx;
    ctx.now = 0;
    ctx.machine = &machine_;
    ctx.batch = &batch_;
    ctx.dedicated = &dedicated_;
    ctx.active = &active_;
    ctx.start = [this](sched::JobRun* job) { started_.push_back(job->id); };
    return ctx;
  }

  /// The scan as the paper states it: round every request up with
  /// alloc_of, skip it when the allocation exceeds the free pool, weight
  /// the rest by allocation / granularity.  Fills `eligible`, `weights`
  /// and (against `freeze`) `shadows`.
  static void reference_scan(const sched::SchedulerContext& ctx,
                             const sched::Freeze& freeze, int lookahead,
                             std::vector<sched::JobRun*>& eligible,
                             std::vector<int>& weights,
                             std::vector<int>& shadows) {
    const int m = ctx.free();
    const int grain = ctx.machine->granularity();
    int scanned = 0;
    for (sched::JobRun* job : *ctx.batch) {
      if (scanned++ >= lookahead) break;
      const int alloc = ctx.alloc_of(*job);
      if (alloc > m) continue;
      const bool ends_before_freeze =
          ctx.now + job->estimated_duration() < freeze.fret;
      const int frenum = !freeze.active || ends_before_freeze ? 0 : alloc;
      eligible.push_back(job);
      weights.push_back(alloc / grain);
      shadows.push_back(frenum / grain);
    }
  }

  static std::vector<workload::JobId> ids_of(
      const std::vector<sched::JobRun*>& jobs) {
    std::vector<workload::JobId> ids;
    for (const sched::JobRun* job : jobs) ids.push_back(job->id);
    return ids;
  }

  /// The jobs the reference Basic_DP selection starts.
  static std::vector<workload::JobId> reference_basic(
      const sched::SchedulerContext& ctx, int lookahead) {
    std::vector<sched::JobRun*> eligible;
    std::vector<int> weights, shadows;
    reference_scan(ctx, sched::Freeze{}, lookahead, eligible, weights,
                   shadows);
    DpWorkspace ws;
    std::vector<workload::JobId> ids;
    for (int index : basic_dp(weights, ctx.free() / kGrain, ws))
      ids.push_back(eligible[static_cast<std::size_t>(index)]->id);
    return ids;
  }

  /// The jobs the reference Reservation_DP selection starts.
  static std::vector<workload::JobId> reference_reservation(
      const sched::SchedulerContext& ctx, const sched::Freeze& freeze,
      int lookahead) {
    std::vector<sched::JobRun*> eligible;
    std::vector<int> weights, shadows;
    reference_scan(ctx, freeze, lookahead, eligible, weights, shadows);
    const int shadow_cap = freeze.active ? freeze.frec / kGrain
                                         : ctx.machine->total() / kGrain;
    DpWorkspace ws;
    std::vector<workload::JobId> ids;
    for (int index : reservation_dp(weights, shadows, ctx.free() / kGrain,
                                    shadow_cap, ws))
      ids.push_back(eligible[static_cast<std::size_t>(index)]->id);
    return ids;
  }

  cluster::Machine machine_;
  std::vector<std::unique_ptr<sched::JobRun>> owned_;
  std::vector<sched::JobRun*> active_;
  sched::JobQueue batch_;
  std::vector<sched::JobRun*> dedicated_;
  std::vector<workload::JobId> started_;
};

TEST_F(EligibilityTest, DelayedLosBasicDpScanAtGranularity32) {
  add_active(1, 256, 100);  // leaves m = 64: two grains
  sched::JobRun* j33 = add_waiting(2, 33, 50);  // head, fits
  sched::JobRun* j64 = add_waiting(3, 64, 50);
  add_waiting(4, 65, 50);  // one processor too many: three grains
  sched::SchedulerContext ctx = context();
  ASSERT_EQ(ctx.free(), 64);

  DpWorkspace ws;
  ASSERT_TRUE(DelayedLos::step(ctx, 7, 50, ws, true));
  EXPECT_EQ(ws.eligible_scratch, (std::vector<sched::JobRun*>{j33, j64}));
  EXPECT_EQ(ws.weights_scratch, (std::vector<int>{2, 2}));
  EXPECT_EQ(started_.size(), 1u);  // two grains hold one of them
  EXPECT_EQ(started_, reference_basic(ctx, 50));
}

TEST_F(EligibilityTest, LosReservationDpScanAtGranularity32) {
  add_active(1, 256, 100);  // leaves m = 64 until t = 100
  add_waiting(2, 65, 500);  // blocked head: three grains
  sched::JobRun* j33 = add_waiting(3, 33, 50);   // ends before the shadow
  sched::JobRun* j64 = add_waiting(4, 64, 500);  // runs across it
  add_waiting(5, 65, 50);
  sched::SchedulerContext ctx = context();
  ASSERT_EQ(ctx.free(), 64);
  const sched::Freeze freeze =
      sched::shadow_for_blocked(ctx, ctx.alloc_of(*ctx.batch_head()));
  ASSERT_TRUE(freeze.active);
  EXPECT_DOUBLE_EQ(freeze.fret, 100);
  EXPECT_EQ(freeze.frec, 320 - 96);

  DpWorkspace ws;
  const ReservationDpOutcome outcome = run_reservation_dp(ctx, freeze, 50, ws);
  EXPECT_FALSE(outcome.head_eligible);
  EXPECT_EQ(ws.eligible_scratch, (std::vector<sched::JobRun*>{j33, j64}));
  EXPECT_EQ(ws.weights_scratch, (std::vector<int>{2, 2}));
  EXPECT_EQ(ws.shadows_scratch, (std::vector<int>{0, 2}));
  EXPECT_EQ(j33->frenum, 0);
  EXPECT_EQ(j64->frenum, 64);
  EXPECT_EQ(outcome.started, 1);
  EXPECT_EQ(started_, reference_reservation(ctx, freeze, 50));
}

TEST_F(EligibilityTest, RandomQueuesScanAsTheAllocOfReference) {
  // Requests straddling grain boundaries against every free pool size the
  // machine can have, both scans, a lookahead shorter than the queue.
  util::Rng rng(0x5eed32);
  for (int trial = 0; trial < 300; ++trial) {
    while (!batch_.empty()) batch_.erase(batch_.front());
    active_.clear();
    owned_.clear();
    started_.clear();
    machine_ = cluster::Machine(320, kGrain);
    const int busy_grains = static_cast<int>(rng.uniform_int(0, 9));
    if (busy_grains > 0) add_active(1, busy_grains * kGrain, 100);
    const int queued = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < queued; ++i) {
      const int grains = static_cast<int>(rng.uniform_int(1, 10));
      const int offset = static_cast<int>(rng.uniform_int(-1, 1));
      const int procs = std::clamp(grains * kGrain + offset, 1, 320);
      add_waiting(10 + i, procs, rng.uniform_int(0, 1) ? 50.0 : 500.0);
    }
    sched::SchedulerContext ctx = context();
    const int lookahead = 8;

    std::vector<sched::JobRun*> eligible;
    std::vector<int> weights, shadows;
    const sched::Freeze freeze{true, 100, static_cast<int>(
                                              rng.uniform_int(0, 10)) *
                                              kGrain};
    reference_scan(ctx, freeze, lookahead, eligible, weights, shadows);
    DpWorkspace ws;
    run_reservation_dp(ctx, freeze, lookahead, ws);
    ASSERT_EQ(ids_of(ws.eligible_scratch), ids_of(eligible)) << trial;
    ASSERT_EQ(ws.weights_scratch, weights) << trial;
    ASSERT_EQ(ws.shadows_scratch, shadows) << trial;
    ASSERT_EQ(started_, reference_reservation(ctx, freeze, lookahead))
        << trial;

    if (ctx.alloc_of(*ctx.batch_head()) > ctx.free()) continue;
    started_.clear();
    eligible.clear();
    weights.clear();
    shadows.clear();
    reference_scan(ctx, sched::Freeze{}, lookahead, eligible, weights,
                   shadows);
    // C_s = 100: the head's patience never runs out, so the step always
    // takes the Basic_DP branch.
    DelayedLos::step(ctx, 100, lookahead, ws, true);
    ASSERT_EQ(ids_of(ws.eligible_scratch), ids_of(eligible)) << trial;
    ASSERT_EQ(ws.weights_scratch, weights) << trial;
    ASSERT_EQ(started_, reference_basic(ctx, lookahead)) << trial;
  }
}

}  // namespace
}  // namespace es::core
