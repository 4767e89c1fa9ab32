#include "core/los.hpp"

#include <vector>

#include "sched/easy.hpp"  // move_due_dedicated
#include "util/check.hpp"

namespace es::core {

ReservationDpOutcome run_reservation_dp(sched::SchedulerContext& ctx,
                                        const sched::Freeze& freeze,
                                        int lookahead, DpWorkspace& ws) {
  ReservationDpOutcome outcome;
  const int grain = ctx.machine->granularity();
  const int m = ctx.free();
  ES_ASSERT(m % grain == 0);

  // Eligible = first `lookahead` queue jobs that fit the free pool.
  // Workspace scratch: the scan runs every cycle and must not allocate.
  // `m` is whole grains, so a request fits (alloc_of <= m) exactly when
  // num <= m: jobs that do not fit are skipped without a division.
  std::vector<sched::JobRun*>& eligible = ws.eligible_scratch;
  std::vector<int>& weights = ws.weights_scratch;
  std::vector<int>& shadow_weights = ws.shadows_scratch;
  eligible.clear();
  weights.clear();
  shadow_weights.clear();
  int scanned = 0;
  for (sched::JobRun* job : *ctx.batch) {
    if (scanned++ >= lookahead) break;
    if (job->num > m) continue;
    const int grains = ctx.machine->grains_for(job->num);
    // The paper's frenum (Algorithm 1 line 16): a job whose estimate ends
    // strictly before the freeze end time needs no shadow capacity.
    const bool needs_shadow =
        freeze.active && !(ctx.now + job->estimated_duration() < freeze.fret);
    job->frenum = needs_shadow ? grains * grain : 0;
    eligible.push_back(job);
    weights.push_back(grains);
    shadow_weights.push_back(needs_shadow ? grains : 0);
  }
  sched::JobRun* head = ctx.batch_head();
  outcome.head_eligible =
      !eligible.empty() && !ctx.batch->empty() && eligible.front() == head;

  const int shadow_cap = freeze.active ? freeze.frec / grain
                                       : ctx.machine->total() / grain;
  const auto selected =
      reservation_dp(weights, shadow_weights, m / grain, shadow_cap, ws);

  for (int index : selected) {
    sched::JobRun* job = eligible[static_cast<std::size_t>(index)];
    if (job == head) outcome.head_selected = true;
    ctx.start(job);
    ++outcome.started;
  }
  return outcome;
}

void Los::cycle(sched::SchedulerContext& ctx) {
  if (dedicated_aware_) sched::move_due_dedicated(ctx);

  for (;;) {
    sched::Freeze ded;
    if (dedicated_aware_ && ctx.dedicated_head()) {
      ES_ASSERT(ctx.dedicated_head()->req_start > ctx.now);
      ded = sched::dedicated_freeze(ctx);
    }

    // LOS's aggressive head rule: start the head right away while it fits
    // (and, in -D mode, does not trample a dedicated reservation — unless it
    // is itself a due dedicated job).
    bool any_started = false;
    while (sched::JobRun* head = ctx.batch_head()) {
      const int alloc = ctx.alloc_of(*head);
      if (alloc > ctx.free()) break;
      if (!head->forced_priority && !respects(ded, ctx.now, *head, alloc))
        break;
      consume(ded, ctx.now, *head, alloc);
      ctx.start(head);
      any_started = true;
    }
    sched::JobRun* head = ctx.batch_head();
    if (head == nullptr) return;

    // Head blocked: reserve for it (or, in -D mode with a pending dedicated
    // group, for that group — Hybrid-LOS structure) and pack around the
    // reservation.  A head larger than the in-service capacity (nodes down)
    // gets no shadow: the DP packs without a reservation until repair.
    sched::Freeze binding = ded;
    if (!binding.active) {
      const int head_alloc = ctx.alloc_of(*head);
      ES_ASSERT(head_alloc > ctx.free());
      if (head_alloc <= ctx.machine->available())
        binding = sched::shadow_for_blocked(ctx, head_alloc);
    }
    const auto outcome = run_reservation_dp(ctx, binding, lookahead_, ws_);
    if (outcome.started == 0 && !any_started) return;
    if (outcome.started == 0) {
      // Heads were started but the DP found nothing further; re-looping
      // cannot make progress because capacity only shrank.
      return;
    }
  }
}

}  // namespace es::core
