"""Batched DRAM service kernel.

The seed controller serviced exactly one request per simulation event: fire,
pick, issue, schedule the next service event, return to the heap.  The
:class:`ServiceKernel` keeps the *decisions* identical but batches the
*mechanics*: inside one service callback it keeps issuing requests for as
long as it can prove that the per-request path would not have fired any other
event in between.  The proof is a heap peek -- if the next pending engine
event is strictly later than the next scheduling decision, the kernel is the
next event anyway, so it advances the clock directly
(:meth:`~repro.sim.engine.SimulationEngine.advance_to`, the event-free drain
fast path) and services the next request without a heap round-trip.

Per-request finish times are computed analytically by the DDR4 channel model
(:meth:`~repro.dram.channel.DdrChannel.access`, with its validation skipped
for kernel-originated addresses and a branch-free same-row hit path); the
kernel only schedules the completion callbacks, which must interleave with
foreign events at their exact times.

Setting ``batching=False`` restores the one-event-per-request behaviour of
the seed -- the equivalence test suite runs both modes and asserts identical
finish times and stats.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.dram.channel import DdrChannel
from repro.memctrl.policies import FrFcfsPolicy, SchedulerPolicy
from repro.memctrl.queues import IndexedQueue
from repro.sim.config import MemCtrlConfig
from repro.sim.engine import SimulationEngine, ns_to_ticks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memctrl.controller import ChannelController


class ServiceKernel:
    """Issues queued requests to one DDR channel under a scheduler policy."""

    __slots__ = (
        "engine",
        "channel",
        "config",
        "policy",
        "controller",
        "batching",
        "_service_pending",
        "_next_decision_ns",
        "_drain_mode",
        "_policy_on_remove",
        "_frfcfs_fast",
    )

    def __init__(
        self,
        engine: SimulationEngine,
        channel: DdrChannel,
        config: MemCtrlConfig,
        policy: SchedulerPolicy,
        controller: "ChannelController",
        batching: bool = True,
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.config = config
        self.policy = policy
        self.controller = controller
        self.batching = batching
        self._service_pending = False
        self._next_decision_ns = 0.0
        self._drain_mode = False
        self._policy_on_remove = (
            policy.on_remove
            if type(policy).on_remove is not SchedulerPolicy.on_remove
            else None
        )
        # The default FR-FCFS pick is inlined in the service loop (one less
        # dynamic dispatch per request); any other policy goes through select.
        self._frfcfs_fast = type(policy) is FrFcfsPolicy

    # ------------------------------------------------------------- scheduling
    @property
    def drain_mode(self) -> bool:
        return self._drain_mode

    @property
    def service_pending(self) -> bool:
        return self._service_pending

    def schedule_service(self) -> None:
        """Arm the service callback if work is pending and it is not armed."""
        if self._service_pending:
            return
        controller = self.controller
        if not controller._read_queue and not controller._write_queue:
            return
        self._service_pending = True
        when = self._next_decision_ns
        now = self.engine._now
        if when < now:
            when = now
        self.engine.schedule_callback(when, self._service)

    # -------------------------------------------------------------- servicing
    def _service(self) -> None:
        """Service one request -- and, when provably safe, a whole burst."""
        self._service_pending = False
        engine = self.engine
        channel = self.channel
        controller = self.controller
        policy = self.policy
        batching = self.batching
        access = channel.access
        schedule_cb = engine.schedule_callback
        finish = controller._finish
        frfcfs_fast = self._frfcfs_fast
        on_remove = self._policy_on_remove
        read_queue = controller._read_queue
        write_queue = controller._write_queue
        config = self.config
        scan_prefix = IndexedQueue.SCAN_PREFIX
        served = controller._served
        row_hits = controller._row_hit_counter
        read_bw = controller._read_bw
        write_bw = controller._write_bw
        while True:
            # Inlined _pick_queue (write-drain watermark logic).
            writes = len(write_queue._pending)
            if self._drain_mode:
                if writes <= config.write_low_watermark:
                    self._drain_mode = False
            elif writes >= config.write_high_watermark:
                self._drain_mode = True
            if self._drain_mode and writes:
                queue = write_queue
            elif read_queue._pending:
                queue = read_queue
            elif writes:
                queue = write_queue
            else:
                return
            if frfcfs_fast:
                # Inlined head of IndexedQueue.oldest_hit: hit-rich traffic
                # resolves within the first SCAN_PREFIX queued requests;
                # otherwise the hit heads answer without a second prefix scan.
                banks = channel._banks
                request = None
                scanned = 0
                for candidate in queue._pending.values():
                    bank_key, row = candidate._bank_row
                    state = banks.get(bank_key)
                    if state is not None and state.open_row == row:
                        request = candidate
                        break
                    scanned += 1
                    if scanned >= scan_prefix:
                        break
                if request is None:
                    if len(queue._pending) <= scanned:
                        request = queue.first()
                    else:
                        request = queue.indexed_hit(channel) or queue.first()
            else:
                request = policy.select(queue, channel)
            queue.remove(request)
            if on_remove is not None:
                on_remove(request)
            is_write = request.is_write
            timing = access(request.dram_addr, is_write, engine._now, True)
            cas = timing.cas_time
            data_end = timing.data_end
            request.issue_ns = cas
            request.row_state = timing.row_state
            # Inlined _account_issue (incl. BandwidthTracker.record).
            served.value += 1
            if timing.row_state == "hit":
                row_hits.value += 1
            tracker = write_bw if is_write else read_bw
            size = request.size_bytes
            tracker.total_bytes += size
            if tracker.first_time_ns is None or data_end < tracker.first_time_ns:
                tracker.first_time_ns = data_end
            if tracker.last_time_ns is None or data_end > tracker.last_time_ns:
                tracker.last_time_ns = data_end
            tracker._events.append((data_end, size))
            schedule_cb(data_end, partial(finish, request, data_end))
            if controller._slot_listeners:
                controller._notify_slot_listeners()
            now = engine._now
            next_decision = cas if cas > now else now
            self._next_decision_ns = next_decision
            if self._service_pending:
                # A slot listener re-armed the service mid-issue (with the
                # pre-issue decision time, exactly like the seed's
                # ``_schedule_service`` guard); defer to that event.
                return
            if not read_queue._pending and not write_queue._pending:
                return
            if batching:
                ticks = ns_to_ticks(next_decision)
                until = engine._until_ticks
                if until is not None and ticks > until:
                    # An in-progress run(until=...) must stop at its horizon:
                    # schedule the service event instead of advancing past it.
                    self._service_pending = True
                    engine._push_callback(ticks, next_decision, self._service)
                    return
                # Inlined peek: the heap head is almost never a cancelled
                # event; fall back to the engine's cancelled-popping peek
                # only when it is.
                heap = engine._queue
                if heap:
                    head = heap[0]
                    if len(head) == 4 or not head[2].cancelled:
                        peek = head[0]
                    else:
                        peek = engine.peek_next_ticks()
                else:
                    peek = None
                if peek is None or ticks < peek:
                    # Event-free drain fast path: the per-request path would
                    # have scheduled a service event at ``next_decision`` and
                    # popped it straight back -- skip the heap round-trip.
                    # Safety is established by the peek, so the clock moves
                    # directly (the engine-checked advance_to would re-peek).
                    engine._now = next_decision
                    engine._now_ticks = ticks
                    continue
                self._service_pending = True
                engine._push_callback(ticks, next_decision, self._service)
                return
            self._service_pending = True
            schedule_cb(next_decision, self._service)
            return

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Reset scheduling state to power-on (kernel must be idle)."""
        self._drain_mode = False
        self._next_decision_ns = 0.0
        self._service_pending = False
        self.policy.reset()


__all__ = ["ServiceKernel"]
