"""Struct-of-arrays DRAM service kernel (``MemCtrlConfig.kernel = "soa"``).

The object kernel (:class:`~repro.memctrl.kernel.ServiceKernel`) already
batches *scheduling* -- it issues whole bursts inside one simulation event
when a heap peek proves no other event intervenes -- but it still pays
per-request Python mechanics on every issue: a ``functools.partial`` plus a
heap push for the completion, a heap pop and dispatch when it fires, and
per-request counter/tracker updates.  The SoA kernel keeps the *decisions*
(and therefore every float computed and every event ordering) identical while
turning those mechanics into columns:

* **Deferred completion columns.**  Issued requests append one
  ``(ticks, sequence, finish_ns, request)`` row to a pending-completions
  list instead of entering the engine heap individually.  Engine sequence
  numbers are still *reserved* per completion at issue time, so same-tick
  ordering against foreign events is reproduced exactly.  A single *flush*
  heap entry -- keyed by the head row's reserved ``(ticks, sequence)``, i.e.
  exactly the key the object kernel's first completion event would have --
  represents the whole column in the heap.  When it fires, the flush drains
  completions for as long as the heap head proves no foreign event comes
  first (the same proof the service loop uses), re-arming itself otherwise.
  Finish times on one channel are strictly increasing and sequences are
  allocated in issue order, so the deque is always sorted and its head is
  always the earliest pending completion.
* **Bulk issue-side statistics.**  Served/row-hit counters and
  bandwidth-tracker rows accumulate in locals and flush at the service
  loop's exit points (and before slot listeners run, the only place foreign
  code can observe the controller mid-loop).
* **Inlined timing arithmetic.**  The DDR4 column-access arithmetic of
  :meth:`~repro.dram.channel.DdrChannel.access` is transcribed into the
  loop with bank/rank lookups cached across consecutive same-bank picks.
  Every float operation is performed in the same order on the same values,
  so the computed times are bit-identical; the rare refresh-due case
  delegates to the channel's generic path.

``engine.events_fired`` counts one fired event per *delivered* completion in
both kernels (the flush drain increments it for rows it delivers without a
heap round-trip), so ``repro bench`` events/sec stays comparable across
kernels.

Correctness is enforced by ``tests/differential/`` (property-based SoA ==
object comparison plus a pure-Python single-bank timing oracle) and by
regenerating every committed ``results/`` table under ``kernel=soa``.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.dram.bank import BankState
from repro.memctrl.kernel import ServiceKernel
from repro.memctrl.queues import IndexedQueue
from repro.sim.engine import ns_to_ticks


class SoaServiceKernel(ServiceKernel):
    """Burst-issuing kernel over completion columns; bit-identical decisions."""

    __slots__ = (
        "_pending_completions",
        "_flush_armed",
        "_read_rows",
        "_write_rows",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Sorted rows of (ticks, reserved sequence, finish_ns, request).
        self._pending_completions = []
        self._flush_armed = False
        # Reused (data_end, size) row buffers for the bandwidth trackers;
        # emptied by _commit, so one allocation serves every service call.
        self._read_rows = []
        self._write_rows = []

    # -------------------------------------------------------------- completion
    def _flush(self) -> None:
        """Deliver the head completion and drain successors while provably next.

        Fired as a heap event carrying the head row's reserved sequence; the
        engine has already advanced the clock to the head's finish time.
        After each delivery the next row is delivered without a heap
        round-trip iff its ``(ticks, sequence)`` precedes the live heap head
        (and the ``run(until=...)`` horizon allows it) -- precisely when the
        object kernel's per-request completion event would have been popped
        next anyway.
        """
        self._flush_armed = False
        pending = self._pending_completions
        if not pending:  # reset() raced a stale flush entry; nothing to do
            return
        engine = self.engine
        finish = self.controller._finish
        heap = engine._queue
        index = 0
        count = len(pending)
        try:
            while True:
                row = pending[index]
                index += 1
                finish(row[3], row[2])
                if index >= count:
                    return
                nticks, nseq, ntime, _ = pending[index]
                until = engine._until_ticks
                if until is not None and nticks > until:
                    heappush(heap, (nticks, nseq, ntime, self._flush))
                    self._flush_armed = True
                    return
                # Pop cancelled events off the heap top, then compare the
                # live head against the next completion's reserved key.
                while heap:
                    head = heap[0]
                    if len(head) == 4 or not head[2].cancelled:
                        break
                    heappop(heap)
                    head[2]._engine = None
                    engine._cancelled_pending -= 1
                if heap:
                    head = heap[0]
                    if head[0] < nticks or (
                        head[0] == nticks and head[1] < nseq
                    ):
                        heappush(heap, (nticks, nseq, ntime, self._flush))
                        self._flush_armed = True
                        return
                engine._now = ntime
                engine._now_ticks = nticks
                engine.events_fired += 1
        finally:
            del pending[:index]

    # -------------------------------------------------------------- servicing
    def _commit(
        self,
        last_cas_channel,
        last_read_cas,
        last_write_data_end,
        bus_free_time,
        busy_data_ns,
        served_delta,
        row_hit_delta,
        read_rows,
        read_bytes,
        write_rows,
        write_bytes,
    ) -> None:
        """Write mirrored channel timing state and bulk stats back.

        A plain method (not a closure over the service loop's locals): closing
        over them would turn every hot-loop variable into a cell variable and
        slow each iteration down.  Called once per service-loop exit.
        """
        channel = self.channel
        controller = self.controller
        channel._last_cas_channel = last_cas_channel
        channel._last_read_cas = last_read_cas
        channel._last_write_data_end = last_write_data_end
        channel.bus_free_time = bus_free_time
        channel.busy_data_ns = busy_data_ns
        if served_delta:
            controller._served.value += served_delta
        if row_hit_delta:
            controller._row_hit_counter.value += row_hit_delta
        if read_rows:
            tracker = controller._read_bw
            tracker.total_bytes += read_bytes
            first = read_rows[0][0]
            last = read_rows[-1][0]
            if tracker.first_time_ns is None or first < tracker.first_time_ns:
                tracker.first_time_ns = first
            if tracker.last_time_ns is None or last > tracker.last_time_ns:
                tracker.last_time_ns = last
            tracker._events.extend(read_rows)
            del read_rows[:]
        if write_rows:
            tracker = controller._write_bw
            tracker.total_bytes += write_bytes
            first = write_rows[0][0]
            last = write_rows[-1][0]
            if tracker.first_time_ns is None or first < tracker.first_time_ns:
                tracker.first_time_ns = first
            if tracker.last_time_ns is None or last > tracker.last_time_ns:
                tracker.last_time_ns = last
            tracker._events.extend(write_rows)
            del write_rows[:]

    def _service(self) -> None:  # noqa: C901 - transcribed hot loop
        """Service a burst: object-kernel decisions over SoA mechanics."""
        self._service_pending = False
        engine = self.engine
        channel = self.channel
        controller = self.controller
        policy = self.policy
        batching = self.batching
        config = self.config
        timing = channel.timing
        finish = controller._finish
        frfcfs_fast = self._frfcfs_fast
        on_remove = self._policy_on_remove
        read_queue = controller._read_queue
        write_queue = controller._write_queue
        scan_prefix = IndexedQueue.SCAN_PREFIX
        pending = self._pending_completions
        heap = engine._queue
        banks = channel._banks
        ranks = channel._ranks
        row_watchers = channel._row_watchers

        # Hoisted timing constants (read-only).
        tCCD_S = timing.tCCD_S
        tCCD_L = timing.tCCD_L
        tRTW = timing.tRTW
        tWTR_L = timing.tWTR_L
        tCWL = timing.tCWL
        tCL = timing.tCL
        tBL = timing.tBL
        tRTP = timing.tRTP
        tWR = timing.tWR

        # Channel timing state mirrored into locals for the loop, written
        # back at every exit (no foreign code runs while they are stale).
        last_cas_bankgroup = channel._last_cas_bankgroup
        last_cas_channel = channel._last_cas_channel
        last_read_cas = channel._last_read_cas
        last_write_data_end = channel._last_write_data_end
        bus_free_time = channel.bus_free_time
        busy_data_ns = channel.busy_data_ns

        # Issue-side statistics accumulated in bulk (row buffers are reused
        # instance lists; _commit empties them).
        commit = self._commit
        served_delta = 0
        row_hit_delta = 0
        read_rows = self._read_rows
        write_rows = self._write_rows
        read_bytes = 0
        write_bytes = 0

        # Per-bank lookup cache across consecutive picks.
        cached_key = -1
        cached_bank = None

        now = engine._now

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
                commit(
                    last_cas_channel,
                    last_read_cas,
                    last_write_data_end,
                    bus_free_time,
                    busy_data_ns,
                    served_delta,
                    row_hit_delta,
                    read_rows,
                    read_bytes,
                    write_rows,
                    write_bytes,
                )
                return
            if frfcfs_fast:
                # Inlined head of IndexedQueue.oldest_hit (see ServiceKernel).
                request = None
                scanned = 0
                for candidate in queue._pending.values():
                    bank_key, crow = candidate._bank_row
                    state = banks.get(bank_key)
                    if state is not None and state.open_row == crow:
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

            # ---- inlined DdrChannel.access(addr, is_write, now, True) ----
            addr = request.dram_addr
            key, row = request._bank_row
            if key == cached_key:
                bank = cached_bank
            else:
                bank = banks.get(key)
                if bank is None:
                    bank = banks[key] = BankState()
                cached_key = key
                cached_bank = bank
            addr_rank = addr.rank
            rank = ranks[addr_rank]
            if now >= rank.next_refresh_due:
                # Rare refresh-due path: mirror state back and delegate the
                # whole access to the channel's generic implementation.
                channel._last_cas_channel = last_cas_channel
                channel._last_read_cas = last_read_cas
                channel._last_write_data_end = last_write_data_end
                channel.bus_free_time = bus_free_time
                channel.busy_data_ns = busy_data_ns
                timing_out = channel.access(addr, is_write, now, True)
                cas = timing_out.cas_time
                data_end = timing_out.data_end
                row_state = timing_out.row_state
                last_cas_channel = channel._last_cas_channel
                last_read_cas = channel._last_read_cas
                last_write_data_end = channel._last_write_data_end
                bus_free_time = channel.bus_free_time
                busy_data_ns = channel.busy_data_ns
            else:
                open_row = bank.open_row
                if open_row is None:
                    row_state = "closed"
                    bank.row_misses += 1
                    candidate = now
                elif open_row == row:
                    row_state = "hit"
                    bank.row_hits += 1
                else:
                    row_state = "conflict"
                    bank.row_conflicts += 1
                    candidate = bank.precharge(now, timing)
                if row_state != "hit":
                    act_candidate = rank.earliest_activate(
                        max(candidate, bank.ready_act), same_bankgroup=False
                    )
                    act_time = bank.activate(act_candidate, row, timing)
                    rank.record_activate(act_time)
                    for dirty in row_watchers:
                        dirty.add(key)

                bg_key = addr_rank * channel._bankgroups_per_rank + addr.bankgroup
                last_bg = last_cas_bankgroup.get(bg_key)
                constraint = last_cas_channel + tCCD_S
                if last_bg is not None:
                    bg_constraint = last_bg + tCCD_L
                    if bg_constraint > constraint:
                        constraint = bg_constraint
                if is_write:
                    turnaround = last_read_cas + tRTW
                    latency = tCWL
                else:
                    turnaround = last_write_data_end + tWTR_L
                    latency = tCL
                if turnaround > constraint:
                    constraint = turnaround
                bus_bound = bus_free_time - latency
                if bus_bound > constraint:
                    constraint = bus_bound

                cas = max(now, bank.ready_cas, constraint)
                data_start = cas + latency
                if bus_free_time > data_start:
                    data_start = bus_free_time
                data_end = data_start + tBL

                if last_bg is None or cas > last_bg:
                    last_cas_bankgroup[bg_key] = cas
                if cas > last_cas_channel:
                    last_cas_channel = cas
                if is_write:
                    if data_end > last_write_data_end:
                        last_write_data_end = data_end
                    # Inlined BankState.record_write.
                    wr_ready = data_end + tWR
                    if wr_ready > bank.ready_pre:
                        bank.ready_pre = wr_ready
                else:
                    if cas > last_read_cas:
                        last_read_cas = cas
                    # Inlined BankState.record_read.
                    rd_ready = cas + tRTP
                    if rd_ready > bank.ready_pre:
                        bank.ready_pre = rd_ready
                bus_free_time = data_end
                busy_data_ns += tBL
            # ---- end inlined access ----

            request.issue_ns = cas
            request.row_state = row_state
            served_delta += 1
            if row_state == "hit":
                row_hit_delta += 1
            size = request.size_bytes
            if is_write:
                write_bytes += size
                write_rows.append((data_end, size))
            else:
                read_bytes += size
                read_rows.append((data_end, size))

            # Reserve the completion's engine sequence (exactly one per
            # completion, at the same allocation point as the object
            # kernel's schedule_callback) and append its column row.
            sequence = engine._sequence
            engine._sequence = sequence + 1
            end_ticks = ns_to_ticks(data_end)
            pending.append((end_ticks, sequence, data_end, request))
            if not self._flush_armed:
                heappush(heap, (end_ticks, sequence, data_end, self._flush))
                self._flush_armed = True

            if controller._slot_listeners:
                commit(
                    last_cas_channel,
                    last_read_cas,
                    last_write_data_end,
                    bus_free_time,
                    busy_data_ns,
                    served_delta,
                    row_hit_delta,
                    read_rows,
                    read_bytes,
                    write_rows,
                    write_bytes,
                )
                served_delta = 0
                row_hit_delta = 0
                read_bytes = 0
                write_bytes = 0
                last_cas_channel = channel._last_cas_channel
                last_read_cas = channel._last_read_cas
                last_write_data_end = channel._last_write_data_end
                bus_free_time = channel.bus_free_time
                busy_data_ns = channel.busy_data_ns
                controller._notify_slot_listeners()
            next_decision = cas if cas > now else now
            self._next_decision_ns = next_decision
            if self._service_pending:
                # A slot listener re-armed the service mid-issue; defer to
                # that event (see ServiceKernel._service).
                commit(
                    last_cas_channel,
                    last_read_cas,
                    last_write_data_end,
                    bus_free_time,
                    busy_data_ns,
                    served_delta,
                    row_hit_delta,
                    read_rows,
                    read_bytes,
                    write_rows,
                    write_bytes,
                )
                return
            if not read_queue._pending and not write_queue._pending:
                commit(
                    last_cas_channel,
                    last_read_cas,
                    last_write_data_end,
                    bus_free_time,
                    busy_data_ns,
                    served_delta,
                    row_hit_delta,
                    read_rows,
                    read_bytes,
                    write_rows,
                    write_bytes,
                )
                return
            if batching:
                ticks = ns_to_ticks(next_decision)
                until = engine._until_ticks
                if until is not None and ticks > until:
                    self._service_pending = True
                    commit(
                        last_cas_channel,
                        last_read_cas,
                        last_write_data_end,
                        bus_free_time,
                        busy_data_ns,
                        served_delta,
                        row_hit_delta,
                        read_rows,
                        read_bytes,
                        write_rows,
                        write_bytes,
                    )
                    engine._push_callback(ticks, next_decision, self._service)
                    return
                if heap:
                    head = heap[0]
                    if len(head) == 4 or not head[2].cancelled:
                        peek = head[0]
                    else:
                        peek = engine.peek_next_ticks()
                else:
                    peek = None
                if peek is None or ticks < peek:
                    engine._now = next_decision
                    engine._now_ticks = ticks
                    now = next_decision
                    continue
                self._service_pending = True
                commit(
                    last_cas_channel,
                    last_read_cas,
                    last_write_data_end,
                    bus_free_time,
                    busy_data_ns,
                    served_delta,
                    row_hit_delta,
                    read_rows,
                    read_bytes,
                    write_rows,
                    write_bytes,
                )
                engine._push_callback(ticks, next_decision, self._service)
                return
            self._service_pending = True
            commit(
                last_cas_channel,
                last_read_cas,
                last_write_data_end,
                bus_free_time,
                busy_data_ns,
                served_delta,
                row_hit_delta,
                read_rows,
                read_bytes,
                write_rows,
                write_bytes,
            )
            engine.schedule_callback(next_decision, self._service)
            return

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        super().reset()
        self._pending_completions.clear()
        self._flush_armed = False


__all__ = ["SoaServiceKernel"]
