"""Channel controller: queue/admission front-end over the batched service kernel.

Since PR 4 the controller is split in two layers:

* :class:`ChannelController` (this module) is the **admission front-end**: it
  enforces queue depths, stamps arrival metadata, maintains the indexed
  read/write queues (:class:`~repro.memctrl.queues.IndexedQueue`), wakes
  producers parked by a refused enqueue and owns the per-channel statistics.
* :class:`~repro.memctrl.kernel.ServiceKernel` makes the scheduling decisions
  and issues column accesses through the DDR4 channel model, batching whole
  bursts of requests into one simulation event whenever the event order
  provably allows it.

The scheduling *policy* (FR-FCFS by default) is pluggable: the
``MemCtrlConfig.policy`` spec string selects one of the registered
:mod:`repro.memctrl.policies`.

The event-level behaviour is bit-identical to the seed's one-event-per-request
controller; the equivalence suite (``tests/test_kernel_equivalence.py``)
asserts it across design points, policies and traffic shapes.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.dram.channel import DdrChannel
from repro.memctrl.kernel import ServiceKernel
from repro.memctrl.policies import create_policy
from repro.memctrl.queues import IndexedQueue
from repro.memctrl.request import MemoryRequest
from repro.sim.config import MemCtrlConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry


class ChannelController:
    """One per-channel memory controller (Table I: 64-entry queues, FR-FCFS)."""

    def __init__(
        self,
        engine: SimulationEngine,
        channel: DdrChannel,
        config: MemCtrlConfig,
        stats: StatsRegistry,
        name: str,
        batching: bool = True,
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.config = config
        self.stats = stats
        self.name = name
        self._read_queue = IndexedQueue()
        self._write_queue = IndexedQueue()
        self._next_seq = 0
        self._slot_listeners: List[Callable[[], None]] = []
        self.policy = create_policy(config.policy)
        # Elide per-request hook calls for policies that keep no queue-side
        # state (the base-class hooks are no-ops).
        from repro.memctrl.policies import SchedulerPolicy as _Base

        self._policy_on_enqueue = (
            self.policy.on_enqueue
            if type(self.policy).on_enqueue is not _Base.on_enqueue
            else None
        )
        self.kernel = ServiceKernel(
            engine, channel, config, self.policy, self, batching=batching
        )
        self._read_bw = stats.bandwidth_tracker(f"{name}/read")
        self._write_bw = stats.bandwidth_tracker(f"{name}/write")
        self._served = stats.counter(f"{name}/served")
        self._row_hit_counter = stats.counter(f"{name}/row_hits")
        self._latency_hist = stats.histogram(f"{name}/latency_ns")
        # Bound method, hot path: one latency sample per completed request.
        # Histogram.reset() clears the list in place, so the binding survives
        # stats resets.
        self._latency_append = self._latency_hist._samples.append

    # --------------------------------------------------------------- queueing
    @property
    def read_queue_occupancy(self) -> int:
        return len(self._read_queue)

    @property
    def write_queue_occupancy(self) -> int:
        return len(self._write_queue)

    def can_accept(self, is_write: bool) -> bool:
        if is_write:
            return len(self._write_queue) < self.config.write_queue_depth
        return len(self._read_queue) < self.config.read_queue_depth

    def enqueue(
        self, request: MemoryRequest, wake: Optional[Callable[[], None]] = None
    ) -> bool:
        """Accept ``request`` if the target queue has room; schedule servicing.

        A refusal parks ``wake`` (when given) as a one-shot callback fired the
        next time a queue slot frees: refusal and parking are one step.
        """
        if request.is_write:
            queue = self._write_queue
            if len(queue) >= self.config.write_queue_depth:
                if wake is not None:
                    self._slot_listeners.append(wake)
                return False
        else:
            queue = self._read_queue
            if len(queue) >= self.config.read_queue_depth:
                if wake is not None:
                    self._slot_listeners.append(wake)
                return False
        channel = self.channel
        request.arrival_ns = self.engine._now
        request.channel_id = channel.channel_id
        addr = request.dram_addr
        seq = self._next_seq
        self._next_seq = seq + 1
        request._seq = seq
        bank_key = (
            addr.rank * channel._banks_per_rank
            + addr.bankgroup * channel._banks_per_group
            + addr.bank
        )
        request._bank_row = (bank_key, addr.row)
        # Inlined IndexedQueue.add (one call per accepted request otherwise).
        queue._pending[seq] = request
        if queue._indexed:
            queue._index_add(request)
        if self._policy_on_enqueue is not None:
            self._policy_on_enqueue(request)
        kernel = self.kernel
        if not kernel._service_pending:
            kernel.schedule_service()
        return True

    def _notify_slot_listeners(self) -> None:
        if not self._slot_listeners:
            return
        listeners, self._slot_listeners = self._slot_listeners, []
        for callback in listeners:
            callback()

    # ------------------------------------------------------------- accounting
    # Per-issue statistics (served/row-hit counters, bandwidth tracking) are
    # inlined in ServiceKernel._service -- the kernel owns the issue path.

    def _finish(self, request: MemoryRequest, time_ns: float) -> None:
        if request.arrival_ns is not None:
            self._latency_append(time_ns - request.arrival_ns)
            if request.tenant is not None:
                # Per-tenant breakdowns for the scenario composer: latency is
                # bucketed across every channel (and both memory domains,
                # since the registry is system-wide), bytes per direction.
                self.stats.histogram(f"tenant/{request.tenant}/latency_ns").add(
                    time_ns - request.arrival_ns
                )
                self.stats.counter(f"tenant/{request.tenant}/bytes").add(
                    request.size_bytes
                )
        # Inlined MemoryRequest.complete (one call per finished request).
        request.completion_ns = time_ns
        on_complete = request.on_complete
        if on_complete is not None:
            on_complete(request)

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Reset scheduling state to power-on.  The controller must be idle."""
        if not self.is_idle():
            raise RuntimeError(
                f"cannot reset controller {self.name!r} with requests in flight"
            )
        self._read_queue.clear()
        self._write_queue.clear()
        self._next_seq = 0
        self._slot_listeners.clear()
        self.kernel.reset()
        self.channel.reset()

    # ------------------------------------------------------------------ stats
    @property
    def read_bytes(self) -> int:
        return self._read_bw.total_bytes

    @property
    def write_bytes(self) -> int:
        return self._write_bw.total_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def is_idle(self) -> bool:
        return (
            not self._read_queue
            and not self._write_queue
            and not self.kernel.service_pending
        )


__all__ = ["ChannelController"]
