"""Data Copy Engine (DCE, paper §IV-C, Figure 11).

The DCE is the hardware unit that performs DRAM<->PIM transfers without any
CPU involvement.  Its dataflow for a DRAM->PIM transfer follows the seven
steps of Figure 11:

1. PIM-MS reads an entry from the **address buffer** (the per-PIM-core source
   base address, destination core id and offset counter).
2. The entry goes to the **AGU**, which produces the source physical address.
3. The read request enters the memory controller's read queue and is serviced.
4. The returned cache line is parked in the **data buffer**.
5. The **preprocessing unit** transposes it on the fly (chip interleaving,
   Figure 3).
6. The AGU produces the destination PIM address.
7. The write request enters the write queue and completes the transfer of
   that chunk; the entry's offset counter advances.

The engine's parallelism is bounded by the data buffer (16 KB = 256 in-flight
cache lines) when PIM-MS drives it, or by a shallow descriptor-at-a-time
window when it emulates a conventional DMA engine (the ``Base+D`` ablation
point, :class:`~repro.sim.config.DcePolicy`).
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterator, Optional

from repro.core.pim_ms import PimAwareScheduler, ScheduledAccess
from repro.mapping.system_mapper import DRAM_DOMAIN, PIM_DOMAIN
from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES, DcePolicy
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.transfer.result import TransferResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system imports HetMap)
    from repro.system import PimSystem


class DeferredReads:
    """Reads blocked on a full target, parked per target in one cyclic order.

    The retry order is that of a single deque rotated through on every pass
    (blocked entries move to the back, submitted ones leave).  Each entry
    carries a global *defer position*; per-target FIFOs are sorted by it, so
    a pass merges the heads of only the targets that may accept -- entries
    whose target is known to be full are never visited.  Two facts keep the
    order identical to the rotating deque:

    * a pass that runs to the end leaves every skipped entry where it was;
    * a pass that stops because the in-flight window filled leaves the
      deque as [unprocessed tail] + [skipped head].  The entries positioned
      before the last submitted one are moved to the back, in order.
    """

    __slots__ = ("_fifos", "count", "_next_pos")

    def __init__(self) -> None:
        #: target key -> deque of (position, access, request), by position.
        self._fifos: Dict[tuple, Deque[tuple]] = {}
        #: Number of parked entries.
        self.count = 0
        self._next_pos = 0

    def clear(self) -> None:
        self._fifos.clear()
        self.count = 0
        self._next_pos = 0

    def append(self, key: tuple, access, request: MemoryRequest) -> None:
        """Park one read at the back of the cyclic order."""
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = self._fifos[key] = deque()
        fifo.append((self._next_pos, access, request))
        self._next_pos += 1
        self.count += 1

    def retry(
        self,
        submit: Callable[[object, MemoryRequest, tuple], bool],
        room: int,
        blocked: set,
        full_targets: set,
    ) -> bool:
        """One retry pass; returns ``False`` if it stopped on a full window.

        ``submit(access, request, key)`` issues one parked read; ``room`` is
        how many more reads the in-flight window takes.  Targets in
        ``blocked`` or ``full_targets`` are skipped; a target that refuses is
        added to ``full_targets`` and skipped for the rest of the pass.
        """
        fifos = self._fifos
        heap = [
            (fifo[0][0], key)
            for key, fifo in fifos.items()
            if key not in blocked and key not in full_targets
        ]
        if not heap:
            return True
        if room <= 0:
            return False
        heapq.heapify(heap)
        while heap:
            position, key = heapq.heappop(heap)
            fifo = fifos[key]
            entry = fifo[0]
            if not submit(entry[1], entry[2], key):
                full_targets.add(key)
                continue
            fifo.popleft()
            self.count -= 1
            if fifo:
                heapq.heappush(heap, (fifo[0][0], key))
            else:
                del fifos[key]
            room -= 1
            if not room:
                self._rotate_before(position)
                return False
        return True

    def _rotate_before(self, position: int) -> None:
        """Move every entry positioned before ``position`` to the back, in order."""
        fifos = self._fifos
        if not any(fifo[-1][0] > position for fifo in fifos.values()):
            return  # nothing after it: the order is already [skipped...]
        moved = []
        for key, fifo in fifos.items():
            while fifo[0][0] < position:
                entry = fifo.popleft()
                moved.append((entry[0], key, entry[1], entry[2]))
                if not fifo:
                    break
        moved.sort()
        next_pos = self._next_pos
        for _, key, access, request in moved:
            fifos[key].append((next_pos, access, request))
            next_pos += 1
        self._next_pos = next_pos


class DataCopyEngine:
    """Hardware transfer engine with PIM-MS or conventional-DMA issue policy."""

    def __init__(self, system: "PimSystem", policy: DcePolicy = DcePolicy.PIM_MS) -> None:
        self.system = system
        self.policy = policy
        self.config = system.config.pim_mmu
        self.scheduler = PimAwareScheduler(system.config.pim)
        # Transfer-in-progress state.
        self._iterator: Optional[Iterator[ScheduledAccess]] = None
        self._descriptor: Optional[TransferDescriptor] = None
        self._max_in_flight = self.max_in_flight
        self._in_flight = 0
        self._writes_outstanding = 0
        self._completed_chunks = 0
        self._total_chunks = 0
        # Parked writes, grouped per target (domain, channel, direction) key.
        # Each deque holds (park_seq, access, request) triples in FIFO order;
        # the park_seq preserves the *global* arrival order across targets, so
        # a retry pass attempts parked writes in exactly the order the seed's
        # single rotated deque did -- without touching the entries whose
        # target is already known to be full.  (The write pass never returns
        # early, so a full pass preserves relative order; the read pass *can*
        # stop mid-pass, which :class:`DeferredReads` reproduces.)  Requests
        # are built (and pre-decoded) once when first parked, never again.
        self._parked_writes: Dict[tuple, Deque[tuple]] = {}
        self._deferred_reads = DeferredReads()
        self._park_seq = 0
        # Target keys whose full queue holds this engine's wake callback for
        # that key (bound once per transfer; the callback clears the key and
        # pumps).
        self._retry_channels: set = set()
        self._wakes: Dict[tuple, Callable[[], None]] = {}
        self._done = False
        self._finish_ns = 0.0
        self.offsets: Dict[int, int] = {}
        # Completion plumbing shared by the blocking and non-blocking paths.
        self._result: Optional[TransferResult] = None
        self._on_complete: Optional[Callable[[TransferResult], None]] = None
        self._baselines: Optional[dict] = None

    # --------------------------------------------------------------- capacity
    @property
    def max_in_flight(self) -> int:
        """How many chunks the engine keeps in flight.

        With PIM-MS the data buffer is the only limit; the conventional-DMA
        policy processes descriptors serially with a shallow window, which is
        what makes ``Base+D`` *lose* to the multi-threaded AVX baseline in
        most Figure 15 configurations.
        """
        if self.policy is DcePolicy.PIM_MS:
            return self.config.data_buffer_entries
        return self.config.serial_outstanding

    def address_buffer_capacity_ok(self, descriptor: TransferDescriptor) -> bool:
        """True if the descriptor fits the 64 KB address buffer in one shot."""
        return descriptor.num_cores <= self.config.address_buffer_entries

    # ----------------------------------------------------------------- execute
    def begin(
        self,
        descriptor: TransferDescriptor,
        on_complete: Optional[Callable[[TransferResult], None]] = None,
    ) -> None:
        """Start one offloaded transfer without blocking.

        The transfer advances as the simulation engine is stepped (by
        :meth:`execute`, or by an external loop such as the multi-tenant
        scenario composer, which runs several engines on one clock).
        ``on_complete`` fires -- with the finished :class:`TransferResult` --
        once the completion interrupt has been delivered.
        """
        if self._descriptor is not None:
            raise RuntimeError("the DCE is already executing a transfer")
        if not self.address_buffer_capacity_ok(descriptor):
            raise ValueError(
                f"descriptor names {descriptor.num_cores} PIM cores but the "
                f"address buffer holds {self.config.address_buffer_entries} entries"
            )
        system = self.system
        self._descriptor = descriptor
        self._total_chunks = descriptor.num_cores * descriptor.chunks_per_core
        self._completed_chunks = 0
        self._in_flight = 0
        self._writes_outstanding = 0
        self._parked_writes.clear()
        self._deferred_reads.clear()
        self._park_seq = 0
        self._retry_channels.clear()
        config = system.config
        self._wakes = {
            key: partial(self._wake_target, key)
            for domain, geometry in ((DRAM_DOMAIN, config.dram), (PIM_DOMAIN, config.pim))
            for channel in range(geometry.channels)
            for key in ((domain, channel, False), (domain, channel, True))
        }
        self._done = False
        self._result = None
        self._on_complete = on_complete
        self.offsets = {core: 0 for core in descriptor.pim_core_ids}
        self._max_in_flight = self.max_in_flight
        if self.policy is DcePolicy.PIM_MS:
            self._iterator = self.scheduler.schedule(descriptor)
        else:
            self._iterator = self.scheduler.schedule_serial(descriptor)

        start_ns = system.now
        self._baselines = {
            "start_ns": start_ns,
            "cpu_busy": system.cpu.total_core_busy_ns(),
            "dram_read": system.dram.read_bytes(),
            "dram_write": system.dram.write_bytes(),
            "pim_read": system.pim.read_bytes(),
            "pim_write": system.pim.write_bytes(),
            "pim_channel": system.pim.per_channel_bytes("all"),
            "dram_channel": system.dram.per_channel_bytes("all"),
        }

        # The single CPU thread writes the pim_mmu_op descriptor array through
        # the device driver and rings the MMIO doorbell, then sleeps.
        setup_ns = self._descriptor_setup_ns(descriptor)
        system.cpu.record_busy_interval(start_ns, start_ns + setup_ns)
        system.engine.schedule_after(setup_ns, self._pump)

    def execute(self, descriptor: TransferDescriptor) -> TransferResult:
        """Run one offloaded transfer to completion and return its result."""
        self.begin(descriptor)
        self.system.engine.run_until_done(lambda: self._result is not None)
        if self._result is None:
            raise RuntimeError("simulation ran dry before the DCE transfer completed")
        return self._result

    def _finalize(self) -> None:
        """Deliver the completion interrupt and assemble the result (at ``end_ns``)."""
        system = self.system
        assert self._descriptor is not None and self._baselines is not None
        descriptor, baselines = self._descriptor, self._baselines
        end_ns = system.now
        pim_channel1 = system.pim.per_channel_bytes("all")
        dram_channel1 = system.dram.per_channel_bytes("all")
        pim_channel0 = baselines["pim_channel"]
        dram_channel0 = baselines["dram_channel"]
        result = TransferResult(
            descriptor=descriptor,
            design_label=system.design_point.label,
            start_ns=baselines["start_ns"],
            end_ns=end_ns,
            cpu_core_busy_ns=system.cpu.total_core_busy_ns() - baselines["cpu_busy"],
            dce_busy_ns=end_ns - baselines["start_ns"],
            dram_read_bytes=system.dram.read_bytes() - baselines["dram_read"],
            dram_write_bytes=system.dram.write_bytes() - baselines["dram_write"],
            pim_read_bytes=system.pim.read_bytes() - baselines["pim_read"],
            pim_write_bytes=system.pim.write_bytes() - baselines["pim_write"],
            per_channel_pim_bytes={
                channel: pim_channel1[channel] - pim_channel0.get(channel, 0)
                for channel in pim_channel1
            },
            per_channel_dram_bytes={
                channel: dram_channel1[channel] - dram_channel0.get(channel, 0)
                for channel in dram_channel1
            },
        )
        result.extra["llc_accesses"] = 0.0  # the DCE bypasses the cache hierarchy
        result.extra["dce_chunks"] = float(self._total_chunks)
        self._descriptor = None
        self._iterator = None
        self._baselines = None
        # Drop the engine -> callback -> engine cycle with the transfer.
        self._wakes = {}
        self._result = result
        if self._on_complete is not None:
            self._on_complete(result)

    def _descriptor_setup_ns(self, descriptor: TransferDescriptor) -> float:
        """CPU time spent filling the address buffer and ringing the doorbell."""
        per_entry_ns = self.system.config.cpu.cycles_to_ns(16)
        return self.config.mmio_doorbell_latency_ns + per_entry_ns * descriptor.num_cores

    # --------------------------------------------------------------- dataflow
    def _pump(self) -> None:
        """Advance the dataflow as far as queue space and the data buffer allow.

        Unlike a software thread (which processes its chunks strictly in
        order), PIM-MS keeps visibility over *all* pending work and never lets
        a single full queue stall the rest of the transfer: blocked writes and
        blocked reads are parked per target channel and the engine keeps
        issuing work to the channels that still have room.  This skip-ahead
        behaviour is the "fine-grained hardware scheduling" of §IV-D.
        """
        if self._done:
            return
        # Targets observed full during this pass are abandoned immediately;
        # the per-target parking means their other parked entries are never
        # even visited (the seed rotated every parked entry through a deque
        # on every pass).  A key still awaiting its wake is *provably* full
        # -- any freed slot fires the wake (which clears the key) before
        # control returns here -- so attempts on it are the no-ops the seed
        # performed and can be skipped outright.  Every submit below is
        # therefore to a key without a parked wake, and passes one.
        retry_channels = self._retry_channels
        full_targets: set = set()
        # 1. Drain data-buffer entries whose write can now be enqueued, in
        # global park order across targets (min-heap over per-target heads).
        parked_writes = self._parked_writes
        if parked_writes and not retry_channels.issuperset(parked_writes):
            heap = [
                (dq[0][0], key)
                for key, dq in parked_writes.items()
                if key not in retry_channels
            ]
            heapq.heapify(heap)
            while heap:
                _, key = heapq.heappop(heap)
                dq = parked_writes[key]
                entry = dq[0]
                if self._submit_write(entry[1], entry[2], key):
                    dq.popleft()
                    if dq:
                        heapq.heappush(heap, (dq[0][0], key))
                    else:
                        del parked_writes[key]
                else:
                    full_targets.add(key)
        # 2. Retry reads that were previously blocked on a full read queue,
        # visiting only the targets that may accept.
        deferred = self._deferred_reads
        if deferred.count and not deferred.retry(
            self._submit_read,
            self._max_in_flight - self._in_flight,
            retry_channels,
            full_targets,
        ):
            return
        # 3. Pull new accesses from the PIM-MS schedule.
        max_in_flight = self._max_in_flight
        system = self.system
        iterator = self._iterator
        while self._in_flight < max_in_flight and deferred.count < max_in_flight:
            assert iterator is not None
            access = next(iterator, None)
            if access is None:
                return
            request = self._build_request(access, is_write=False)
            key = self._target_key(request)
            if key in retry_channels or key in full_targets:
                deferred.append(key, access, request)
                continue
            if not system.submit(request, self._wakes[key]):
                retry_channels.add(key)
                full_targets.add(key)
                deferred.append(key, access, request)
                continue
            self._in_flight += 1

    def _park_write(self, key: tuple, access: ScheduledAccess, request: MemoryRequest) -> None:
        dq = self._parked_writes.get(key)
        if dq is None:
            dq = self._parked_writes[key] = deque()
        dq.append((self._park_seq, access, request))
        self._park_seq += 1

    def _build_request(self, access: ScheduledAccess, is_write: bool) -> MemoryRequest:
        """Create and pre-decode one request so its target channel is known."""
        descriptor = self._descriptor
        assert descriptor is not None
        offset = access.chunk_index * CACHE_LINE_BYTES
        # One end of every DCE chunk is a PIM-heap location: the destination
        # for DRAM->PIM, the source for PIM->DRAM.  Its coordinates are
        # derived directly from (core, offset) -- no decode round trip.
        pim_end = is_write == (
            descriptor.direction is TransferDirection.DRAM_TO_PIM
        )
        if pim_end:
            phys_addr, domain, dram_addr = self.system.pim_heap_request(
                access.pim_core_id, descriptor.pim_heap_offset + offset
            )
        else:
            phys_addr = descriptor.dram_base_addrs[access.descriptor_index] + offset
            domain, dram_addr = self.system.decode(phys_addr)
        if is_write:
            on_complete = partial(self._write_completed, access)
            stream = RequestStream.TRANSFER_WRITE
        else:
            on_complete = partial(self._read_completed, access)
            stream = RequestStream.TRANSFER_READ
        # Positional construction: this runs once per transferred cache line.
        request = MemoryRequest(
            phys_addr, is_write, 64, stream, 0,
            access.pim_core_id, descriptor.tenant, on_complete,
        )
        request.domain = domain
        request.dram_addr = dram_addr
        return request

    @staticmethod
    def _target_key(request: MemoryRequest) -> tuple:
        assert request.dram_addr is not None
        return (request.domain, request.dram_addr.channel, request.is_write)

    def _submit_read(
        self, access: ScheduledAccess, request: MemoryRequest, key: tuple
    ) -> bool:
        """Try to issue the parked read of ``access`` to target ``key``."""
        if not self.system.submit(request, self._wakes[key]):
            self._retry_channels.add(key)
            return False
        self._in_flight += 1
        return True

    def _wake_target(self, key: tuple) -> None:
        """The full queue of target ``key`` freed a slot: retry its work."""
        self._retry_channels.discard(key)
        self._pump()

    def _read_completed(self, access: ScheduledAccess, request: MemoryRequest) -> None:
        # Step 5: the preprocessing unit transposes the line on the fly.
        engine = self.system.engine
        engine.schedule_callback(
            engine.now + self.config.transpose_latency_ns,
            partial(self._after_preprocess, access),
        )

    def _after_preprocess(self, access: ScheduledAccess) -> None:
        request = self._build_request(access, is_write=True)
        key = self._target_key(request)
        if key in self._retry_channels:
            # The target queue is provably still full (its wake has not
            # fired); park straight away instead of a doomed submit.
            self._park_write(key, access, request)
        elif self._submit_write(access, request, key):
            self._pump()
        else:
            self._park_write(key, access, request)

    def _submit_write(
        self, access: ScheduledAccess, request: MemoryRequest, key: tuple
    ) -> bool:
        """Try to issue the write of ``access`` to target ``key``."""
        if not self.system.submit(request, self._wakes[key]):
            self._retry_channels.add(key)
            return False
        # The chunk has left the data buffer for the controller's write queue
        # (step 7 of Figure 11): its data-buffer slot frees immediately --
        # writes are posted -- so the read pipeline keeps streaming.
        self._in_flight -= 1
        self._writes_outstanding += 1
        return True

    def _write_completed(self, access: ScheduledAccess, request: MemoryRequest) -> None:
        self._writes_outstanding -= 1
        self._completed_chunks += 1
        pim_core_id = access.pim_core_id
        self.offsets[pim_core_id] = self.offsets.get(pim_core_id, 0) + CACHE_LINE_BYTES
        if self._completed_chunks >= self._total_chunks:
            self._done = True
            self._finish_ns = self.system.now
            # Interrupt handling wakes the sleeping user thread briefly;
            # result assembly happens only once the interrupt has been
            # delivered, so a subsequent transfer cannot start before it.
            end_ns = self._finish_ns + self.config.interrupt_latency_ns
            self.system.cpu.record_busy_interval(self._finish_ns, end_ns)
            self.system.engine.schedule_at(end_ns, self._finalize)
        # A completed *write* changes no pump-gating state: the data-buffer
        # slot freed when the write was submitted (writes are posted), and
        # every blocked target key holds a parked wake that pumps the moment
        # its queue frees.  The seed pumped here anyway; every attempt
        # in that pump provably failed, so it is elided.


__all__ = ["DataCopyEngine"]
