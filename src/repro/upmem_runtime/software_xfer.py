"""Per-DPU software copy job (one schedulable thread per PIM core).

The baseline ``dpu_push_xfer`` implementation is multi-threaded: every PIM
core's slice is copied by CPU code that reads 64 B chunks from the source
buffer, transposes them for chip interleaving, and writes them to the DPU's
MRAM bank with AVX-512 non-cacheable stores (reversed for PIM->DRAM).  The
paper models this as per-DPU transfer operations of which at most
``num_cores`` execute concurrently under round-robin OS scheduling (§V);
:class:`SoftwareCopyThread` is one such operation.

While the thread holds a core it keeps up to
``CpuConfig.transfer_outstanding_per_thread`` chunks in flight; every chunk
pays ``CpuConfig.transfer_cpu_cycles_per_chunk`` of CPU work between the read
completing and the write issuing (the transpose + address generation), which
bounds single-thread copy throughput exactly the way the real runtime is
bounded.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES
from repro.transfer.descriptor import TransferDirection
from repro.system import PimSystem


class SoftwareCopyThread:
    """Copies one PIM core's slice between DRAM and its MRAM bank."""

    def __init__(
        self,
        system: PimSystem,
        direction: TransferDirection,
        pim_core_id: int,
        dram_base_addr: int,
        size_bytes: int,
        pim_heap_offset: int = 0,
        on_finished: Optional[Callable[["SoftwareCopyThread"], None]] = None,
        name: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        if size_bytes % CACHE_LINE_BYTES != 0:
            raise ValueError("size_bytes must be a multiple of the 64 B chunk size")
        self.system = system
        self.direction = direction
        self.pim_core_id = pim_core_id
        self.dram_base_addr = dram_base_addr
        self.size_bytes = size_bytes
        self.pim_heap_offset = pim_heap_offset
        self.on_finished = on_finished
        self.name = name if name is not None else f"copy-dpu{pim_core_id}"
        self.tenant = tenant

        cpu_config = system.config.cpu
        self.max_outstanding = cpu_config.transfer_outstanding_per_thread
        self.chunk_cpu_ns = cpu_config.cycles_to_ns(
            cpu_config.transfer_cpu_cycles_per_chunk
        )

        self.total_chunks = size_bytes // CACHE_LINE_BYTES
        self._next_chunk = 0
        self._outstanding = 0
        #: Chunks awaiting their write submit, as mutable [chunk, request]
        #: entries (the request is built once on the first blocked attempt).
        self._pending_writes: Deque[list] = deque()
        self._parked_read: Optional[tuple] = None
        self._running = False
        self._finished = False
        #: Whether ``_wake`` is parked on a full target.  ``_wake`` is bound
        #: once and dropped when the run ends, so no cycle outlives the run.
        self._retry_registered = False
        self._wake = self._on_slot_freed
        self.chunks_completed = 0

    # ----------------------------------------------------- scheduler interface
    def on_scheduled(self, now_ns: float) -> None:
        self._running = True
        self._pump()

    def on_preempted(self, now_ns: float) -> None:
        self._running = False

    def is_finished(self) -> bool:
        return self._finished

    # -------------------------------------------------------------- addressing
    def _source_addr(self, chunk_index: int) -> int:
        offset = chunk_index * CACHE_LINE_BYTES
        if self.direction is TransferDirection.DRAM_TO_PIM:
            return self.dram_base_addr + offset
        return self.system.pim_heap_addr(self.pim_core_id, self.pim_heap_offset + offset)

    def _dest_addr(self, chunk_index: int) -> int:
        offset = chunk_index * CACHE_LINE_BYTES
        if self.direction is TransferDirection.DRAM_TO_PIM:
            return self.system.pim_heap_addr(self.pim_core_id, self.pim_heap_offset + offset)
        return self.dram_base_addr + offset

    # ------------------------------------------------------------------- pump
    def _pump(self) -> None:
        """Issue as much work as the core, the MSHRs and the queues allow."""
        if self._finished or not self._running:
            return
        submit = self.system.submit
        # Writes for chunks whose CPU-side processing already finished go first
        # (they hold MSHRs and the data is sitting in registers).  Each entry
        # caches its built request after the first blocked attempt, so a
        # congested queue never pays address generation twice.
        while self._pending_writes:
            entry = self._pending_writes[0]
            if entry[1] is None:
                entry[1] = self._build_write(entry[0])
            if not self._submit_request(entry[1]):
                return
            self._pending_writes.popleft()
        while (
            self._next_chunk < self.total_chunks
            and self._outstanding < self.max_outstanding
        ):
            chunk = self._next_chunk
            parked = self._parked_read
            if parked is not None and parked[0] == chunk:
                request = parked[1]
            else:
                request = MemoryRequest(
                    phys_addr=self._source_addr(chunk),
                    is_write=False,
                    stream=RequestStream.TRANSFER_READ,
                    pim_core_id=self.pim_core_id,
                    tenant=self.tenant,
                    on_complete=lambda req, c=chunk: self._on_read_complete(c),
                )
            if not submit(
                request, None if self._retry_registered else self._wake
            ):
                self._parked_read = (chunk, request)
                self._retry_registered = True
                return
            self._parked_read = None
            self._next_chunk += 1
            self._outstanding += 1

    def _on_slot_freed(self) -> None:
        self._retry_registered = False
        self._pump()

    def _on_read_complete(self, chunk: int) -> None:
        # The CPU transposes / repacks the chunk before storing it; the cost is
        # paid even if the thread has been preempted meanwhile (the in-flight
        # AVX work drains), but the subsequent write only issues while running.
        engine = self.system.engine
        engine.schedule_callback(
            engine.now + self.chunk_cpu_ns, lambda: self._after_cpu_stage(chunk)
        )

    def _after_cpu_stage(self, chunk: int) -> None:
        self._pending_writes.append([chunk, None])
        if self._running:
            self._pump()

    def _build_write(self, chunk: int) -> MemoryRequest:
        return MemoryRequest(
            phys_addr=self._dest_addr(chunk),
            is_write=True,
            stream=RequestStream.TRANSFER_WRITE,
            pim_core_id=self.pim_core_id,
            tenant=self.tenant,
            on_complete=lambda req: self._on_write_complete(),
        )

    def _submit_request(self, request: MemoryRequest) -> bool:
        if not self.system.submit(
            request, None if self._retry_registered else self._wake
        ):
            self._retry_registered = True
            return False
        return True

    def _on_write_complete(self) -> None:
        self._outstanding -= 1
        self.chunks_completed += 1
        if (
            self.chunks_completed >= self.total_chunks
            and not self._pending_writes
            and self._outstanding == 0
        ):
            self._finish()
        elif self._running:
            self._pump()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._running = False
        self._wake = None
        self.system.scheduler.notify_finished(self)
        if self.on_finished is not None:
            self.on_finished(self)


__all__ = ["SoftwareCopyThread"]
