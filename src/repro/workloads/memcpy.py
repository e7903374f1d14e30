"""Multi-threaded DRAM->DRAM copy microbenchmark (Figure 6b, Figure 14).

The paper's custom memcpy microbenchmark uses multi-threaded AVX-512
non-temporal copies to measure how much DRAM bandwidth the system can deliver
for ordinary (non-PIM) traffic.  On the baseline system the homogeneous
locality-centric mapping confines both the source and the destination buffer
to a single bank of a single channel, capping throughput; with PIM-MMU's
HetMap the same code enjoys the MLP-centric mapping and throughput scales
with the channel count (Figure 14).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES
from repro.system import PimSystem
from repro.transfer.result import TransferResult
from repro.transfer.descriptor import TransferDescriptor, TransferDirection


class MemcpyThread:
    """One CPU thread copying a contiguous DRAM slice to another DRAM location."""

    def __init__(
        self,
        system: PimSystem,
        src_base: int,
        dst_base: int,
        size_bytes: int,
        on_finished: Optional[Callable[["MemcpyThread"], None]] = None,
        name: str = "memcpy",
        tenant: Optional[str] = None,
    ) -> None:
        if size_bytes % CACHE_LINE_BYTES != 0:
            raise ValueError("size_bytes must be a multiple of 64")
        self.system = system
        self.src_base = src_base
        self.dst_base = dst_base
        self.size_bytes = size_bytes
        self.on_finished = on_finished
        self.name = name
        self.tenant = tenant
        cpu = system.config.cpu
        self.max_outstanding = cpu.streaming_outstanding_per_thread
        # Plain memcpy has no transpose stage; only address generation and the
        # store itself cost CPU work.
        self.chunk_cpu_ns = cpu.cycles_to_ns(max(4, cpu.transfer_cpu_cycles_per_chunk // 4))
        self.total_chunks = size_bytes // CACHE_LINE_BYTES
        self._next_chunk = 0
        self._outstanding = 0
        #: [chunk, request] entries; the request is built once on the first
        #: blocked submit attempt and reused on retries.
        self._pending_writes: Deque[list] = deque()
        self._parked_read: Optional[tuple] = None
        self._running = False
        self._finished = False
        #: Whether ``_wake`` is parked on a full target.  ``_wake`` is bound
        #: once and dropped when the run ends, so no cycle outlives the run.
        self._retry_registered = False
        self._wake = self._on_slot_freed
        self.chunks_completed = 0

    # ---------------------------------------------------- scheduler interface
    def on_scheduled(self, now_ns: float) -> None:
        self._running = True
        self._pump()

    def on_preempted(self, now_ns: float) -> None:
        self._running = False

    def is_finished(self) -> bool:
        return self._finished

    # ------------------------------------------------------------------ pump
    def _pump(self) -> None:
        if self._finished or not self._running:
            return
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
                    phys_addr=self.src_base + chunk * CACHE_LINE_BYTES,
                    is_write=False,
                    stream=RequestStream.MEMCPY_READ,
                    tenant=self.tenant,
                    on_complete=lambda req, c=chunk: self._on_read_complete(c),
                )
            if not self.system.submit(
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
            phys_addr=self.dst_base + chunk * CACHE_LINE_BYTES,
            is_write=True,
            stream=RequestStream.MEMCPY_WRITE,
            tenant=self.tenant,
            on_complete=lambda req: self._on_write_complete(),
        )

    def _submit_request(self, request: MemoryRequest) -> bool:
        if not self.system.submit(
            request, None if self._retry_registered else self._wake
        ):
            self._retry_registered = True
            return False
        # Non-temporal AVX-512 stores are posted: the core's fill buffer frees
        # as soon as the line is handed to the memory controller, so the
        # thread's MSHR window only covers the read side of the copy.
        self._outstanding -= 1
        return True

    def _on_write_complete(self) -> None:
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


class MemcpyEngine:
    """Runs a multi-threaded DRAM->DRAM copy and reports its DRAM throughput."""

    def __init__(
        self,
        system: PimSystem,
        num_threads: Optional[int] = None,
        tenant: Optional[str] = None,
        stop_scheduler_on_finish: bool = True,
    ) -> None:
        # The multi-tenant scenario composer runs several engines on one OS
        # scheduler and passes stop_scheduler_on_finish=False, so one tenant
        # finishing cannot preempt the copy threads of the others.
        self.system = system
        self.num_threads = (
            num_threads if num_threads is not None else system.config.cpu.num_cores
        )
        self.tenant = tenant
        self.stop_scheduler_on_finish = stop_scheduler_on_finish
        self._finished = 0
        self._total_threads = 0
        self._last_finish_ns = 0.0
        self._baselines: Optional[dict] = None
        self._result: Optional[TransferResult] = None
        self._on_complete: Optional[Callable[[TransferResult], None]] = None

    def _on_finished(self, thread: MemcpyThread) -> None:
        self._finished += 1
        self._last_finish_ns = max(self._last_finish_ns, self.system.now)
        if self._finished >= self._total_threads and self._result is None:
            self._finalize()

    def begin(
        self,
        src_base: int,
        dst_base: int,
        total_bytes: int,
        on_complete: Optional[Callable[[TransferResult], None]] = None,
    ) -> None:
        """Start the copy without blocking (see :meth:`execute` for semantics).

        Work advances as the simulation engine is stepped; ``on_complete``
        fires with the finished result when the last copy thread completes.
        """
        if self._baselines is not None:
            raise RuntimeError("the engine is already executing a copy")
        if total_bytes % (self.num_threads * CACHE_LINE_BYTES) != 0:
            raise ValueError(
                "total_bytes must divide evenly across threads in 64 B chunks"
            )
        system = self.system
        slice_bytes = total_bytes // self.num_threads
        start_ns = system.now
        self._baselines = {
            "start_ns": start_ns,
            "src_base": src_base,
            "total_bytes": total_bytes,
            "dram_read": system.dram.read_bytes(),
            "dram_write": system.dram.write_bytes(),
            "dram_channel": system.dram.per_channel_bytes("all"),
            "cpu_busy": system.cpu.total_core_busy_ns(),
        }
        self._result = None
        self._on_complete = on_complete
        self._finished = 0
        self._last_finish_ns = start_ns
        threads = [
            MemcpyThread(
                system=system,
                src_base=src_base + index * slice_bytes,
                dst_base=dst_base + index * slice_bytes,
                size_bytes=slice_bytes,
                on_finished=self._on_finished,
                name=f"memcpy-{index}",
                tenant=self.tenant,
            )
            for index in range(self.num_threads)
        ]
        self._total_threads = len(threads)
        for thread in threads:
            system.scheduler.add_thread(thread)
        system.scheduler.start()

    def _finalize(self) -> None:
        system = self.system
        assert self._baselines is not None
        baselines = self._baselines
        if self.stop_scheduler_on_finish:
            system.scheduler.stop()
        end_ns = self._last_finish_ns

        dram_channel1 = system.dram.per_channel_bytes("all")
        dram_channel0 = baselines["dram_channel"]
        # memcpy is described with a synthetic single-core-id descriptor purely
        # so it can reuse TransferResult; it never touches the PIM domain.
        descriptor = TransferDescriptor(
            direction=TransferDirection.DRAM_TO_PIM,
            size_per_core_bytes=baselines["total_bytes"],
            pim_core_ids=(0,),
            dram_base_addrs=(baselines["src_base"],),
            tenant=self.tenant,
        )
        result = TransferResult(
            descriptor=descriptor,
            design_label=system.design_point.label,
            start_ns=baselines["start_ns"],
            end_ns=end_ns,
            cpu_core_busy_ns=system.cpu.total_core_busy_ns() - baselines["cpu_busy"],
            dram_read_bytes=system.dram.read_bytes() - baselines["dram_read"],
            dram_write_bytes=system.dram.write_bytes() - baselines["dram_write"],
            per_channel_dram_bytes={
                channel: dram_channel1[channel] - dram_channel0.get(channel, 0)
                for channel in dram_channel1
            },
        )
        result.extra["llc_accesses"] = float(
            2 * baselines["total_bytes"] // CACHE_LINE_BYTES
        )
        self._baselines = None
        self._result = result
        if self._on_complete is not None:
            self._on_complete(result)

    def execute(self, src_base: int, dst_base: int, total_bytes: int) -> TransferResult:
        """Copy ``total_bytes`` from ``src_base`` to ``dst_base`` using all threads."""
        self.begin(src_base, dst_base, total_bytes)
        self.system.engine.run_until_done(lambda: self._result is not None)
        if self._result is None:
            raise RuntimeError("simulation ran dry before memcpy completed")
        return self._result


__all__ = ["MemcpyEngine", "MemcpyThread"]
