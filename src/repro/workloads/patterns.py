"""Access patterns and the DRAM read-bandwidth probe (Figure 8).

Figure 8 compares the DRAM bandwidth achievable under the locality-centric
mapping (what PIM systems enforce today) against the MLP-centric mapping, for
both sequential and strided access patterns.  The probe models an aggressive
streaming reader: it keeps a fixed number of 64 B reads in flight (bounded by
the per-core MSHRs of the host) and measures sustained read bandwidth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES
from repro.system import PimSystem
from repro.workloads.streams import sequential_blocks, strided_blocks


class AccessPattern(enum.Enum):
    """Memory access patterns used by the Figure 8 sweep."""

    SEQUENTIAL = "sequential"
    STRIDED = "strided"


def pattern_addresses(
    pattern: AccessPattern,
    base: int,
    total_bytes: int,
    stride_bytes: int = 4096,
) -> Iterator[int]:
    """Generate the block addresses of a pattern over ``[base, base+total_bytes)``.

    The address arithmetic lives in :mod:`repro.workloads.streams` (shared
    with the scenario trace synthesisers); this wrapper only maps the Figure 8
    pattern enum onto the right generator.
    """
    if pattern is AccessPattern.SEQUENTIAL:
        return sequential_blocks(base, total_bytes)
    return strided_blocks(base, total_bytes, stride_bytes)


@dataclass
class _Probe:
    """Streaming read agent with a fixed in-flight window."""

    system: PimSystem
    addresses: Iterator[int]
    max_outstanding: int
    outstanding: int = 0
    issued: int = 0
    completed: int = 0
    exhausted: bool = False
    last_completion_ns: float = 0.0

    def pump(self) -> None:
        while not self.exhausted and self.outstanding < self.max_outstanding:
            address = next(self.addresses, None)
            if address is None:
                self.exhausted = True
                return
            request = MemoryRequest(
                phys_addr=address,
                is_write=False,
                stream=RequestStream.OTHER,
                on_complete=self._on_complete,
            )
            if not self.system.submit(request, self.pump):
                # Put the address back conceptually: re-issue it on retry.
                self.addresses = _chain_front(address, self.addresses)
                return
            self.outstanding += 1
            self.issued += 1

    def _on_complete(self, request: MemoryRequest) -> None:
        self.outstanding -= 1
        self.completed += 1
        self.last_completion_ns = self.system.now
        self.pump()

    @property
    def done(self) -> bool:
        return self.exhausted and self.outstanding == 0


def _chain_front(first: int, rest: Iterator[int]) -> Iterator[int]:
    yield first
    yield from rest


def measure_read_bandwidth(
    system: PimSystem,
    pattern: AccessPattern,
    total_bytes: int = 4 * 1024 * 1024,
    base_addr: int = 0,
    stride_bytes: int = 4096,
    max_outstanding: Optional[int] = None,
) -> float:
    """Measure sustained DRAM read bandwidth (GB/s) for one pattern on ``system``.

    The in-flight window defaults to the host's per-core MSHR count times the
    core count, modelling all cores streaming together (which is how the
    paper's microbenchmark measures peak achievable bandwidth).
    """
    cpu = system.config.cpu
    window = (
        max_outstanding
        if max_outstanding is not None
        else cpu.mshrs_per_core * cpu.num_cores // 8
    )
    probe = _Probe(
        system=system,
        addresses=pattern_addresses(pattern, base_addr, total_bytes, stride_bytes),
        max_outstanding=window,
    )
    start_ns = system.now
    probe.pump()
    system.engine.run_until_done(lambda: probe.done)
    if not probe.done:
        raise RuntimeError("simulation ran dry before the bandwidth probe finished")
    elapsed = probe.last_completion_ns - start_ns
    if elapsed <= 0:
        return 0.0
    return probe.completed * CACHE_LINE_BYTES / elapsed


__all__ = ["AccessPattern", "measure_read_bandwidth", "pattern_addresses"]
