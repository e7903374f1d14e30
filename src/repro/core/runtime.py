"""User-level PIM-MMU runtime library (paper §IV-B, Figure 10b).

The runtime exposes a single API, :meth:`PimMmuRuntime.pim_mmu_transfer`,
taking a :class:`PimMmuOp` that mirrors the paper's ``struct pim_mmu_op``:
direction, per-core transfer size, the array of DRAM source/destination
pointers, the array of destination/source PIM core ids and the MRAM heap base
pointer.  Unlike the baseline ``dpu_push_xfer`` (which spawns many CPU copy
threads), a single thread packages this information, hands it to the device
driver and sleeps until the DCE's completion interrupt.

When a host buffer is supplied the runtime also performs the transfer
functionally (including the chip-interleaving transpose, which the DCE's
preprocessing unit applies in hardware), so examples and tests can verify
data integrity end to end.

Constructing the runtime directly is deprecated for callers that only need
timing results: :meth:`repro.api.Session.transfer` drives the same DCE
through the registered ``pim_mmu`` backend and returns a typed result.  The
runtime remains the home of the functional-copy path (host buffers).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.dce import DataCopyEngine
from repro.core.driver import PimMmuDevice
from repro.host.allocator import HostAllocator
from repro.pim.transpose import transpose_for_pim, transpose_from_pim
from repro.sim.config import DcePolicy
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.transfer.result import TransferResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system imports HetMap)
    import numpy as np

    from repro.system import PimSystem


@dataclass(frozen=True)
class PimMmuOp:
    """Python rendering of the paper's ``struct pim_mmu_op`` (Figure 10b).

    ``dram_addr_arr[i]`` is the DRAM-side pointer for PIM core
    ``pim_id_arr[i]``; ``size_per_pim`` is in bytes; ``pim_base_heap_ptr`` is
    the byte offset inside each core's MRAM (the role of
    ``DPU_MRAM_HEAP_POINTER_NAME``).
    """

    type: TransferDirection
    size_per_pim: int
    dram_addr_arr: Sequence[int]
    pim_id_arr: Sequence[int]
    pim_base_heap_ptr: int = 0

    def to_descriptor(self) -> TransferDescriptor:
        return TransferDescriptor(
            direction=self.type,
            size_per_core_bytes=self.size_per_pim,
            pim_core_ids=tuple(self.pim_id_arr),
            dram_base_addrs=tuple(self.dram_addr_arr),
            pim_heap_offset=self.pim_base_heap_ptr,
        )


@dataclass
class PimMmuRuntime:
    """User-level runtime that offloads transfers to the DCE through the driver."""

    system: "PimSystem"
    policy: DcePolicy = DcePolicy.PIM_MS
    allocator: Optional[HostAllocator] = None
    device: PimMmuDevice = field(init=False)
    results: List[TransferResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        warnings.warn(
            "constructing PimMmuRuntime directly is deprecated; drive transfers "
            "through repro.Session (session.transfer(...) uses the registered "
            "'pim_mmu' backend and returns a typed RunResult)",
            DeprecationWarning,
            stacklevel=3,
        )
        if self.allocator is None:
            self.allocator = HostAllocator(self.system.partition)
        dce = DataCopyEngine(self.system, policy=self.policy)
        self.device = PimMmuDevice(dce=dce)

    # --------------------------------------------------------------- op build
    def build_contiguous_op(
        self,
        direction: TransferDirection,
        size_per_pim: int,
        pim_core_ids: Sequence[int],
        dram_base: Optional[int] = None,
        pim_base_heap_ptr: int = 0,
    ) -> PimMmuOp:
        """Build a :class:`PimMmuOp` for a contiguous host buffer split across cores.

        Allocates the DRAM buffer if ``dram_base`` is not supplied, mirroring
        the ``malloc`` + pointer-arithmetic loop of Figure 10b lines 8-16.
        """
        assert self.allocator is not None
        if dram_base is None:
            dram_base = self.allocator.allocate(
                size_per_pim * len(pim_core_ids), name="pim_mmu_op"
            )
        addrs = [dram_base + index * size_per_pim for index in range(len(pim_core_ids))]
        return PimMmuOp(
            type=direction,
            size_per_pim=size_per_pim,
            dram_addr_arr=tuple(addrs),
            pim_id_arr=tuple(pim_core_ids),
            pim_base_heap_ptr=pim_base_heap_ptr,
        )

    # --------------------------------------------------------------- transfer
    def pim_mmu_transfer(
        self, op: PimMmuOp, host_buffer: Optional[np.ndarray] = None
    ) -> TransferResult:
        """Offload one DRAM<->PIM transfer to the DCE (the paper's user API)."""
        descriptor = op.to_descriptor()
        result = self.device.submit(descriptor)
        if host_buffer is not None:
            self._functional_copy(op, host_buffer)
        self.results.append(result)
        return result

    def _functional_copy(self, op: PimMmuOp, host_buffer: np.ndarray) -> None:
        import numpy as np

        flat = np.ascontiguousarray(host_buffer).view(np.uint8).reshape(-1)
        if flat.nbytes < op.size_per_pim * len(op.pim_id_arr):
            raise ValueError("host buffer smaller than the transfer it backs")
        for index, core_id in enumerate(op.pim_id_arr):
            dpu = self.system.topology.dpu(core_id)
            offset = index * op.size_per_pim
            if op.type is TransferDirection.DRAM_TO_PIM:
                chunk = flat[offset : offset + op.size_per_pim].tobytes()
                dpu.host_write(op.pim_base_heap_ptr, transpose_for_pim(chunk))
            else:
                raw = dpu.host_read(op.pim_base_heap_ptr, op.size_per_pim)
                flat[offset : offset + op.size_per_pim] = np.frombuffer(
                    transpose_from_pim(raw), dtype=np.uint8
                )


__all__ = ["PimMmuOp", "PimMmuRuntime"]
