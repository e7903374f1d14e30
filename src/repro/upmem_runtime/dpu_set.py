"""UPMEM-SDK-like user API (``dpu_set_t`` / ``dpu_push_xfer`` analogue).

:class:`DpuSet` is the programmer-facing object of the baseline stack
(Figure 10a): the host allocates a set of DPUs, prepares one source pointer
per DPU, pushes the transfer (which the reproduction both *times* through the
software transfer engine and *performs functionally* against each DPU's MRAM,
including the chip-interleaving transpose), launches the SPMD kernel and pulls
results back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.host.allocator import HostAllocator
from repro.pim.kernel import KernelProfile, estimate_kernel_time_ns
from repro.pim.transpose import transpose_for_pim, transpose_from_pim
from repro.system import PimSystem
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.transfer.result import TransferResult
from repro.upmem_runtime.engine import SoftwareTransferEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class DpuSet:
    """A set of allocated DPUs plus the baseline transfer/launch API."""

    def __init__(
        self,
        system: PimSystem,
        num_dpus: Optional[int] = None,
        allocator: Optional[HostAllocator] = None,
    ) -> None:
        available = system.topology.num_dpus
        self.num_dpus = num_dpus if num_dpus is not None else available
        if not 0 < self.num_dpus <= available:
            raise ValueError(
                f"requested {num_dpus} DPUs but the system exposes {available}"
            )
        self.system = system
        self.dpu_ids: List[int] = list(range(self.num_dpus))
        self.allocator = allocator if allocator is not None else HostAllocator(system.partition)
        self._prepared_offsets: Dict[int, int] = {}
        self._engine = SoftwareTransferEngine(system)
        self.last_result: Optional[TransferResult] = None

    # ------------------------------------------------------------ preparation
    def prepare_xfer(self, dpu_index: int, host_offset_bytes: int) -> None:
        """Record which slice of the host buffer the ``dpu_index``-th DPU uses.

        Mirrors ``dpu_prepare_xfer(dpu, data + XFER_PER_BANK * i)``.
        """
        if not 0 <= dpu_index < self.num_dpus:
            raise ValueError(f"dpu_index {dpu_index} outside the allocated set")
        self._prepared_offsets[dpu_index] = host_offset_bytes

    def _offsets(self, size_per_dpu: int) -> List[int]:
        if self._prepared_offsets:
            if len(self._prepared_offsets) != self.num_dpus:
                raise ValueError(
                    "dpu_prepare_xfer must be called for every DPU before push_xfer"
                )
            return [self._prepared_offsets[index] for index in range(self.num_dpus)]
        return [index * size_per_dpu for index in range(self.num_dpus)]

    # ----------------------------------------------------------------- copies
    def push_xfer(
        self,
        direction: TransferDirection,
        size_per_dpu: int,
        host_buffer: Optional[np.ndarray] = None,
        heap_offset: int = 0,
    ) -> TransferResult:
        """Time and functionally perform a bulk transfer (``dpu_push_xfer``).

        For ``DRAM_TO_PIM`` the per-DPU slices of ``host_buffer`` are
        transposed and written into each DPU's MRAM; for ``PIM_TO_DRAM`` the
        MRAM contents are read back, un-transposed and written into
        ``host_buffer``.  ``host_buffer`` may be omitted when only timing is
        of interest.
        """
        offsets = self._offsets(size_per_dpu)
        dram_base = self.allocator.allocate(
            size_per_dpu * self.num_dpus, name=f"xfer@{self.system.now:.0f}"
        )
        descriptor = TransferDescriptor(
            direction=direction,
            size_per_core_bytes=size_per_dpu,
            pim_core_ids=tuple(self.dpu_ids),
            dram_base_addrs=tuple(dram_base + offset for offset in offsets),
            pim_heap_offset=heap_offset,
        )
        result = self._engine.execute(descriptor)
        if host_buffer is not None:
            self._functional_copy(direction, size_per_dpu, host_buffer, offsets, heap_offset)
        self.last_result = result
        self._prepared_offsets.clear()
        return result

    def _functional_copy(
        self,
        direction: TransferDirection,
        size_per_dpu: int,
        host_buffer: np.ndarray,
        offsets: List[int],
        heap_offset: int,
    ) -> None:
        import numpy as np

        flat = np.ascontiguousarray(host_buffer).view(np.uint8).reshape(-1)
        needed = max(offset + size_per_dpu for offset in offsets)
        if flat.nbytes < needed:
            raise ValueError(
                f"host buffer holds {flat.nbytes} bytes but the transfer needs {needed}"
            )
        for index, dpu_id in enumerate(self.dpu_ids):
            dpu = self.system.topology.dpu(dpu_id)
            offset = offsets[index]
            if direction is TransferDirection.DRAM_TO_PIM:
                slice_bytes = flat[offset : offset + size_per_dpu].tobytes()
                dpu.host_write(heap_offset, transpose_for_pim(slice_bytes))
            else:
                raw = dpu.host_read(heap_offset, size_per_dpu)
                restored = np.frombuffer(transpose_from_pim(raw), dtype=np.uint8)
                flat[offset : offset + size_per_dpu] = restored

    # ----------------------------------------------------------------- launch
    def launch(self, profile: KernelProfile, bytes_per_dpu: int) -> float:
        """Launch the SPMD kernel on every DPU and return its execution time (ns).

        The host is locked out of the PIM address space while the DPUs run
        (Figure 2c); the analytical kernel model supplies the duration since
        the paper measures this phase on real hardware.
        """
        duration = 0.0
        for dpu_id in self.dpu_ids:
            dpu = self.system.topology.dpu(dpu_id)
            dpu.launch()
            duration = max(duration, estimate_kernel_time_ns(dpu, bytes_per_dpu, profile))
        for dpu_id in self.dpu_ids:
            self.system.topology.dpu(dpu_id).finish()
        return duration


__all__ = ["DpuSet"]
