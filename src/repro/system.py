"""Top-level simulated system: CPU + DRAM + PIM + (optionally) PIM-MMU.

:class:`PimSystem` wires the substrates together and exposes the small
interface every traffic source uses:

* :meth:`PimSystem.submit` decodes a physical address through the active
  system mapper (homogeneous locality-centric mapping for the baseline,
  HetMap for PIM-MMU design points) and routes the request to the right
  channel controller -- or, when the target is full, parks the caller's
  wake callback on the resource that refused it (back-pressure);
* :meth:`PimSystem.pim_heap_addr` converts a ``(PIM core id, heap offset)``
  pair into a physical address the way the runtimes do.

Use :func:`build_system` to construct a system for one of the Figure 15
design points.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.hetmap import HeterogeneousMapper
from repro.fabric import create_fabric
from repro.host.cpu import HostCpu
from repro.host.llc import LastLevelCache
from repro.host.os_scheduler import RoundRobinScheduler
from repro.mapping.address import DramAddress
from repro.mapping.partition import pim_core_coordinates, pim_heap_physical_address
from repro.mapping.system_mapper import (
    DRAM_DOMAIN,
    PIM_DOMAIN,
    HomogeneousMapper,
    SystemAddressMapper,
)
from repro.memctrl.request import MemoryRequest
from repro.memctrl.system import MemorySystem
from repro.pim.topology import PimTopology
from repro.sim.config import DesignPoint, SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry


class TraceHookHandle:
    """Detachable registration of one trace hook (idempotent ``detach``)."""

    def __init__(
        self, system: "PimSystem", hook: Callable[[MemoryRequest, float], None]
    ) -> None:
        self._system = system
        self._hook = hook

    @property
    def attached(self) -> bool:
        return self._hook in self._system._trace_hooks

    def detach(self) -> None:
        """Remove the hook; safe to call any number of times."""
        self._system.detach_trace_hook(self._hook)


class PimSystem:
    """A fully wired simulated PIM server."""

    def __init__(
        self,
        config: SystemConfig,
        mapper: SystemAddressMapper,
        design_point: DesignPoint = DesignPoint.BASELINE,
        engine: Optional[SimulationEngine] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.config = config
        self.design_point = design_point
        self.mapper = mapper
        self.engine = engine if engine is not None else SimulationEngine()
        self.stats = stats if stats is not None else StatsRegistry()
        self.dram = MemorySystem(
            self.engine, config.dram, config.memctrl, self.stats, name="dram"
        )
        self.pim = MemorySystem(
            self.engine, config.pim, config.memctrl, self.stats, name="pim"
        )
        self.cpu = HostCpu(config.cpu)
        self.llc = LastLevelCache.from_config(config.cpu)
        self.topology = PimTopology.build(config.pim)
        self.scheduler = RoundRobinScheduler(
            self.engine,
            self.cpu,
            num_cores=config.cpu.num_cores,
            quantum_ns=config.os.scheduling_quantum_ns,
        )
        # Observers of every *accepted* memory request (trace recording).
        self._trace_hooks: List[Callable[[MemoryRequest, float], None]] = []
        # Constant-time domain dispatch for the submit hot path.
        self._domain_controllers = {
            DRAM_DOMAIN: self.dram.controllers,
            PIM_DOMAIN: self.pim.controllers,
        }
        # Fast-path state for pim_heap_addr: per-core base block cache plus
        # the provably-affine layout description (None -> generic path).
        self._heap_core_base: dict = {}
        self._heap_affine = self._probe_heap_affine()
        # Interconnect fabric between engines and the controllers.  ``none``
        # builds no object at all: every submit path keeps its original
        # direct-dispatch code behind a single ``is not None`` check, which
        # is how the pass-through stays bit-identical by construction.
        self.fabric = self._fabric = create_fabric(config.memctrl.fabric, self)

    def _probe_heap_affine(self):
        """Precompute the PIM-heap address layout when it is provably affine.

        The PIM side always uses a locality-centric bit-field mapping; when
        that mapping has no XOR hashes and stores the row and column fields
        as single contiguous slices, a heap address is a pure function of the
        core's (channel, rank, bank group, bank) base bits plus shifted
        row/column bits -- cached integer ops instead of the generic
        coordinate/inverse walk per request.  Returns ``None`` (generic path)
        for any mapping where that cannot be proven.
        """
        mapping = self.mapper.mapping_for(PIM_DOMAIN)
        layout = getattr(mapping, "layout", None)
        if layout is None or getattr(mapping, "xor_hashes", ()):
            return None
        positions = {}
        cursor = 0
        for slice_ in layout:
            positions.setdefault(slice_.name, []).append(
                (slice_.field_lsb, cursor, slice_.width)
            )
            cursor += slice_.width
        row_slices = positions.get("row", [])
        column_slices = positions.get("column", [])
        if len(row_slices) != 1 or len(column_slices) != 1:
            return None
        if row_slices[0][0] != 0 or column_slices[0][0] != 0:
            return None
        geometry = mapping.geometry
        columns = geometry.columns_per_row
        return (
            row_slices[0][1],               # row shift within the block index
            column_slices[0][1],            # column shift within the block index
            columns.bit_length() - 1,       # log2(columns per row)
            columns - 1,                    # column mask
            geometry.bank_capacity_bytes,
            self.mapper.partition.pim_base,
            mapping,
        )

    # ------------------------------------------------------------- addressing
    @property
    def partition(self):
        return self.mapper.partition

    def decode(self, phys_addr: int) -> Tuple[str, DramAddress]:
        return self.mapper.decode(phys_addr)

    def pim_heap_addr(self, pim_core_id: int, byte_offset: int) -> int:
        """Physical address of ``byte_offset`` in a PIM core's MRAM heap."""
        affine = self._heap_affine
        if affine is None:
            return pim_heap_physical_address(
                self.partition,
                self.mapper.mapping_for(PIM_DOMAIN),
                pim_core_id,
                byte_offset,
            )
        return self._heap_fast(affine, pim_core_id, byte_offset)[0]

    def _heap_fast(self, affine, pim_core_id: int, byte_offset: int):
        """(phys_addr, DramAddress) of a heap location via cached integer ops."""
        row_shift, col_shift, cols_log2, col_mask, bank_capacity, pim_base, mapping = affine
        cached = self._heap_core_base.get(pim_core_id)
        if cached is None:
            # Bounds-checks the core id and encodes its (channel, rank, bank
            # group, bank) home once; every later offset is pure integer math.
            home = pim_core_coordinates(mapping.geometry, pim_core_id)
            cached = (mapping.inverse(home) >> 6, home)
            self._heap_core_base[pim_core_id] = cached
        base, home = cached
        if not 0 <= byte_offset < bank_capacity:
            raise ValueError(
                f"heap offset {byte_offset:#x} outside the per-core MRAM of "
                f"{bank_capacity:#x} bytes"
            )
        block_index = byte_offset >> 6
        row = block_index >> cols_log2
        column = block_index & col_mask
        block = base | (row << row_shift) | (column << col_shift)
        phys = pim_base + (block << 6) + (byte_offset & 63)
        return phys, DramAddress(home[0], home[1], home[2], home[3], row, column)

    def pim_heap_request(self, pim_core_id: int, byte_offset: int):
        """``(phys_addr, domain, DramAddress)`` for a PIM-heap location.

        The pre-decoded form of :meth:`pim_heap_addr`: transfer engines that
        know the (core, offset) pair skip the physical-address round trip
        through the system mapper (the returned address equals
        ``decode(phys_addr)`` exactly, because the PIM mapping is invertible).
        """
        affine = self._heap_affine
        if affine is None:
            phys = pim_heap_physical_address(
                self.partition,
                self.mapper.mapping_for(PIM_DOMAIN),
                pim_core_id,
                byte_offset,
            )
            domain, dram_addr = self.mapper.decode(phys)
            return phys, domain, dram_addr
        phys, dram_addr = self._heap_fast(affine, pim_core_id, byte_offset)
        return phys, PIM_DOMAIN, dram_addr

    def domain_system(self, domain: str) -> MemorySystem:
        if domain == DRAM_DOMAIN:
            return self.dram
        if domain == PIM_DOMAIN:
            return self.pim
        raise ValueError(f"unknown domain '{domain}'")

    # ---------------------------------------------------------------- traffic
    def submit(
        self, request: MemoryRequest, wake: Optional[Callable[[], None]] = None
    ) -> bool:
        """Decode and route a request; returns False if the target is full.

        Requests that already carry a decoded ``domain``/``dram_addr`` (because
        the caller pre-decoded them, e.g. the DCE's scheduler) are routed as-is.

        A refusal parks ``wake`` (unless ``None``) on the resource that
        refused -- the fabric's first-hop link or the channel controller --
        to fire once when it frees a slot; the caller retries from ``wake``.
        """
        dram_addr = request.dram_addr
        if request.domain is None or dram_addr is None:
            domain, dram_addr = self.mapper.decode(request.phys_addr)
            request.domain = domain
            request.dram_addr = dram_addr
        if self._fabric is not None:
            return self._fabric.inject(request, wake)
        accepted = self._domain_controllers[request.domain][
            dram_addr.channel
        ].enqueue(request, wake)
        if accepted and self._trace_hooks:
            for hook in self._trace_hooks:
                hook(request, self.engine.now)
        return accepted

    def attach_trace_hook(
        self, hook: Callable[[MemoryRequest, float], None]
    ) -> "TraceHookHandle":
        """Observe every accepted memory request (used by the trace recorder).

        The hook fires synchronously after a request is accepted into a
        controller queue, with ``(request, submit_time_ns)``.  Hooks must not
        mutate the request; they exist purely for capture.

        Returns a :class:`TraceHookHandle` whose :meth:`~TraceHookHandle.detach`
        removes the hook again; detaching is idempotent.
        """
        self._trace_hooks.append(hook)
        return TraceHookHandle(self, hook)

    def detach_trace_hook(
        self, hook: Callable[[MemoryRequest, float], None]
    ) -> None:
        """Remove a hook registered with :meth:`attach_trace_hook`.

        Idempotent: detaching a hook that is not (or no longer) attached is a
        no-op, so teardown paths that run more than once stay raise-free.
        """
        try:
            self._trace_hooks.remove(hook)
        except ValueError:
            pass

    # ----------------------------------------------------- fabric integration
    def _fabric_deliver(
        self, request: MemoryRequest, wake: Callable[[], None]
    ) -> bool:
        """Admit a fabric-delivered request into its channel controller.

        This is the back half of the direct submit path: controller admission
        plus the trace hooks, which observe *accepted* requests and therefore
        fire at delivery time (not injection time) under a fabric.  Returns
        ``False`` when the controller queue is full, in which case the
        controller has parked ``wake`` and the fabric keeps holding its last
        buffer slot until it fires -- backpressure into the mesh.
        """
        accepted = self._domain_controllers[request.domain][
            request.dram_addr.channel
        ].enqueue(request, wake)
        if accepted and self._trace_hooks:
            for hook in self._trace_hooks:
                hook(request, self.engine.now)
        return accepted

    # ------------------------------------------------------------- simulation
    @property
    def now(self) -> float:
        return self.engine.now

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        return self.engine.run(until=until, max_events=max_events)

    def is_memory_idle(self) -> bool:
        if self._fabric is not None and not self._fabric.is_idle():
            return False
        return self.dram.is_idle() and self.pim.is_idle()

    def reset_state(self) -> None:
        """Return the quiesced system to its just-built state.

        Rewinds the simulation clock to 0 ns and resets every component that
        carries absolute timestamps or run-local state: channel controllers
        (open rows, CAS history, refresh deadlines), the OS scheduler's run
        queue, CPU busy-interval accounting, the LLC and the stats registry.
        Pending simulation events are discarded (the memory systems must be
        idle -- resetting mid-transfer raises).

        A run started after ``reset_state`` is bit-identical to the same run
        on a freshly built system, which is how :class:`repro.api.Session`
        isolates consecutive runs without paying system construction again.
        Trace hooks survive the reset: they are observer wiring, not run state.
        """
        if not self.is_memory_idle():
            raise RuntimeError("cannot reset a system with memory requests in flight")
        self.scheduler.reset()
        self.engine.reset()
        self.dram.reset()
        self.pim.reset()
        self.cpu.reset()
        self.llc.reset()
        if self._fabric is not None:
            self._fabric.reset()
        self.stats.reset()


def build_mapper(
    config: SystemConfig, design_point: DesignPoint
) -> SystemAddressMapper:
    """Select the system mapper implied by a design point.

    The baseline and the vanilla-DCE design point (Base+D) keep today's
    homogeneous locality-centric mapping; Base+D+H and the full PIM-MMU use
    HetMap.
    """
    if design_point.uses_hetmap:
        return HeterogeneousMapper.build(config.dram, config.pim)
    return HomogeneousMapper.build(config.dram, config.pim)


def build_system(
    config: Optional[SystemConfig] = None,
    design_point: DesignPoint = DesignPoint.BASELINE,
    engine: Optional[SimulationEngine] = None,
    stats: Optional[StatsRegistry] = None,
) -> PimSystem:
    """Build a :class:`PimSystem` for a Figure 15 design point (Table I defaults)."""
    config = config if config is not None else SystemConfig.paper_baseline()
    mapper = build_mapper(config, design_point)
    return PimSystem(
        config=config,
        mapper=mapper,
        design_point=design_point,
        engine=engine,
        stats=stats,
    )


__all__ = ["PimSystem", "TraceHookHandle", "build_mapper", "build_system"]
