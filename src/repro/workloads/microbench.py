"""CPU-DPU transfer microbenchmark harness (Figures 13 and 15).

``run_transfer_experiment`` runs one DRAM<->PIM bulk transfer on a freshly
built system for any of the four design points, in either direction, and
returns a :class:`TransferExperiment` bundling the timing result and its
energy breakdown.

Large transfer sizes (the paper sweeps 1 MB-256 MB) are handled the same way
the paper's own hybrid methodology handles PIM kernels: the steady-state
behaviour is simulated in detail (up to ``sim_cap_bytes``) and the remainder
is extrapolated at the measured steady rate.  Transfer throughput is flat
beyond a few hundred KB per direction, so the extrapolation preserves the
figure's shape while keeping the cycle-level simulation tractable in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.energy.system import EnergyBreakdown, SystemEnergyModel
from repro.host.os_scheduler import SchedulableThread
from repro.registry import Variants
from repro.sim.config import (
    CACHE_LINE_BYTES,
    DesignPoint,
    SystemConfig,
)
from repro.system import PimSystem, build_system
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.transfer.result import TransferResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import TransferBackend

MIB = 1024 * 1024

ContenderFactory = Callable[[PimSystem], Sequence[SchedulableThread]]


@dataclass
class TransferExperiment:
    """Outcome of one transfer microbenchmark run."""

    design_point: DesignPoint
    direction: TransferDirection
    requested_bytes: int
    simulated_bytes: int
    result: TransferResult
    energy: EnergyBreakdown
    pim_peak_gbps: float
    dram_peak_gbps: float

    @property
    def duration_ns(self) -> float:
        return self.result.duration_ns

    @property
    def throughput_gbps(self) -> float:
        return self.result.throughput_gbps

    @property
    def pim_utilization(self) -> float:
        return self.throughput_gbps / self.pim_peak_gbps

    @property
    def energy_joules(self) -> float:
        return self.energy.total_j

    @property
    def energy_efficiency_gb_per_joule(self) -> float:
        if self.energy_joules <= 0:
            return 0.0
        return (self.requested_bytes / 1e9) / self.energy_joules


def per_core_bytes(total_bytes: int, num_cores: int) -> int:
    """Cache-line-aligned bytes each PIM core receives out of ``total_bytes``."""
    per_core = total_bytes // num_cores
    per_core = max(CACHE_LINE_BYTES, per_core - per_core % CACHE_LINE_BYTES)
    return per_core


def _scale_result(
    result: TransferResult, descriptor: TransferDescriptor, factor: float
) -> TransferResult:
    """Extrapolate a steady-state simulation to the full requested size."""
    if factor <= 1.0:
        return result
    return TransferResult(
        descriptor=descriptor,
        design_label=result.design_label,
        start_ns=result.start_ns,
        end_ns=result.start_ns + result.duration_ns * factor,
        cpu_core_busy_ns=result.cpu_core_busy_ns * factor,
        dce_busy_ns=result.dce_busy_ns * factor,
        dram_read_bytes=int(result.dram_read_bytes * factor),
        dram_write_bytes=int(result.dram_write_bytes * factor),
        pim_read_bytes=int(result.pim_read_bytes * factor),
        pim_write_bytes=int(result.pim_write_bytes * factor),
        per_channel_pim_bytes={
            channel: int(value * factor)
            for channel, value in result.per_channel_pim_bytes.items()
        },
        per_channel_dram_bytes={
            channel: int(value * factor)
            for channel, value in result.per_channel_dram_bytes.items()
        },
        extra={key: value * factor for key, value in result.extra.items()},
    )


def execute_transfer(
    system: PimSystem,
    descriptor: TransferDescriptor,
    contenders: Sequence[SchedulableThread] = (),
    backend: Optional["TransferBackend"] = None,
) -> TransferResult:
    """Dispatch a descriptor to the backend implied by the system's design point.

    The design-point -> backend rule lives in
    :func:`repro.api.backends.default_backend_name`; pass ``backend`` to run
    the same descriptor through a different registered stack.
    """
    # Imported lazily: repro.api composes engines from several subpackages
    # (including this one), so a module-level import would be circular.
    from repro.api.backends import resolve_backend

    if backend is None:
        backend = resolve_backend(system.design_point)
    return backend.execute(system, descriptor, contenders=contenders)


def run_transfer_experiment(
    design_point: DesignPoint,
    direction: TransferDirection,
    total_bytes: int,
    config: Optional[SystemConfig] = None,
    num_pim_cores: Optional[int] = None,
    sim_cap_bytes: int = 1 * MIB,
    contender_factory: Optional[ContenderFactory] = None,
    scheduling_quantum_ns: Optional[float] = None,
    memctrl_policy: Optional[str] = None,
    fabric: Optional[str] = None,
) -> TransferExperiment:
    """Run (and, beyond ``sim_cap_bytes``, extrapolate) one transfer experiment.

    ``scheduling_quantum_ns`` overrides the OS scheduling quantum of the
    supplied configuration (the Figure 13 contention study scales it down to
    keep the transfer-to-quantum ratio of the paper's much larger transfers);
    ``memctrl_policy`` overrides the memory-scheduler policy spec (see
    :mod:`repro.memctrl.policies`); ``fabric`` selects the interconnect
    fabric (``none``/``mesh:WxH``, see :mod:`repro.fabric`).
    """
    config = config if config is not None else SystemConfig.paper_baseline()
    if scheduling_quantum_ns is not None:
        config = replace(
            config, os=replace(config.os, scheduling_quantum_ns=scheduling_quantum_ns)
        )
    config = Variants(policy=memctrl_policy, fabric=fabric).apply(config)
    system = build_system(config=config, design_point=design_point)
    return run_transfer_experiment_on(
        system,
        direction,
        total_bytes,
        num_pim_cores=num_pim_cores,
        sim_cap_bytes=sim_cap_bytes,
        contender_factory=contender_factory,
    )


def run_transfer_experiment_on(
    system: PimSystem,
    direction: TransferDirection,
    total_bytes: int,
    num_pim_cores: Optional[int] = None,
    sim_cap_bytes: int = 1 * MIB,
    contender_factory: Optional[ContenderFactory] = None,
    backend: Optional["TransferBackend"] = None,
) -> TransferExperiment:
    """Run one transfer experiment on an already-built (quiesced) system.

    The on-system variant of :func:`run_transfer_experiment`; it is what
    :meth:`repro.api.Session.transfer` calls against the session's long-lived
    system.  ``backend`` overrides the design point's default transfer stack.
    """
    from repro.api.backends import resolve_backend

    config = system.config
    if backend is None:
        backend = resolve_backend(system.design_point)
    cores = num_pim_cores if num_pim_cores is not None else system.topology.num_dpus
    core_ids = list(range(cores))

    requested_per_core = per_core_bytes(total_bytes, cores)
    simulated_per_core = min(requested_per_core, per_core_bytes(sim_cap_bytes, cores))
    requested_bytes = requested_per_core * cores
    simulated_bytes = simulated_per_core * cores

    sim_descriptor = TransferDescriptor.contiguous(
        direction=direction,
        dram_base=0,
        size_per_core_bytes=simulated_per_core,
        pim_core_ids=core_ids,
    )
    full_descriptor = TransferDescriptor.contiguous(
        direction=direction,
        dram_base=0,
        size_per_core_bytes=requested_per_core,
        pim_core_ids=core_ids,
    )
    contenders = tuple(contender_factory(system)) if contender_factory else ()
    raw_result = execute_transfer(
        system, sim_descriptor, contenders=contenders, backend=backend
    )
    factor = requested_per_core / simulated_per_core
    result = _scale_result(raw_result, full_descriptor, factor)

    energy_model = SystemEnergyModel(config)
    energy = energy_model.evaluate(result, include_pim_mmu=backend.uses_dce)
    return TransferExperiment(
        design_point=system.design_point,
        direction=direction,
        requested_bytes=requested_bytes,
        simulated_bytes=simulated_bytes,
        result=result,
        energy=energy,
        pim_peak_gbps=config.pim.peak_bandwidth_gbps,
        dram_peak_gbps=config.dram.peak_bandwidth_gbps,
    )


def extrapolate_experiment(
    window: TransferExperiment,
    total_bytes: int,
    config: Optional[SystemConfig] = None,
) -> TransferExperiment:
    """Derive the experiment for ``total_bytes`` from a simulated window.

    ``run_transfer_experiment`` simulates the steady state up to
    ``sim_cap_bytes`` and extrapolates the remainder; this helper applies the
    exact same extrapolation rule to an already-simulated window experiment,
    so cached windows can serve any larger requested size without re-running
    the simulation.  The result is bit-identical to what
    ``run_transfer_experiment`` returns for the same inputs.
    """
    config = config if config is not None else SystemConfig.paper_baseline()
    descriptor = window.result.descriptor
    cores = descriptor.num_cores
    simulated_per_core = descriptor.size_per_core_bytes
    requested_per_core = per_core_bytes(total_bytes, cores)
    if requested_per_core < simulated_per_core:
        raise ValueError(
            f"cannot extrapolate down: window simulates {simulated_per_core} B/core, "
            f"requested {requested_per_core} B/core"
        )
    full_descriptor = TransferDescriptor.contiguous(
        direction=window.direction,
        dram_base=0,
        size_per_core_bytes=requested_per_core,
        pim_core_ids=list(descriptor.pim_core_ids),
    )
    factor = requested_per_core / simulated_per_core
    result = _scale_result(window.result, full_descriptor, factor)
    energy = SystemEnergyModel(config).evaluate(
        result, include_pim_mmu=window.design_point.uses_dce
    )
    return TransferExperiment(
        design_point=window.design_point,
        direction=window.direction,
        requested_bytes=requested_per_core * cores,
        simulated_bytes=window.simulated_bytes,
        result=result,
        energy=energy,
        pim_peak_gbps=window.pim_peak_gbps,
        dram_peak_gbps=window.dram_peak_gbps,
    )


__all__ = [
    "ContenderFactory",
    "TransferExperiment",
    "execute_transfer",
    "extrapolate_experiment",
    "per_core_bytes",
    "run_transfer_experiment",
    "run_transfer_experiment_on",
]
