"""Pluggable transfer backends behind one string-keyed registry.

The reproduction models three transfer stacks -- the PIM-MMU Data Copy
Engine, the baseline software ``dpu_push_xfer`` and the multi-threaded
DRAM->DRAM memcpy -- plus the conventional-DMA proxy of the ``Base+D``
ablation.  Historically every caller hand-picked the engine class *and*
re-derived the design-point -> engine mapping; this module turns the engines
into registered adapters behind a small :class:`TransferBackend` protocol:

* ``"pim_mmu"``    -- the DCE driven by PIM-MS (Algorithm 1), the full design.
* ``"dce_serial"`` -- the DCE as a conventional serial DMA engine (``Base+D``).
* ``"software"``   -- the baseline multi-threaded CPU copy stack.
* ``"memcpy"``     -- the AVX-style DRAM->DRAM streaming copy (Figure 14).

:func:`default_backend_name` is the **single** place the design-point ->
backend rule lives; :func:`resolve_backend` applies it.  Registering a new
backend (a remote transport, an NDP engine variant, ...) makes it reachable
from every :class:`~repro.api.session.Session` entry point, the scenario
composer and the microbenchmark harness without touching any of them.

Backends move either a DRAM<->PIM :class:`~repro.transfer.descriptor.
TransferDescriptor` or a DRAM->DRAM :class:`CopySpan`; ``accepts(work)``
advertises which, and handing a backend the wrong work type raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.dce import DataCopyEngine
from repro.registry import VariantRegistry
from repro.sim.config import DcePolicy, DesignPoint
from repro.transfer.descriptor import TransferDescriptor
from repro.transfer.result import TransferResult
from repro.upmem_runtime.engine import SoftwareTransferEngine
from repro.workloads.memcpy import MemcpyEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.os_scheduler import SchedulableThread
    from repro.system import PimSystem


@dataclass(frozen=True)
class CopySpan:
    """One DRAM->DRAM copy: the memcpy backend's unit of work."""

    src_base: int
    dst_base: int
    total_bytes: int
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")


#: Work item types a backend may be handed.
TransferWork = Union[TransferDescriptor, CopySpan]


@runtime_checkable
class TransferBackend(Protocol):
    """One way of moving bytes through the simulated system.

    Implementations are stateless adapters: each ``execute``/``begin`` call
    constructs the underlying engine against the system it is given, so one
    backend instance can serve any number of systems and runs.
    """

    #: Registry key; stable, lowercase, also used in :class:`RunResult.backend`.
    name: str
    #: One-line description for ``repro backends`` and the docs.
    description: str
    #: Whether transfers through this backend exercise the PIM-MMU hardware
    #: (drives the energy model's ``include_pim_mmu`` flag).
    uses_dce: bool

    def accepts(self, work: TransferWork) -> bool:
        """Whether this backend can move ``work``."""
        ...

    def execute(
        self,
        system: "PimSystem",
        work: TransferWork,
        contenders: Sequence["SchedulableThread"] = (),
    ) -> TransferResult:
        """Run one transfer to completion on ``system`` and return its result."""
        ...

    def begin(
        self,
        system: "PimSystem",
        work: TransferWork,
        on_complete: Optional[Callable[[TransferResult], None]] = None,
        shared: bool = False,
    ) -> None:
        """Start one transfer without blocking (multi-tenant composition).

        ``shared=True`` tells CPU-driven backends that other traffic sources
        run on the same OS scheduler, so finishing must not stop it.
        """
        ...


def _require_descriptor(backend: "TransferBackend", work: TransferWork) -> TransferDescriptor:
    if not isinstance(work, TransferDescriptor):
        raise TypeError(
            f"backend {backend.name!r} moves DRAM<->PIM TransferDescriptors, "
            f"got {type(work).__name__}"
        )
    return work


def _require_span(backend: "TransferBackend", work: TransferWork) -> CopySpan:
    if not isinstance(work, CopySpan):
        raise TypeError(
            f"backend {backend.name!r} moves DRAM->DRAM CopySpans, "
            f"got {type(work).__name__}"
        )
    return work


class DceBackend:
    """The hardware Data Copy Engine, parameterised by its issue policy."""

    name = "pim_mmu"
    description = "PIM-MMU Data Copy Engine with PIM-MS scheduling (Algorithm 1)"
    uses_dce = True
    policy = DcePolicy.PIM_MS

    def accepts(self, work: TransferWork) -> bool:
        return isinstance(work, TransferDescriptor)

    def _engine(self, system: "PimSystem"):
        return DataCopyEngine(system, policy=self.policy)

    def execute(
        self,
        system: "PimSystem",
        work: TransferWork,
        contenders: Sequence["SchedulableThread"] = (),
    ) -> TransferResult:
        descriptor = _require_descriptor(self, work)
        if contenders:
            # Contenders occupy CPU cores independently of the DCE; they join
            # the scheduler so their memory traffic competes with the
            # offloaded transfer (Figure 13b), but they cannot slow the DCE
            # down directly.
            for contender in contenders:
                system.scheduler.add_thread(contender)
            system.scheduler.start()
        return self._engine(system).execute(descriptor)

    def begin(
        self,
        system: "PimSystem",
        work: TransferWork,
        on_complete: Optional[Callable[[TransferResult], None]] = None,
        shared: bool = False,
    ) -> None:
        descriptor = _require_descriptor(self, work)
        self._engine(system).begin(descriptor, on_complete=on_complete)


class DceSerialBackend(DceBackend):
    """The DCE emulating a conventional DMA engine (the ``Base+D`` proxy)."""

    name = "dce_serial"
    description = "DCE as a conventional serial DMA engine (Base+D ablation)"
    policy = DcePolicy.SERIAL_PER_CORE


class SoftwareBackend:
    """The baseline multi-threaded ``dpu_push_xfer`` software stack."""

    name = "software"
    description = "baseline multi-threaded CPU copy threads (dpu_push_xfer)"
    uses_dce = False

    def accepts(self, work: TransferWork) -> bool:
        return isinstance(work, TransferDescriptor)

    def execute(
        self,
        system: "PimSystem",
        work: TransferWork,
        contenders: Sequence["SchedulableThread"] = (),
    ) -> TransferResult:
        descriptor = _require_descriptor(self, work)
        return SoftwareTransferEngine(system).execute(descriptor, contenders=contenders)

    def begin(
        self,
        system: "PimSystem",
        work: TransferWork,
        on_complete: Optional[Callable[[TransferResult], None]] = None,
        shared: bool = False,
    ) -> None:
        descriptor = _require_descriptor(self, work)
        engine = SoftwareTransferEngine(system, stop_scheduler_on_finish=not shared)
        engine.begin(descriptor, on_complete=on_complete)


class MemcpyBackend:
    """The multi-threaded DRAM->DRAM streaming copy (ordinary non-PIM traffic)."""

    name = "memcpy"
    description = "multi-threaded AVX-style DRAM->DRAM copy (Figure 14)"
    uses_dce = False

    def accepts(self, work: TransferWork) -> bool:
        return isinstance(work, CopySpan)

    def execute(
        self,
        system: "PimSystem",
        work: TransferWork,
        contenders: Sequence["SchedulableThread"] = (),
    ) -> TransferResult:
        span = _require_span(self, work)
        if contenders:
            raise ValueError("the memcpy backend does not take contender threads")
        engine = MemcpyEngine(system, tenant=span.tenant)
        return engine.execute(
            src_base=span.src_base, dst_base=span.dst_base, total_bytes=span.total_bytes
        )

    def begin(
        self,
        system: "PimSystem",
        work: TransferWork,
        on_complete: Optional[Callable[[TransferResult], None]] = None,
        shared: bool = False,
    ) -> None:
        span = _require_span(self, work)
        engine = MemcpyEngine(
            system, tenant=span.tenant, stop_scheduler_on_finish=not shared
        )
        engine.begin(
            src_base=span.src_base,
            dst_base=span.dst_base,
            total_bytes=span.total_bytes,
            on_complete=on_complete,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: The transfer-backend axis on the shared variant-registry mechanism.
#: Backend specs are exact names with no ``:args`` suffix; listings are
#: sorted (the historical ``available_backends`` contract).
BACKENDS = VariantRegistry(
    "backend",
    error=KeyError,
    known_label="registered",
    dup_label="backend",
    normalize_names=False,
    parse_specs=False,
    sort_names=True,
)


def register_backend(
    name: str,
    factory: Callable[[], TransferBackend],
    replace: bool = False,
    description: str = "",
) -> None:
    """Register a backend factory under ``name`` (``replace=True`` to override)."""
    BACKENDS.register(name, factory, description, replace=replace)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    BACKENDS.unregister(name)


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(BACKENDS.names())


def create_backend(name: str) -> TransferBackend:
    """Instantiate the backend registered under ``name``."""
    return BACKENDS.create(name)


register_backend(
    DceBackend.name, DceBackend,
    description="full PIM-MMU: DCE offload with PIM-MS descriptor scheduling",
)
register_backend(
    DceSerialBackend.name, DceSerialBackend,
    description="DCE offload with serial descriptor processing (Base+D/+DH)",
)
register_backend(
    SoftwareBackend.name, SoftwareBackend,
    description="host-software copy loop (baseline design point)",
)
register_backend(
    MemcpyBackend.name, MemcpyBackend,
    description="host memcpy reference (no PIM interaction)",
)


# The single place the design-point -> default-backend rule lives.  Base+D
# and Base+D+H offload to the DCE but without PIM-MS (serial descriptor
# processing); only the full PIM-MMU point enables Algorithm 1.
_DESIGN_POINT_DEFAULTS: Dict[DesignPoint, str] = {
    DesignPoint.BASELINE: SoftwareBackend.name,
    DesignPoint.BASE_D: DceSerialBackend.name,
    DesignPoint.BASE_DH: DceSerialBackend.name,
    DesignPoint.BASE_DHP: DceBackend.name,
}


def default_backend_name(design_point: DesignPoint) -> str:
    """The backend a design point's DRAM<->PIM transfers run on by default."""
    return _DESIGN_POINT_DEFAULTS[design_point]


def resolve_backend(
    design_point: DesignPoint, name: Optional[str] = None
) -> TransferBackend:
    """Instantiate ``name``, or the design point's default backend when omitted."""
    return create_backend(name if name is not None else default_backend_name(design_point))


__all__ = [
    "BACKENDS",
    "CopySpan",
    "DceBackend",
    "DceSerialBackend",
    "MemcpyBackend",
    "SoftwareBackend",
    "TransferBackend",
    "TransferWork",
    "available_backends",
    "create_backend",
    "default_backend_name",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
]
