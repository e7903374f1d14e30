"""repro -- a reproduction of "PIM-MMU: A Memory Management Unit for
Accelerating Data Transfers in Commercial PIM Systems" (MICRO 2024).

The package contains a cycle-approximate simulator of a memory-bus-integrated
PIM server (UPMEM-style), the baseline software data-transfer stack, and the
PIM-MMU hardware/software co-design (Data Copy Engine, PIM-aware Memory
Scheduler and Heterogeneous Memory Mapping Unit), together with the workloads
and harnesses that regenerate every table and figure of the paper's
evaluation.

All traffic flows through the :mod:`repro.api` facade: a :class:`Session`
owns one simulated server and drives transfers, trace replays and
multi-tenant mixes through registered
:class:`~repro.api.backends.TransferBackend`\\ s, returning one typed
:class:`RunResult` everywhere; see ``docs/api.md``.  The :mod:`repro.exp`
subpackage orchestrates experiments declaratively (sweeps, a parallel
process-pool runner, an on-disk result cache) and powers the
``python -m repro`` CLI; see ``docs/experiments.md``.  The
:mod:`repro.scenarios` subpackage layers trace record/replay and multi-tenant
workload mixes on top of it; see ``docs/scenarios.md``.  A subsystem map with
a request-lifecycle walkthrough lives in ``docs/architecture.md``.

Quickstart
----------
>>> from repro import DesignPoint, Session
>>> with Session.open(design_point=DesignPoint.BASE_DHP) as session:
...     result = session.transfer(total_bytes=1 << 20)
>>> result.backend
'pim_mmu'
>>> result.throughput_gbps > 0
True

The pre-facade entry points (``build_system`` + hand-constructed engines)
keep working behind ``DeprecationWarning`` shims and produce byte-identical
numbers.
"""

import warnings as _warnings
from typing import Optional as _Optional

from repro._lazy import exported_names as _exported_names
from repro._lazy import lazy_exports as _lazy_exports
from repro.sim.config import DesignPoint as _DesignPoint

#: Defining module -> the names re-exported from it.  Each resolves on first
#: access, so ``import repro`` loads only what a run goes on to execute.
_EXPORTS = {
    "repro.api": (
        "RequestRecord",
        "RunResult",
        "Session",
        "SessionBuilder",
        "TenantBreakdown",
        "TransferBackend",
        "available_backends",
        "default_backend_name",
        "register_backend",
    ),
    "repro.fabric": ("available_fabrics", "register_fabric"),
    "repro.memctrl.policies": ("available_policies", "register_policy"),
    "repro.registry": ("VariantRegistry", "Variants"),
    "repro.sim.config": (
        "CpuConfig",
        "DcePolicy",
        "DesignPoint",
        "DramTimingConfig",
        "MemoryDomainConfig",
        "PimMmuConfig",
        "SystemConfig",
    ),
    "repro.system": ("PimSystem",),
    "repro.transfer": ("TransferDescriptor", "TransferDirection", "TransferResult"),
    "repro.scenarios.registry": ("ScenarioSpec",),
    "repro.scenarios.serving": ("ServingSpec",),
    "repro.scenarios.tenant": ("TenantSpec",),
    "repro.workloads.llm": ("LlmTenantSpec", "ModelSpec"),
}
__getattr__ = _lazy_exports(globals(), _EXPORTS)

__version__ = "1.5.0"


def build_system(
    config: _Optional["SystemConfig"] = None,
    design_point: "DesignPoint" = _DesignPoint.BASELINE,
    engine: _Optional["SimulationEngine"] = None,
    stats: _Optional["StatsRegistry"] = None,
) -> "PimSystem":
    """Deprecated shim for the pre-``Session`` quickstart path.

    Builds the same :class:`~repro.system.PimSystem` it always did (internal
    code keeps using :func:`repro.system.build_system`, which does not warn),
    but new code should open a :class:`Session` instead -- it owns the system
    lifecycle, isolates consecutive runs and returns typed results.
    """
    _warnings.warn(
        "repro.build_system() is deprecated; open a repro.Session instead "
        "(Session.open(config=..., design_point=...))",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.system import build_system as _build_system

    return _build_system(
        config=config, design_point=design_point, engine=engine, stats=stats
    )


__all__ = _exported_names(_EXPORTS, "__version__", "build_system")
