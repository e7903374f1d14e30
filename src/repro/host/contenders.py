"""Co-located contender workloads used in the Figure 13 sensitivity study.

Two families of contenders exist:

* :class:`ComputeContenderThread` -- a spinlock-like thread whose memory
  accesses are captured by the on-chip caches.  Its only effect on the system
  is occupying a CPU core, which starves the baseline's multi-threaded
  transfer of cores (Figure 13a).
* :class:`MemoryContenderThread` -- a pointer-chasing / streaming thread that
  continuously injects DRAM reads.  Its memory-access intensity is swept from
  "low" to "very high" by shrinking the CPU think-time between requests
  (Figure 13b), stealing memory bandwidth from the transfer in addition to a
  core.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Tuple

from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.engine import SimulationEngine


class TrafficPort(Protocol):
    """Minimal interface a traffic source needs from the memory hierarchy."""

    def submit(
        self, request: MemoryRequest, wake: Optional[Callable[[], None]] = None
    ) -> bool:
        """Decode and enqueue a request; returns False when the target is full.

        On refusal, ``wake`` (unless ``None``) is parked on the refusing
        resource and invoked once when it frees a slot.
        """
        ...


# Think time (ns of CPU work between successive memory requests) per intensity
# level of Figure 13(b).  "Very high" is an almost pure memory stream.
MEMORY_INTENSITY_THINK_NS = {
    "low": 200.0,
    "medium": 60.0,
    "high": 20.0,
    "very_high": 4.0,
}


class ComputeContenderThread:
    """A cache-resident, compute-bound contender (spinlock-style)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._running = False

    def on_scheduled(self, now_ns: float) -> None:
        self._running = True

    def on_preempted(self, now_ns: float) -> None:
        self._running = False

    def is_finished(self) -> bool:
        # Contenders run for the whole experiment; the harness stops the
        # scheduler when the measured transfer finishes.
        return False


class MemoryContenderThread:
    """A memory-intensive contender issuing DRAM reads while it holds a core."""

    def __init__(
        self,
        name: str,
        engine: SimulationEngine,
        port: TrafficPort,
        buffer_base: int,
        buffer_bytes: int,
        intensity: str = "high",
        max_outstanding: int = 8,
        seed: int = 0,
    ) -> None:
        if intensity not in MEMORY_INTENSITY_THINK_NS:
            raise ValueError(
                f"unknown intensity '{intensity}'; expected one of "
                f"{sorted(MEMORY_INTENSITY_THINK_NS)}"
            )
        if buffer_bytes < 64:
            raise ValueError("contender buffer must hold at least one cache line")
        self.name = name
        self.engine = engine
        self.port = port
        self.buffer_base = buffer_base
        self.buffer_bytes = buffer_bytes
        self.intensity = intensity
        self.think_time_ns = MEMORY_INTENSITY_THINK_NS[intensity]
        self.max_outstanding = max_outstanding
        # Endless pointer-chasing stream over the private buffer (truncated to
        # whole cache lines), shared with the scenario trace synthesisers.
        # Imported lazily: repro.workloads pulls in repro.host at package
        # import time, so a module-level import here would be circular.
        from repro.workloads.streams import random_blocks

        self._addresses = random_blocks(
            buffer_base, (buffer_bytes // 64) * 64, seed=seed
        )
        self._running = False
        self._outstanding = 0
        self.requests_issued = 0
        self.bytes_transferred = 0

    # ------------------------------------------------------------- scheduling
    def on_scheduled(self, now_ns: float) -> None:
        self._running = True
        self._pump()

    def on_preempted(self, now_ns: float) -> None:
        self._running = False

    def is_finished(self) -> bool:
        return False

    # ----------------------------------------------------------------- traffic
    def _pump(self) -> None:
        while self._running and self._outstanding < self.max_outstanding:
            request = MemoryRequest(
                phys_addr=next(self._addresses),
                is_write=False,
                stream=RequestStream.CONTENDER,
                on_complete=self._on_complete,
            )
            if not self.port.submit(request, self._pump):
                return
            self._outstanding += 1
            self.requests_issued += 1

    def _on_complete(self, request: MemoryRequest) -> None:
        self._outstanding -= 1
        self.bytes_transferred += request.size_bytes
        if self._running:
            if self.think_time_ns > 0:
                self.engine.schedule_after(self.think_time_ns, self._pump)
            else:
                self._pump()


# ---------------------------------------------------------------------------
# Contender registry
# ---------------------------------------------------------------------------

#: Builders keyed by contender kind, mirroring the transfer-backend registry
#: of :mod:`repro.api.backends`: a builder takes kind-specific keyword
#: arguments (``count``, ``intensity``, ...) and returns a picklable-free
#: per-system factory (a ``ContenderFactory`` in microbench terms).  The
#: Figure 13 kinds (``compute``, ``memory``) register themselves when
#: :mod:`repro.workloads.contention` is imported; new contender families
#: plug in here and become reachable from :class:`repro.exp.spec.
#: ContentionSpec` and :meth:`repro.api.Session.transfer` without touching
#: either.
_CONTENDER_BUILDERS: Dict[str, Callable[..., Callable]] = {}


def register_contender(
    kind: str, builder: Callable[..., Callable], replace: bool = False
) -> None:
    """Register a contender-factory builder under ``kind``."""
    if not replace and kind in _CONTENDER_BUILDERS:
        raise ValueError(f"contender kind {kind!r} is already registered")
    _CONTENDER_BUILDERS[kind] = builder


def available_contenders() -> Tuple[str, ...]:
    """The registered contender kinds, sorted (built-ins register on import)."""
    import repro.workloads.contention  # noqa: F401  (registers the built-ins)

    return tuple(sorted(_CONTENDER_BUILDERS))


def create_contender_factory(kind: str, **kwargs) -> Callable:
    """Build the per-system contender factory registered under ``kind``."""
    import repro.workloads.contention  # noqa: F401  (registers the built-ins)

    try:
        builder = _CONTENDER_BUILDERS[kind]
    except KeyError:
        known = ", ".join(sorted(_CONTENDER_BUILDERS))
        raise KeyError(f"unknown contender kind {kind!r}; registered: {known}") from None
    return builder(**kwargs)


__all__ = [
    "ComputeContenderThread",
    "MEMORY_INTENSITY_THINK_NS",
    "MemoryContenderThread",
    "TrafficPort",
    "available_contenders",
    "create_contender_factory",
    "register_contender",
]
