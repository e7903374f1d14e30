"""Abstract interconnect topology interposed between engines and memory.

A :class:`Topology` sits between :class:`repro.system.PimSystem`'s submit
entry points and the per-channel controllers.  ``fabric="none"`` (the
default) builds **no** topology object at all -- the system keeps its direct
controller dispatch, which is how the pass-through stays bit-identical to
the pre-fabric hot path by construction.  Any other fabric receives every
decoded request through :meth:`Topology.inject` and is responsible for
eventually delivering it to its target controller through the system's
delivery callback.

The contract mirrors the controllers' submit-or-park admission exactly:

* :meth:`inject` returns ``False`` when the fabric cannot accept the request
  right now (no injection credit).  In the same step it parks the caller's
  ``wake`` callback (when given) on the resource that refused, and fires it
  one-shot when injection capacity frees up; the caller keeps the request
  and retries from ``wake``.
* Delivery happens at simulated time: the fabric schedules hops on the
  system's engine and calls back into the system when a request reaches its
  endpoint, where the normal controller admission (and trace hooks) run.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.memctrl.request import MemoryRequest


class Topology:
    """Base class for pluggable interconnect fabrics (see ``repro variants``)."""

    #: Registry key (set on registration).
    name: str = "abstract"

    def inject(
        self, request: MemoryRequest, wake: Optional[Callable[[], None]] = None
    ) -> bool:
        """Accept a decoded request into the fabric; ``False`` = no capacity.

        On refusal, ``wake`` (if not ``None``) fires once when the request's
        injection port frees up.
        """
        raise NotImplementedError

    def planned_hops(self, request: MemoryRequest) -> int:
        """Hops the (deterministic) route for ``request`` will take."""
        return 0

    def is_idle(self) -> bool:
        """Whether no request is in flight inside the fabric."""
        return True

    def reset(self) -> None:
        """Forget all in-flight state (power-on reset; fabric must be idle)."""


__all__ = ["Topology"]
