"""2-D mesh interconnect: slotted routers, X-Y routing, credit flow control.

The mesh places every traffic endpoint on a ``width x height`` grid of
router nodes, row-major: first the ingress node(s) (hosts and the DCE inject
here), then one node per DRAM channel controller, then one per PIM channel
controller.  A request decoded to ``(domain, channel)`` is carried from its
ingress node to the channel's node in fixed-latency hops under deterministic
dimension-ordered X-Y routing (all X movement first, then Y), which is
provably deadlock-free on a mesh -- the only cycles in the channel
dependency graph would need a Y->X turn that X-Y routing never makes.

Flow control is credit-based, one credit pool per directed link: a flit
(one request) occupies a downstream buffer slot for the whole time it sits
on or waits at that link, and the credit returns upstream only when the
flit moves on (or is delivered into a controller queue).  Backpressure
therefore propagates hop by hop all the way to the injection port, where
``inject`` returns ``False`` and parks the producer's wake callback on the
first-hop link -- the same submit-or-park contract the channel controllers
use, so every engine works against a meshed system unchanged.

Per-link flit/stall counters, hop counters and a queueing-delay histogram
land in the run's :class:`~repro.sim.stats.StatsRegistry` under
``fabric/...`` names and travel inside every ``RunResult`` snapshot.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.fabric.topology import Topology
from repro.memctrl.request import MemoryRequest

Coord = Tuple[int, int]


class _Flit:
    """One request crossing the mesh along its precomputed X-Y route.

    A flit is its own event callback: called in flight it completes a hop,
    called at its endpoint (a refused delivery parked it there) it retries
    delivery.  So moving a request allocates nothing beyond the flit.
    """

    __slots__ = ("mesh", "request", "route", "link", "hops", "inject_ns")

    def __init__(self, mesh, request, route, link, inject_ns) -> None:
        self.mesh = mesh
        self.request = request
        #: The links of the whole route, first hop first.
        self.route = route
        self.link = link
        self.hops = 0
        self.inject_ns = inject_ns

    def __call__(self) -> None:
        if self.hops == len(self.route):
            self.mesh._try_deliver(self)
        else:
            self.mesh._arrive(self)


class _Link:
    """One directed router-to-router link with a credit pool."""

    __slots__ = ("src", "dst", "credits", "capacity", "waiting", "listeners", "flits", "stalls")

    def __init__(self, src: Coord, dst: Coord, capacity: int, flits, stalls) -> None:
        self.src = src
        self.dst = dst
        self.credits = capacity
        self.capacity = capacity
        #: Flits parked at ``src`` waiting for a credit on this link (FIFO).
        self.waiting: deque = deque()
        #: One-shot wake callbacks of producers whose injection it refused.
        self.listeners: List[Callable[[], None]] = []
        self.flits = flits
        self.stalls = stalls


class MeshTopology(Topology):
    """Credit-flow-controlled 2-D mesh between engines and channel controllers."""

    name = "mesh"

    def __init__(
        self,
        system,
        width: int,
        height: int,
        hop_latency_ns: float = 2.0,
        link_credits: int = 4,
        num_ingress: int = 1,
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"mesh grid must be at least 1x1, got {width}x{height}")
        if link_credits < 1:
            raise ValueError(f"mesh link credits must be >= 1, got {link_credits}")
        if num_ingress < 1:
            raise ValueError(f"mesh needs at least one ingress node, got {num_ingress}")
        dram_channels = system.config.dram.channels
        pim_channels = system.config.pim.channels
        endpoints = num_ingress + dram_channels + pim_channels
        if endpoints > width * height:
            raise ValueError(
                f"mesh {width}x{height} has {width * height} nodes but the system "
                f"needs {endpoints} ({num_ingress} ingress + {dram_channels} dram "
                f"+ {pim_channels} pim channel endpoints); use a larger grid"
            )
        self.width = width
        self.height = height
        self.hop_latency_ns = hop_latency_ns
        self.link_credits = link_credits
        self.engine = system.engine
        self.stats = system.stats
        self._deliver = system._fabric_deliver

        # Row-major endpoint placement: ingress nodes first, then DRAM
        # channels, then PIM channels.  Deterministic, so routes (and the
        # per-request hop counts) are a pure function of the config.
        self._ingress: List[Coord] = [self._coord(i) for i in range(num_ingress)]
        self._endpoint: Dict[Tuple[str, int], Coord] = {}
        offset = num_ingress
        for channel in range(dram_channels):
            self._endpoint[("dram", channel)] = self._coord(offset + channel)
        offset += dram_channels
        for channel in range(pim_channels):
            self._endpoint[("pim", channel)] = self._coord(offset + channel)

        self._links: Dict[Tuple[Coord, Coord], _Link] = {}
        stats = self.stats
        for y in range(height):
            for x in range(width):
                for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if 0 <= nx < width and 0 <= ny < height:
                        src, dst = (x, y), (nx, ny)
                        label = f"fabric/link/{x},{y}->{nx},{ny}"
                        self._links[(src, dst)] = _Link(
                            src,
                            dst,
                            link_credits,
                            stats.counter(f"{label}/flits"),
                            stats.counter(f"{label}/stalls"),
                        )
        # X-Y routes depend only on the placement, so every (endpoint,
        # ingress) route is fixed here once as its tuple of links: injection
        # costs one lookup and each hop one index.  Every endpoint has a node
        # of its own, so no route is empty.
        self._num_ingress = num_ingress
        self._routes: Dict[Tuple[str, int], List[Tuple[_Link, ...]]] = {
            key: [self._route(src, dest) for src in self._ingress]
            for key, dest in self._endpoint.items()
        }
        self._injected = stats.counter("fabric/injected")
        self._delivered = stats.counter("fabric/delivered")
        self._hops = stats.counter("fabric/hops")
        self._wait_hist = stats.histogram("fabric/wait_ns")
        self._in_flight = 0

    # ------------------------------------------------------------- placement
    def _coord(self, index: int) -> Coord:
        return (index % self.width, index // self.width)

    def ingress_coord(self, source_id: int) -> Coord:
        """The grid node requests from ``source_id`` inject at."""
        return self._ingress[source_id % len(self._ingress)]

    def endpoint_coord(self, domain: str, channel: int) -> Coord:
        """The grid node hosting one channel controller's endpoint."""
        return self._endpoint[(domain, channel)]

    @staticmethod
    def hop_distance(src: Coord, dest: Coord) -> int:
        """Manhattan distance -- the exact hop count of the X-Y route."""
        return abs(src[0] - dest[0]) + abs(src[1] - dest[1])

    @staticmethod
    def _next_hop(coord: Coord, dest: Coord) -> Coord:
        x, y = coord
        if x < dest[0]:
            return (x + 1, y)
        if x > dest[0]:
            return (x - 1, y)
        if y < dest[1]:
            return (x, y + 1)
        return (x, y - 1)

    def _route(self, src: Coord, dest: Coord) -> Tuple[_Link, ...]:
        links = []
        while src != dest:
            hop = self._next_hop(src, dest)
            links.append(self._links[(src, hop)])
            src = hop
        return tuple(links)

    def planned_hops(self, request: MemoryRequest) -> int:
        return self.hop_distance(
            self.ingress_coord(request.source_id),
            self._endpoint[(request.domain, request.dram_addr.channel)],
        )

    # ---------------------------------------------------------------- traffic
    def inject(
        self, request: MemoryRequest, wake: Optional[Callable[[], None]] = None
    ) -> bool:
        """Consume the first-hop credit and start the request across the mesh.

        With no credit left the first-hop link stalls, parks ``wake`` (if
        given) until a credit returns, and ``False`` is returned.
        """
        route = self._routes[(request.domain, request.dram_addr.channel)][
            request.source_id % self._num_ingress
        ]
        link = route[0]
        if not link.credits:
            link.stalls.value += 1
            if wake is not None:
                link.listeners.append(wake)
            return False
        link.credits -= 1
        link.flits.value += 1
        engine = self.engine
        now = engine._now
        flit = _Flit(self, request, route, link, now)
        self._in_flight += 1
        self._injected.value += 1
        engine.schedule_callback(now + self.hop_latency_ns, flit)
        return True

    # ------------------------------------------------------------ flit motion
    def _arrive(self, flit: _Flit) -> None:
        hops = flit.hops + 1
        flit.hops = hops
        route = flit.route
        if hops == len(route):
            self._try_deliver(flit)
            return
        next_link = route[hops]
        if next_link.credits:
            self._forward(flit, next_link)
        else:
            # Hold the current buffer slot; the credit-return of next_link
            # will pick this flit up FIFO.  Head-of-line blocking is the
            # modelled behaviour of a slotted router.
            next_link.stalls.value += 1
            next_link.waiting.append(flit)

    def _forward(self, flit: _Flit, next_link: _Link) -> None:
        next_link.credits -= 1
        next_link.flits.value += 1
        released = flit.link
        flit.link = next_link
        engine = self.engine
        engine.schedule_callback(engine._now + self.hop_latency_ns, flit)
        self._release(released)

    def _try_deliver(self, flit: _Flit) -> None:
        # A full target controller queue parks the flit itself as the wake:
        # it keeps holding its last buffer slot (backpressure into the mesh)
        # and retries when the controller drains a slot.
        if self._deliver(flit.request, flit):
            self._finish(flit)

    def _finish(self, flit: _Flit) -> None:
        request = flit.request
        now = self.engine._now
        request.fabric_hops = flit.hops
        wait_ns = (now - flit.inject_ns) - flit.hops * self.hop_latency_ns
        # Engine times are tick-quantized floats; an uncontended route can
        # come out a few ulps below zero.  Queueing delay is never negative.
        request.fabric_wait_ns = wait_ns if wait_ns > 0.0 else 0.0
        # Latency histograms (controller and per-tenant) measure from
        # ``arrival_ns``; re-stamp it to the injection time so observed
        # latency is end-to-end (fabric traversal + queueing + service),
        # not admission-to-completion.  The direct path never runs this.
        request.arrival_ns = flit.inject_ns
        self._delivered.value += 1
        self._hops.value += flit.hops
        self._wait_hist.add(request.fabric_wait_ns)
        self._in_flight -= 1
        self._release(flit.link)

    def _release(self, link: _Link) -> None:
        """Return one credit; wake the next waiting flit or parked producers."""
        link.credits += 1
        if link.waiting:
            # FIFO across the link preserves per-link ordering: admission
            # order equals submission order as long as every wait queue is
            # FIFO.
            self._forward(link.waiting.popleft(), link)
            return
        if link.listeners:
            listeners, link.listeners = link.listeners, []
            for callback in listeners:
                callback()

    # ------------------------------------------------------------- lifecycle
    def is_idle(self) -> bool:
        return self._in_flight == 0

    def reset(self) -> None:
        if self._in_flight:
            raise RuntimeError("cannot reset a mesh fabric with flits in flight")
        for link in self._links.values():
            link.credits = link.capacity
            link.waiting.clear()
            link.listeners.clear()

    def check_invariants(self) -> None:
        """Assert credit conservation (used by the differential suite)."""
        for link in self._links.values():
            if not 0 <= link.credits <= link.capacity:
                raise AssertionError(
                    f"link {link.src}->{link.dst} credits {link.credits} outside "
                    f"[0, {link.capacity}]"
                )
        if self._in_flight < 0:
            raise AssertionError(f"negative in-flight count {self._in_flight}")


__all__ = ["MeshTopology"]
