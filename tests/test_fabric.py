"""Units for the pluggable interconnect fabric (:mod:`repro.fabric`).

Covers the spec grammar (``mesh:WxH[,key=val...]``), the deterministic
row-major placement and X-Y routes of :class:`MeshTopology`, credit-based
flow control with the submit-or-park contract, delivery backpressure into
the mesh, and the session-level surface (``RunResult.fabric``).

The mesh itself only touches a narrow slice of the system --
``config.dram/pim.channels``, ``engine``, ``stats`` and the delivery
callback -- so most tests run it against a stub system and drive the
simulation engine directly.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.fabric import (
    FABRICS,
    MeshBuilder,
    MeshTopology,
    available_fabrics,
    create_fabric,
    fabric_description,
    validate_fabric,
)
from repro.mapping.address import DramAddress
from repro.memctrl.request import MemoryRequest


class _StubSystem:
    """The minimal system surface MeshTopology consumes."""

    def __init__(self, engine, stats, dram_channels=2, pim_channels=2):
        self.config = SimpleNamespace(
            dram=SimpleNamespace(channels=dram_channels),
            pim=SimpleNamespace(channels=pim_channels),
        )
        self.engine = engine
        self.stats = stats
        self.delivered = []
        self.refuse = False
        self.parked = []

    def _fabric_deliver(self, request, wake):
        if self.refuse:
            self.parked.append(wake)
            return False
        self.delivered.append(request)
        return True


def _request(channel=0, domain="dram", source_id=0) -> MemoryRequest:
    request = MemoryRequest(phys_addr=0, is_write=False, source_id=source_id)
    request.domain = domain
    request.dram_addr = DramAddress(
        channel=channel, rank=0, bankgroup=0, bank=0, row=0, column=0
    )
    return request


class TestFabricSpecs:
    def test_registry_lists_none_first(self):
        assert available_fabrics() == ("none", "mesh")
        assert "direct submit" in fabric_description("none")
        assert "2-D mesh" in fabric_description("mesh")

    def test_none_builds_no_object(self):
        assert create_fabric("none", system=None) is None
        assert validate_fabric("none") == "none"

    def test_none_rejects_arguments(self):
        with pytest.raises(ValueError, match="takes no arguments"):
            validate_fabric("none:4x4")

    def test_mesh_requires_grid(self):
        with pytest.raises(ValueError, match="needs a grid size"):
            validate_fabric("mesh")

    def test_mesh_rejects_malformed_grid(self):
        with pytest.raises(ValueError, match="cannot parse mesh grid size"):
            validate_fabric("mesh:4by4")

    def test_mesh_parses_typed_arguments(self):
        builder = MeshBuilder.parse("4x2,hop_ns=1.5,credits=2,ingress=2")
        assert builder == MeshBuilder(
            width=4, height=2, hop_ns=1.5, credits=2, ingress=2
        )

    def test_mesh_rejects_unknown_argument(self):
        with pytest.raises(ValueError, match="unknown mesh argument"):
            validate_fabric("mesh:4x4,bogus=1")

    def test_unknown_fabric_suggests_near_miss(self):
        with pytest.raises(ValueError) as excinfo:
            validate_fabric("mseh:4x4")
        message = str(excinfo.value)
        assert "unknown fabric" in message
        assert "did you mean 'mesh'?" in message
        assert "mseh" not in FABRICS


class TestMeshConstruction:
    def test_grid_too_small_reports_breakdown(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        with pytest.raises(ValueError) as excinfo:
            MeshTopology(system, width=2, height=2)
        message = str(excinfo.value)
        assert "mesh 2x2 has 4 nodes" in message
        assert "1 ingress + 2 dram + 2 pim" in message

    def test_parameter_validation(self, engine, stats):
        system = _StubSystem(engine, stats)
        with pytest.raises(ValueError, match="at least 1x1"):
            MeshTopology(system, width=0, height=3)
        with pytest.raises(ValueError, match="credits must be >= 1"):
            MeshTopology(system, width=3, height=3, link_credits=0)
        with pytest.raises(ValueError, match="at least one ingress"):
            MeshTopology(system, width=3, height=3, num_ingress=0)

    def test_row_major_placement(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        mesh = MeshTopology(system, width=3, height=3)
        assert mesh.ingress_coord(0) == (0, 0)
        assert mesh.endpoint_coord("dram", 0) == (1, 0)
        assert mesh.endpoint_coord("dram", 1) == (2, 0)
        assert mesh.endpoint_coord("pim", 0) == (0, 1)
        assert mesh.endpoint_coord("pim", 1) == (1, 1)

    def test_multiple_ingress_round_robin(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=1, pim_channels=1)
        mesh = MeshTopology(system, width=2, height=2, num_ingress=2)
        assert mesh.ingress_coord(0) == (0, 0)
        assert mesh.ingress_coord(1) == (1, 0)
        assert mesh.ingress_coord(2) == (0, 0)  # wraps modulo ingress count

    def test_planned_hops_is_manhattan_distance(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        mesh = MeshTopology(system, width=3, height=3)
        # ingress (0,0) -> pim 1 at (1,1): one X hop + one Y hop.
        assert mesh.planned_hops(_request(channel=1, domain="pim")) == 2
        assert mesh.planned_hops(_request(channel=1, domain="dram")) == 2
        assert MeshTopology.hop_distance((0, 0), (2, 1)) == 3


class TestMeshTraffic:
    def test_delivery_after_exact_hop_latency(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        mesh = MeshTopology(system, width=3, height=3, hop_latency_ns=2.0)
        request = _request(channel=1, domain="dram")  # (2,0): two hops
        assert mesh.inject(request)
        assert not mesh.is_idle()
        engine.run()
        assert system.delivered == [request]
        assert request.fabric_hops == 2
        assert request.fabric_wait_ns == 0.0  # uncontended: pure hop latency
        assert request.arrival_ns == 0.0  # re-stamped to injection time
        assert engine.now == pytest.approx(4.0)
        assert mesh.is_idle()
        snapshot = stats.snapshot()
        assert snapshot["counter/fabric/injected"] == 1
        assert snapshot["counter/fabric/delivered"] == 1
        assert snapshot["counter/fabric/hops"] == 2
        assert snapshot["counter/fabric/link/0,0->1,0/flits"] == 1
        assert snapshot["counter/fabric/link/1,0->2,0/flits"] == 1
        mesh.check_invariants()

    def test_hop_counts_match_xy_distance(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        mesh = MeshTopology(system, width=3, height=3)
        requests = [
            _request(channel=c, domain=d)
            for d in ("dram", "pim")
            for c in (0, 1)
        ]
        planned = [mesh.planned_hops(r) for r in requests]
        for request in requests:
            assert mesh.inject(request)
        engine.run()
        assert [r.fabric_hops for r in requests] == planned
        assert len(system.delivered) == len(requests)

    def test_injection_credit_exhaustion_and_retry(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        mesh = MeshTopology(system, width=3, height=3, link_credits=1)
        first = _request(channel=1, domain="dram")
        second = _request(channel=1, domain="dram")
        assert mesh.inject(first)

        def retry():
            assert mesh.inject(second)

        # Same first-hop link, no credit left: the producer parks its wake.
        assert not mesh.inject(second, retry)
        assert stats.snapshot()["counter/fabric/link/0,0->1,0/stalls"] == 1
        engine.run()
        assert system.delivered == [first, second]
        # Pre-injection parked time is not fabric queueing: the retry wins a
        # credit the moment the first flit moves on (one hop, 2 ns), and the
        # wait clock starts only at that successful injection.
        assert second.arrival_ns == pytest.approx(2.0)
        assert second.fabric_wait_ns == 0.0
        mesh.check_invariants()
        assert mesh.is_idle()

    def test_delivery_refusal_backpressures_into_mesh(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        mesh = MeshTopology(system, width=3, height=3)
        system.refuse = True
        request = _request(channel=0, domain="dram")
        assert mesh.inject(request)
        engine.run()
        # The flit reached its endpoint but the controller queue was full:
        # it holds its last buffer slot and parks a delivery retry.
        assert system.delivered == []
        assert len(system.parked) == 1
        assert not mesh.is_idle()
        system.refuse = False
        system.parked.pop()()  # the controller drains a slot
        assert system.delivered == [request]
        assert mesh.is_idle()
        mesh.check_invariants()

    def test_every_route_leaves_its_ingress_node(self, engine, stats):
        # Placement gives every endpoint a node of its own, so no request is
        # ever delivered in place: every route is at least one hop long.
        system = _StubSystem(engine, stats, dram_channels=1, pim_channels=1)
        mesh = MeshTopology(system, width=2, height=2, num_ingress=2)
        for source_id in (0, 1):
            for domain in ("dram", "pim"):
                request = _request(channel=0, domain=domain, source_id=source_id)
                assert mesh.planned_hops(request) >= 1
                assert mesh.inject(request)
        engine.run()
        assert all(request.fabric_hops >= 1 for request in system.delivered)
        assert len(system.delivered) == 4

    def test_reset_restores_credits_and_refuses_in_flight(self, engine, stats):
        system = _StubSystem(engine, stats, dram_channels=2, pim_channels=2)
        mesh = MeshTopology(system, width=3, height=3, link_credits=1)
        system.refuse = True
        request = _request(channel=0, domain="dram")
        assert mesh.inject(request)
        engine.run()
        assert not mesh.is_idle()
        with pytest.raises(RuntimeError, match="flits in flight"):
            mesh.reset()
        system.refuse = False
        system.parked.pop()()
        assert mesh.is_idle()
        mesh.reset()
        for link in mesh._links.values():
            assert link.credits == link.capacity
            assert not link.waiting and not link.listeners
        mesh.check_invariants()


class TestSessionFabricSurface:
    def test_run_result_fabric_section_under_mesh(self, small_config):
        from repro.api import Session
        from repro.registry import Variants

        with Session.open(
            config=small_config, variants=Variants(fabric="mesh:3x3")
        ) as session:
            result = session.transfer(8 * 1024)
        fabric = result.fabric
        assert fabric is not None
        assert fabric.injected == fabric.delivered > 0
        assert fabric.total_hops >= fabric.delivered  # every route >= 1 hop
        assert fabric.mean_hops >= 1.0
        assert fabric.wait_mean_ns >= 0.0
        assert fabric.links  # some link carried flits
        busiest = fabric.busiest_link
        assert busiest is fabric.links[0]
        assert 0.0 <= busiest.stall_rate <= 1.0

    def test_run_result_fabric_absent_on_direct_path(self, small_config):
        from repro.api import Session

        with Session.open(config=small_config) as session:
            result = session.transfer(8 * 1024)
        assert result.fabric is None
