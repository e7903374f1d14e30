"""Equivalence suite: the batched service kernel == the per-request path.

The PR 4 hot-path overhaul rebuilt the controller around a batched
:class:`~repro.memctrl.kernel.ServiceKernel` (event-elision fast path, indexed
FR-FCFS pick) with the explicit contract that **event-level behaviour is
unchanged**.  These tests enforce that contract:

* batched vs. per-request (``batching=False``) runs produce identical finish
  times and identical stats snapshots across design points, policies and
  traffic shapes;
* the indexed FR-FCFS pick equals a literal reimplementation of the seed's
  linear scan, including on a 10k-deep queue (the seed's O(n^2) regression
  case); and
* ``reset_state()`` keeps back-to-back runs bit-identical.
"""

from __future__ import annotations

import pytest

from repro.dram.channel import DdrChannel
from repro.mapping.locality import locality_centric_mapping
from repro.mapping.mlp import mlp_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.policies import FrFcfsPolicy
from repro.memctrl.request import MemoryRequest
from repro.scenarios.trace import TraceReplayer, synthesize_trace
from repro.sim.config import DesignPoint, MemCtrlConfig, MemoryDomainConfig, SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry
from repro.system import build_system
from repro.transfer.descriptor import TransferDirection
from repro.workloads.microbench import run_transfer_experiment_on

KIB = 1024


def set_batching(system, batching: bool) -> None:
    for memory in (system.dram, system.pim):
        for controller in memory.controllers:
            controller.kernel.batching = batching


def transfer_outcome(design_point, direction, batching, policy=None):
    config = SystemConfig.small_test()
    if policy is not None:
        from dataclasses import replace

        config = replace(config, memctrl=replace(config.memctrl, policy=policy))
    system = build_system(config=config, design_point=design_point)
    set_batching(system, batching)
    experiment = run_transfer_experiment_on(
        system, direction, 64 * KIB, sim_cap_bytes=64 * KIB
    )
    return experiment.result.end_ns, experiment.result.start_ns, system.stats.snapshot()


class TestBatchedEqualsPerRequest:
    @pytest.mark.parametrize("design_point", list(DesignPoint))
    @pytest.mark.parametrize("direction", list(TransferDirection))
    def test_transfers_identical_across_design_points(self, design_point, direction):
        batched = transfer_outcome(design_point, direction, batching=True)
        unbatched = transfer_outcome(design_point, direction, batching=False)
        assert batched == unbatched

    @pytest.mark.parametrize("policy", ["fcfs", "frfcfs", "frfcfs_cap:2"])
    def test_transfers_identical_across_policies(self, policy):
        batched = transfer_outcome(
            DesignPoint.BASE_DHP, TransferDirection.DRAM_TO_PIM, True, policy
        )
        unbatched = transfer_outcome(
            DesignPoint.BASE_DHP, TransferDirection.DRAM_TO_PIM, False, policy
        )
        assert batched == unbatched

    @pytest.mark.parametrize("pattern", ["bursty", "skewed"])
    def test_replay_identical_on_traces(self, pattern):
        trace = synthesize_trace(
            pattern, total_bytes=64 * KIB, mean_gap_ns=3.0, write_fraction=0.25
        )
        outcomes = []
        for batching in (True, False):
            system = build_system(
                config=SystemConfig.small_test(), design_point=DesignPoint.BASE_DHP
            )
            set_batching(system, batching)
            result = TraceReplayer(system, trace).execute()
            outcomes.append(
                (
                    result.start_ns,
                    result.end_ns,
                    result.completed,
                    result.deferred,
                    result.p50_latency_ns,
                    result.p99_latency_ns,
                    system.stats.snapshot(),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_per_request_finish_times_identical(self):
        """Request-level latency samples (per channel, in completion order)."""
        finishes = []
        for batching in (True, False):
            system = build_system(
                config=SystemConfig.small_test(), design_point=DesignPoint.BASELINE
            )
            set_batching(system, batching)
            run_transfer_experiment_on(
                system, TransferDirection.DRAM_TO_PIM, 32 * KIB, sim_cap_bytes=32 * KIB
            )
            times = []
            for memory in (system.dram, system.pim):
                for controller in memory.controllers:
                    times.append(tuple(controller._latency_hist.samples))
            finishes.append(tuple(times))
        assert finishes[0] == finishes[1]


class TestIndexedPickEqualsLinearScan:
    GEOMETRY = MemoryDomainConfig.paper_dram()

    def _run(self, requests_factory, select_override=None, depth=64):
        engine = SimulationEngine()
        stats = StatsRegistry()
        config = MemCtrlConfig(read_queue_depth=depth, write_queue_depth=depth)
        controller = ChannelController(
            engine, DdrChannel(self.GEOMETRY, 0), config, stats, name="eq/ch0"
        )
        if select_override is not None:
            policy = select_override()
            controller.policy = policy
            controller.kernel.policy = policy
            controller.kernel._frfcfs_fast = False
            controller.kernel._policy_on_remove = None
        order = []
        for request in requests_factory(lambda r: order.append(r.phys_addr)):
            assert controller.enqueue(request)
        engine.run()
        assert controller.is_idle()
        return order

    def test_10k_deep_queue_matches_reference_scan(self):
        """Regression: deep queues must schedule exactly like the seed scan.

        The seed's ``_pick_request`` walked the whole queue per decision --
        O(n^2) over a 10k-deep drain.  The indexed pick must produce the
        identical service order at O(banks) per decision.
        """

        coords = {}

        class ReferenceLinearScan(FrFcfsPolicy):
            """The seed's front-to-back scan, over one open-row snapshot.

            Same decisions as asking ``channel.row_state`` per request (the
            channel cannot change during a pick), at a fraction of the cost
            on a 10k-deep queue.  Coordinates come from the decoded address,
            not from the queue's own bookkeeping.
            """

            def select(self, queue, channel):
                open_rows = {
                    key: bank.open_row for key, bank in channel._banks.items()
                }
                for request in queue.requests():
                    coord = coords.get(request)
                    if coord is None:
                        addr = request.dram_addr
                        coord = coords[request] = (channel.bank_key_of(addr), addr.row)
                    if open_rows.get(coord[0]) == coord[1]:
                        return request
                return queue.first()

        mapping = locality_centric_mapping(self.GEOMETRY)
        row_bytes = self.GEOMETRY.row_size_bytes

        def build(on_complete):
            requests = []
            for index in range(10_000):
                # Conflict-heavy: rotate rows within a handful of banks so the
                # seed path re-scans deep queues on almost every pick.
                phys = (index % 8) * (4 * row_bytes) + (index // 8 % 4) * row_bytes + (
                    index // 32
                ) * 64
                request = MemoryRequest(phys_addr=phys, is_write=False,
                                        on_complete=on_complete)
                request.domain = "dram"
                request.dram_addr = mapping.map(phys)
                requests.append(request)
            return requests

        indexed = self._run(build, depth=10_000)
        reference = self._run(build, select_override=ReferenceLinearScan, depth=10_000)
        assert indexed == reference

    def test_mlp_mapping_matches_reference_scan(self):
        class ReferenceLinearScan(FrFcfsPolicy):
            def select(self, queue, channel):
                for request in queue.requests():
                    if channel.row_state(request.dram_addr) == "hit":
                        return request
                return queue.first()

        mapping = mlp_centric_mapping(self.GEOMETRY)

        def build(on_complete):
            requests = []
            for index in range(2_000):
                phys = (index * 7919) % (1 << 22)
                phys -= phys % 64
                request = MemoryRequest(
                    phys_addr=phys, is_write=index % 3 == 0, on_complete=on_complete
                )
                request.domain = "dram"
                request.dram_addr = mapping.map(phys)
                requests.append(request)
            return requests

        assert self._run(build, depth=2_000) == self._run(
            build, select_override=ReferenceLinearScan, depth=2_000
        )


class TestDeterminism:
    def test_reset_state_keeps_runs_bit_identical(self):
        system = build_system(
            config=SystemConfig.small_test(), design_point=DesignPoint.BASE_DHP
        )
        outcomes = []
        for _ in range(3):
            experiment = run_transfer_experiment_on(
                system, TransferDirection.DRAM_TO_PIM, 64 * KIB, sim_cap_bytes=64 * KIB
            )
            outcomes.append(
                (experiment.result.start_ns, experiment.result.end_ns,
                 system.stats.snapshot())
            )
            system.reset_state()
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestSlots:
    def test_memory_request_rejects_stray_attributes(self):
        request = MemoryRequest(phys_addr=0, is_write=False)
        with pytest.raises(AttributeError):
            request.totally_new_field = 1

    def test_event_rejects_stray_attributes(self):
        from repro.sim.engine import Event

        event = Event(time=1.0, sequence=0, callback=lambda: None)
        with pytest.raises(AttributeError):
            event.backpointer = object()

    def test_descriptor_rejects_stray_attributes(self):
        from repro.transfer.descriptor import TransferDescriptor

        descriptor = TransferDescriptor.contiguous(
            TransferDirection.DRAM_TO_PIM, dram_base=0,
            size_per_core_bytes=64, pim_core_ids=(0,),
        )
        # On Python 3.11 a frozen+slots dataclass raises TypeError from the
        # generated __setattr__ (the pre-slots class leaks into its super()
        # call); 3.12+ raises FrozenInstanceError (an AttributeError).  Either
        # way stray writes fail loudly.
        with pytest.raises((AttributeError, TypeError)):
            descriptor.scratch = "nope"
