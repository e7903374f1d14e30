"""Property-based testing for the interconnect fabric.

Hypothesis generates random *transfer programs* -- a DCE policy, shrunken
controller queue depths (to provoke parked-write retry storms), and a
sequence of transfer descriptors with mixed directions, in-flight-window
boundary sizes and core/base layouts that split descriptors across
channels -- and random ``mesh:WxH`` specs (grid shape, hop latency, link
credits, ingress count).  Each program runs once on the direct path and
once through the mesh, and the mesh run must hold these invariants:

* every injected request is delivered (conservation / deadlock freedom: the
  program produces exactly as many admissions as the direct-path run);
* every delivered request's ``fabric_hops`` equals the Manhattan distance
  of its deterministic X-Y route, and queueing delays are non-negative;
* after the run the mesh is idle with every link credit pool restored to
  capacity, and the transfers reach the same final progress offsets.

A failing case prints as a JSON object; paste it into
``tests/differential/fabric_corpus.jsonl`` to pin it as a permanent
regression case (the corpus test replays every line).  Budgets/seeds come
from ``conftest.py`` (profiles ``tier1`` / ``ci`` / ``weekly`` via
``REPRO_HYPOTHESIS_PROFILE``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

import pytest
from hypothesis import given, note
from hypothesis import strategies as st
from hypothesis.errors import InvalidArgument

from repro.core.dce import DataCopyEngine
from repro.sim.config import DcePolicy, DesignPoint, SystemConfig
from repro.system import build_system
from repro.transfer.descriptor import TransferDescriptor, TransferDirection

CORPUS_PATH = Path(__file__).with_name("fabric_corpus.jsonl")

_CONFIG = SystemConfig.small_test()

#: The two in-flight windows of the small test system: the PIM-MS data
#: buffer and the conventional-DMA serial window.  Transfer sizes are
#: biased to land on/around these boundaries, where the DCE decides which
#: chunk is the first to not fit.
PIM_MS_WINDOW = _CONFIG.pim_mmu.data_buffer_entries
SERIAL_WINDOW = _CONFIG.pim_mmu.serial_outstanding

NUM_CORES = _CONFIG.num_pim_cores

TENANTS = (None, "a", "b")

POLICIES = ("pim_ms", "serial")

DESIGN_POINTS = ("base_d", "base_dhp")

_POLICY = {"pim_ms": DcePolicy.PIM_MS, "serial": DcePolicy.SERIAL_PER_CORE}
_POINT = {"base_d": DesignPoint.BASE_D, "base_dhp": DesignPoint.BASE_DHP}

@dataclass(frozen=True)
class TransferProgram:
    """One transfer test case (JSON-serializable for the corpus)."""

    policy: str
    design_point: str
    read_depth: int
    write_depth: int
    high_watermark: int
    low_watermark: int
    #: (direction, first_core, core_count, core_stride, chunks_per_core,
    #:  dram_base_lines, tenant) per transfer, executed back to back.
    transfers: Tuple[
        Tuple[str, int, int, int, int, int, Optional[str]], ...
    ]

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "TransferProgram":
        return cls(
            policy=data["policy"],
            design_point=data["design_point"],
            read_depth=data["read_depth"],
            write_depth=data["write_depth"],
            high_watermark=data["high_watermark"],
            low_watermark=data["low_watermark"],
            transfers=tuple(
                (str(d), int(f), int(n), int(s), int(c), int(b), t)
                for d, f, n, s, c, b, t in data["transfers"]
            ),
        )

    def descriptors(self):
        for direction, first, count, stride, chunks, base_lines, tenant in (
            self.transfers
        ):
            cores = [
                (first + index * stride) % NUM_CORES for index in range(count)
            ]
            yield TransferDescriptor.contiguous(
                direction=(
                    TransferDirection.DRAM_TO_PIM
                    if direction == "d2p"
                    else TransferDirection.PIM_TO_DRAM
                ),
                dram_base=base_lines * 64,
                size_per_core_bytes=chunks * 64,
                pim_core_ids=cores,
                tenant=tenant,
            )


@st.composite
def transfer_programs(draw) -> TransferProgram:
    policy = draw(st.sampled_from(POLICIES))
    window = PIM_MS_WINDOW if policy == "pim_ms" else SERIAL_WINDOW
    write_depth = draw(st.integers(2, 10))
    high = draw(st.integers(1, write_depth))
    count = draw(st.integers(1, 3))
    transfers = []
    for _ in range(count):
        # Core sets that split the descriptor across channels: contiguous
        # runs, strided picks (every other / every fourth core), wrapped
        # ranges starting mid-array.
        core_count = draw(st.integers(1, 6))
        chunks = draw(
            st.one_of(
                # Small transfers: parked-write churn dominates.
                st.integers(1, 12),
                # Window-boundary sizes: total chunks land on/around the
                # in-flight window, so the last window holds 0/1 chunk.
                st.sampled_from(
                    sorted(
                        {
                            max(1, window // core_count - 1),
                            max(1, window // core_count),
                            window // core_count + 1,
                        }
                    )
                ),
            )
        )
        transfers.append(
            (
                draw(st.sampled_from(("d2p", "p2d"))),
                draw(st.integers(0, NUM_CORES - 1)),
                core_count,
                draw(st.sampled_from((1, 2, 4))),
                chunks,
                draw(st.integers(0, 256)),
                draw(st.sampled_from(TENANTS)),
            )
        )
    return TransferProgram(
        policy=policy,
        design_point=draw(st.sampled_from(DESIGN_POINTS)),
        # Shallow queues: reads/writes park and retry constantly, which is
        # where the DCE's ordering obligations actually bite.
        read_depth=draw(st.integers(2, 10)),
        write_depth=write_depth,
        high_watermark=high,
        low_watermark=draw(st.integers(0, high - 1)),
        transfers=tuple(transfers),
    )


#: Small-test endpoint demand: ingress node(s) + 2 DRAM + 2 PIM channels.
_CHANNEL_ENDPOINTS = _CONFIG.dram.channels + _CONFIG.pim.channels

#: Grid shapes that fit the small-test system with at least one ingress.
_GRIDS = ((2, 3), (3, 2), (3, 3), (4, 2))


@st.composite
def mesh_specs(draw) -> str:
    width, height = draw(st.sampled_from(_GRIDS))
    max_ingress = width * height - _CHANNEL_ENDPOINTS
    ingress = draw(st.integers(1, min(2, max_ingress)))
    credits = draw(st.integers(1, 4))
    hop_ns = draw(st.sampled_from(("1.0", "2.0", "4.0")))
    return (
        f"mesh:{width}x{height},hop_ns={hop_ns},"
        f"credits={credits},ingress={ingress}"
    )


def run_transfer_program(program: TransferProgram, fabric: str = "none") -> dict:
    """Execute ``program`` under one fabric spec; return the outcome.

    The outcome holds the admitted requests in trace-hook order, the
    per-transfer progress offsets, the stats snapshot and the live system
    (for fabric-invariant checks).
    """
    config = replace(
        _CONFIG,
        memctrl=replace(
            _CONFIG.memctrl,
            read_queue_depth=program.read_depth,
            write_queue_depth=program.write_depth,
            write_high_watermark=program.high_watermark,
            write_low_watermark=program.low_watermark,
            fabric=fabric,
        ),
    )
    system = build_system(
        config=config, design_point=_POINT[program.design_point]
    )
    requests = []
    system.attach_trace_hook(lambda request, time_ns: requests.append(request))
    dce = DataCopyEngine(system, policy=_POLICY[program.policy])
    offsets = []
    for descriptor in program.descriptors():
        dce.execute(descriptor)
        offsets.append(dict(dce.offsets))
    return {
        "requests": requests,
        "offsets": offsets,
        "stats": system.stats.snapshot(),
        "system": system,
    }


def assert_mesh_invariants(fabric: str, program: TransferProgram) -> None:
    """Conservation, X-Y hop counts and credit restoration under a mesh."""
    try:
        note(f"fabric: {fabric} program: {program.to_json()}")
    except InvalidArgument:
        pass  # corpus replay runs outside a Hypothesis build context
    baseline = run_transfer_program(program)
    outcome = run_transfer_program(program, fabric)
    mesh = outcome["system"].fabric
    requests = outcome["requests"]
    case = f"(fabric={fabric}, program={program.to_json()})"

    # Conservation / deadlock freedom: the meshed run admits exactly the
    # requests the direct run does, and none of them is stuck in a router.
    assert len(requests) == len(baseline["requests"]), case
    snapshot = outcome["stats"]
    assert snapshot["counter/fabric/injected"] == len(requests), case
    assert snapshot["counter/fabric/delivered"] == len(requests), case
    assert mesh.is_idle(), case
    mesh.check_invariants()

    # Deterministic routing: delivered hop counts equal the X-Y Manhattan
    # distance of each request's route, and the global hop counter is their
    # sum.  Queueing delay on top of pure hop latency is never negative.
    for request in requests:
        assert request.fabric_hops == mesh.planned_hops(request), case
        assert request.fabric_wait_ns >= 0.0, case
    assert snapshot["counter/fabric/hops"] == sum(
        r.fabric_hops for r in requests
    ), case

    # Every credit a flit consumed was returned: all pools back at capacity,
    # no waiter and no parked producer left behind.
    for link in mesh._links.values():
        assert link.credits == link.capacity, case
        assert not link.waiting and not link.listeners, case

    # The transfers themselves ran to completion (same final offsets).
    assert outcome["offsets"] == baseline["offsets"], case


@given(mesh_specs(), transfer_programs())
def test_mesh_conserves_requests_and_routes_xy(
    fabric: str, program: TransferProgram
) -> None:
    assert_mesh_invariants(fabric, program)


def _corpus():
    cases = []
    with open(CORPUS_PATH) as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                data = json.loads(line)
                cases.append(
                    (data["fabric"], TransferProgram.from_dict(data["program"]))
                )
    return cases


@pytest.mark.parametrize(
    "fabric, program",
    _corpus(),
    ids=lambda value: (
        value.replace("mesh:", "mesh").replace(",", "-")
        if isinstance(value, str)
        else f"{value.policy}-{len(value.transfers)}xfer"
    ),
)
def test_fabric_corpus_cases(fabric: str, program: TransferProgram) -> None:
    """Replay the committed corpus of previously-interesting cases."""
    assert_mesh_invariants(fabric, program)
