"""Property-based differential testing: batched kernel == unbatched kernel.

Hypothesis generates random *programs* -- a mapping geometry, a scheduler
policy, queue depths/watermarks, and a timed stream of read/write accesses
with tenant labels -- and each program is executed twice on identical bare
controllers: once with the service kernel's event-free drain batching on
(the default) and once with ``batching=False``, the seed's
one-event-per-request reference path.  The outcomes must be **exactly**
equal: per-request admission order, issue/completion times (float equality,
not approx), row states, the full stats snapshot (including per-tenant
breakdowns) and the final clock.  The engine's event count is not compared:
eliding service events is what batching is for.

A failing program prints as a JSON object; paste it into
``tests/differential/corpus.jsonl`` to pin it as a permanent regression
case (the corpus test replays every line).

Budgets/seeds are configured in ``conftest.py`` (profiles ``tier1`` / ``ci``
/ ``weekly`` via ``REPRO_HYPOTHESIS_PROFILE``; CI passes a fixed
``--hypothesis-seed``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, note
from hypothesis import strategies as st
from hypothesis.errors import InvalidArgument

from repro.dram.channel import DdrChannel
from repro.mapping.locality import locality_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemoryRequest
from repro.sim.config import MemCtrlConfig, MemoryDomainConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry

CORPUS_PATH = Path(__file__).with_name("corpus.jsonl")

#: (ranks, bankgroups, banks_per_group, rows_per_bank, row_size_bytes) --
#: all powers of two (the bit-field mapping requires it), kept tiny so a
#: short access stream still collides in rows and banks.
GEOMETRIES = (
    (1, 1, 1, 64, 512),
    (1, 2, 2, 64, 512),
    (2, 2, 2, 32, 512),
    (2, 4, 4, 64, 1024),
)

POLICIES = (
    "fcfs",
    "frfcfs",
    "frfcfs_cap:2",
    "frfcfs_cap:4",
    "qos_priority:a=0,b=1",
)

TENANTS = (None, "a", "b")

#: Gaps in nanoseconds.  0 packs the queues; fractional values exercise the
#: float->tick conversion; 9000 crosses the tREFI refresh deadline (7800 ns
#: for DDR4-2400), exercising the kernel's refresh-delegation path.
GAPS = (0.0, 0.0, 0.0, 0.5, 1.0, 2.5, 10.0, 40.0, 9000.0)

HORIZONS = (None, 30.0, 200.0, 1500.0)


@dataclass(frozen=True)
class Program:
    """One differential test case (JSON-serializable for the corpus)."""

    geometry: Tuple[int, int, int, int, int]
    policy: str
    read_depth: int
    write_depth: int
    high_watermark: int
    low_watermark: int
    horizon_ns: Optional[float]
    #: (gap_ns, cache_line_index, is_write, tenant) per access.
    accesses: Tuple[Tuple[float, int, bool, Optional[str]], ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "Program":
        return cls(
            geometry=tuple(data["geometry"]),
            policy=data["policy"],
            read_depth=data["read_depth"],
            write_depth=data["write_depth"],
            high_watermark=data["high_watermark"],
            low_watermark=data["low_watermark"],
            horizon_ns=data["horizon_ns"],
            accesses=tuple(
                (float(g), int(l), bool(w), t) for g, l, w, t in data["accesses"]
            ),
        )


@st.composite
def programs(draw) -> Program:
    geometry = draw(st.sampled_from(GEOMETRIES))
    ranks, bankgroups, banks, rows, row_bytes = geometry
    lines = ranks * bankgroups * banks * rows * (row_bytes // 64)
    write_depth = draw(st.integers(2, 12))
    count = draw(st.integers(1, 48))
    accesses = []
    for _ in range(count):
        gap = draw(st.sampled_from(GAPS))
        # Bias towards small line indices (row hits/conflicts) but keep the
        # full address space reachable (bank/rank/bankgroup variety).
        line = draw(
            st.one_of(
                st.integers(0, 31),
                st.integers(0, min(lines, 4096) - 1),
            )
        )
        accesses.append(
            (gap, line, draw(st.booleans()), draw(st.sampled_from(TENANTS)))
        )
    high = draw(st.integers(1, write_depth))
    return Program(
        geometry=geometry,
        policy=draw(st.sampled_from(POLICIES)),
        read_depth=draw(st.integers(2, 12)),
        write_depth=write_depth,
        high_watermark=high,
        low_watermark=draw(st.integers(0, high - 1)),
        horizon_ns=draw(st.sampled_from(HORIZONS)),
        accesses=tuple(accesses),
    )


def run_program(batching: bool, program: Program) -> dict:
    """Execute ``program`` on a bare controller; return the full outcome."""
    ranks, bankgroups, banks, rows, row_bytes = program.geometry
    geometry = MemoryDomainConfig(
        name="dram",
        channels=1,
        ranks_per_channel=ranks,
        bankgroups_per_rank=bankgroups,
        banks_per_group=banks,
        rows_per_bank=rows,
        row_size_bytes=row_bytes,
    )
    memctrl = MemCtrlConfig(
        read_queue_depth=program.read_depth,
        write_queue_depth=program.write_depth,
        write_high_watermark=program.high_watermark,
        write_low_watermark=program.low_watermark,
        policy=program.policy,
    )
    engine = SimulationEngine()
    stats = StatsRegistry()
    controller = ChannelController(
        engine, DdrChannel(geometry, 0), memctrl, stats, name="diff/ch0",
        batching=batching,
    )
    mapping = locality_centric_mapping(geometry)
    capacity = geometry.channel_capacity_bytes

    def submit(request: MemoryRequest) -> None:
        # Submit-or-park on queue-full, like PimSystem.submit's wake: a
        # refused request retries from the controller's slot-freed
        # notification, mid-service-loop.
        controller.enqueue(request, partial(submit, request))

    requests: List[MemoryRequest] = []
    when = 0.0
    for gap, line, is_write, tenant in program.accesses:
        when += gap
        phys = (line * 64) % capacity
        request = MemoryRequest(phys_addr=phys, is_write=is_write, tenant=tenant)
        request.domain = "dram"
        request.dram_addr = mapping.map(phys)
        requests.append(request)
        engine.schedule_callback(when, partial(submit, request))
    if program.horizon_ns is not None:
        engine.run(until=program.horizon_ns)
    engine.run()
    assert controller.is_idle()
    return {
        "requests": [
            (
                request._seq,  # admission order must match exactly
                request.arrival_ns,
                request.issue_ns,
                request.completion_ns,
                request.row_state,
            )
            for request in requests
        ],
        "stats": stats.snapshot(),
        "now": engine.now,
    }


def assert_batching_agrees(program: Program) -> None:
    try:
        note(f"program: {program.to_json()}")
    except InvalidArgument:
        pass  # corpus replay runs outside a Hypothesis build context
    reference = run_program(False, program)
    candidate = run_program(True, program)
    assert candidate == reference, (
        "batched kernel diverged from the unbatched reference on program "
        f"(add to corpus.jsonl): {program.to_json()}"
    )


@given(programs())
def test_batched_matches_unbatched(program: Program) -> None:
    assert_batching_agrees(program)


def _corpus() -> List[Program]:
    cases = []
    with open(CORPUS_PATH) as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                cases.append(Program.from_dict(json.loads(line)))
    return cases


@pytest.mark.parametrize(
    "program", _corpus(), ids=lambda p: f"{p.policy}-{len(p.accesses)}acc"
)
def test_corpus_cases(program: Program) -> None:
    """Replay the committed corpus of previously-interesting programs."""
    assert_batching_agrees(program)
