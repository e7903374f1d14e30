"""Hot-path performance benchmark (``repro bench``).

Runs a **fixed workload matrix** over the simulation core and reports, per
workload, the wall-clock time, the CPU time of this process
(``time.process_time``, which a busy neighbour on a shared host does not
inflate the way it inflates wall time), the number of simulation events
fired and the events/sec rate.  The matrix is deliberately frozen so numbers
are comparable across commits: the committed ``BENCH_hotpath.json``
accumulates one entry per measured revision and gives the repo a performance
trajectory (see ``docs/performance.md`` for how to read it).

Workloads
---------
* ``headline-sweep`` -- the headline transfer sweep: all four design points x
  both directions at 1 MiB (512 KiB simulated window) on the Table I system.
  This is the number the ROADMAP's "as fast as the hardware allows" goal is
  tracked by.
* ``scenario-mix`` -- a two-tenant memcpy-vs-transfer scenario (isolated
  baselines included), exercising the composer, the memcpy engine and the DCE
  on one clock.
* ``replay-bursty`` -- open-loop replay of a synthetic bursty trace,
  exercising the replayer scheduling path and controller backpressure.
* ``deep-queue`` -- a single controller with a 4096-deep read queue fed with
  row-conflicting traffic: a regression guard for the scheduler-pick path
  (O(n) scans here made deep queues quadratic before PR 4).

``--quick`` runs a reduced matrix (one design point, smaller sizes) suitable
for CI smoke, and ``--check`` compares against the committed baseline.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.config import DesignPoint, MemCtrlConfig, SystemConfig
from repro.transfer.descriptor import TransferDirection

KIB = 1024
MIB = 1024 * 1024

#: File name of the committed benchmark trajectory.
BENCH_FILENAME = "BENCH_hotpath.json"

#: Schema version of the JSON document.
BENCH_SCHEMA = 1

#: CI gate: fail when aggregate events/sec regresses by more than this factor
#: relative to the committed baseline entry.
REGRESSION_TOLERANCE = 0.20


@dataclass
class BenchResult:
    """Outcome of one benchmark workload."""

    name: str
    wall_s: float
    events: int
    requests: int
    #: CPU seconds of this process over the same timed span as ``wall_s``.
    process_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def requests_per_sec(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "wall_s": round(self.wall_s, 4),
            "process_s": round(self.process_s, 4),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "requests": self.requests,
            "requests_per_sec": round(self.requests_per_sec, 1),
        }


def _timed(run: Callable[[], object]) -> Tuple[float, float]:
    """Wall and process-CPU seconds that ``run()`` takes."""
    wall, process = time.perf_counter(), time.process_time()
    run()
    return time.perf_counter() - wall, time.process_time() - process


def _paper_config(fabric: str) -> SystemConfig:
    """The Table I configuration with the interconnect fabric selected."""
    from repro.registry import Variants

    return Variants(fabric=fabric).apply(SystemConfig.paper_baseline())


def machine_fingerprint() -> Dict[str, object]:
    """Identify the machine a bench entry was measured on.

    Wall-clock baselines are machine-specific; the fingerprint travels with
    every trajectory entry so cross-entry comparisons can tell "code got
    slower" apart from "different machine measured this".
    """
    import platform

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
    }


def _served_requests(stats) -> int:
    return int(
        sum(
            counter.value
            for name, counter in stats.counters.items()
            if name.endswith("/served")
        )
    )


def _bench_transfer_sweep(quick: bool, fabric: str = "none") -> BenchResult:
    from repro.system import build_system
    from repro.workloads.microbench import run_transfer_experiment_on

    config = _paper_config(fabric)
    if quick:
        cases = [(DesignPoint.BASE_DHP, TransferDirection.DRAM_TO_PIM)]
        total_bytes, cap = 256 * KIB, 256 * KIB
    else:
        cases = [
            (point, direction)
            for point in DesignPoint
            for direction in TransferDirection
        ]
        total_bytes, cap = 1 * MIB, 512 * KIB
    events = 0
    requests = 0
    wall = process = 0.0
    for point, direction in cases:
        system = build_system(config=config, design_point=point)
        case_wall, case_process = _timed(
            lambda: run_transfer_experiment_on(
                system, direction, total_bytes, sim_cap_bytes=cap
            )
        )
        wall += case_wall
        process += case_process
        events += system.engine.events_fired
        requests += _served_requests(system.stats)
    return BenchResult("headline-sweep", wall, events, requests, process)


def _bench_scenario_mix(quick: bool, fabric: str = "none") -> BenchResult:
    from repro.scenarios.tenant import TenantSpec, run_scenario
    from repro.system import build_system

    config = _paper_config(fabric)
    size = 128 * KIB if quick else 256 * KIB
    tenants = (
        TenantSpec.memcpy("memcpy", total_bytes=size),
        TenantSpec.transfer("xfer", total_bytes=size),
    )
    # One fresh system per constituent run, exactly like the default path,
    # but with the engines kept so events can be summed afterwards.
    instrumented: List = []

    def factory():
        system = build_system(config=config, design_point=DesignPoint.BASE_DHP)
        instrumented.append(system)
        return system

    wall, process = _timed(
        lambda: run_scenario(
            config,
            DesignPoint.BASE_DHP,
            tenants,
            name="bench-mix",
            include_isolated=not quick,
            system_factory=factory,
        )
    )
    events = sum(system.engine.events_fired for system in instrumented)
    requests = sum(_served_requests(system.stats) for system in instrumented)
    return BenchResult("scenario-mix", wall, events, requests, process)


def _bench_replay_bursty(quick: bool, fabric: str = "none") -> BenchResult:
    from repro.scenarios.trace import TraceReplayer, synthesize_trace
    from repro.system import build_system

    config = _paper_config(fabric)
    size = 128 * KIB if quick else 512 * KIB
    trace = synthesize_trace("bursty", total_bytes=size, mean_gap_ns=4.0)
    system = build_system(config=config, design_point=DesignPoint.BASE_DHP)
    replayer = TraceReplayer(system, trace)
    wall, process = _timed(replayer.execute)
    return BenchResult(
        "replay-bursty", wall, system.engine.events_fired,
        _served_requests(system.stats), process,
    )


def _bench_deep_queue(quick: bool, fabric: str = "none") -> BenchResult:
    # ``fabric`` is accepted for matrix uniformity but has nothing to
    # interpose on here: this workload drives a bare ChannelController, and
    # the fabric sits above the controllers (in PimSystem).
    from repro.dram.channel import DdrChannel
    from repro.mapping.locality import locality_centric_mapping
    from repro.memctrl.controller import ChannelController
    from repro.memctrl.request import MemoryRequest
    from repro.sim.engine import SimulationEngine
    from repro.sim.stats import StatsRegistry

    geometry = SystemConfig.paper_baseline().dram
    depth = 1024 if quick else 4096
    memctrl = MemCtrlConfig(read_queue_depth=depth, write_queue_depth=depth)
    engine = SimulationEngine()
    stats = StatsRegistry()
    controller = ChannelController(
        engine, DdrChannel(geometry, 0), memctrl, stats, name="bench/ch0"
    )
    mapping = locality_centric_mapping(geometry)
    # Row-conflicting traffic across a handful of banks: every pick has to
    # consider the whole queue under the seed's linear scan.
    row_bytes = geometry.row_size_bytes
    banks_span = 4 * row_bytes  # 4 rows -> same bank on ChRaBgBkRoCo every 4 rows
    requests = []
    for index in range(depth):
        phys = (index % 8) * banks_span + (index // 8) * row_bytes
        request = MemoryRequest(phys_addr=phys, is_write=False)
        request.domain = "dram"
        request.dram_addr = mapping.map(phys)
        requests.append(request)

    def run() -> None:
        for request in requests:
            if not controller.enqueue(request):
                raise RuntimeError("bench queue unexpectedly full")
        engine.run()

    wall, process = _timed(run)
    return BenchResult(
        "deep-queue", wall, engine.events_fired, _served_requests(stats), process
    )


#: The fixed matrix: name -> callable(quick, fabric) -> BenchResult.
BENCH_WORKLOADS: Dict[str, Callable[..., BenchResult]] = {
    "headline-sweep": _bench_transfer_sweep,
    "scenario-mix": _bench_scenario_mix,
    "replay-bursty": _bench_replay_bursty,
    "deep-queue": _bench_deep_queue,
}


def _aggregate(workloads: Dict[str, Dict]) -> Dict:
    """The aggregate row recomputed from per-workload metrics."""
    total_events = sum(metrics["events"] for metrics in workloads.values())
    total_wall = sum(metrics["wall_s"] for metrics in workloads.values())
    return {
        "wall_s": round(total_wall, 4),
        "events": total_events,
        "events_per_sec": round(total_events / total_wall, 1)
        if total_wall > 0
        else 0.0,
    }


def run_bench(
    quick: bool = False,
    names: Optional[List[str]] = None,
    repeats: Optional[int] = None,
    fabric: str = "none",
) -> Dict:
    """Run the benchmark matrix and return one trajectory entry (a dict).

    Each workload runs ``repeats`` times (default 3, or 2 in quick mode) and
    the **fastest** run is reported -- the standard protocol for wall-clock
    benchmarks under scheduler/frequency noise.  The simulations are
    deterministic, so event counts are identical across repeats.  Each
    workload's ``wall_spread_pct`` -- the max-over-min spread of its repeat
    wall times -- travels with the entry, so a CI artifact shows *how noisy*
    the runner was when a regression gate is being diagnosed.

    ``fabric`` selects the interconnect fabric (:mod:`repro.fabric`); only
    ``none`` keeps the matrix comparable to the committed trajectory -- a
    mesh changes the event stream.

    The entry carries the :func:`machine_fingerprint` of the measuring host.
    """
    from repro.fabric import validate_fabric

    validate_fabric(fabric)  # fail fast on unknown specs
    selected = names if names else list(BENCH_WORKLOADS)
    unknown = [name for name in selected if name not in BENCH_WORKLOADS]
    if unknown:
        known = ", ".join(BENCH_WORKLOADS)
        raise KeyError(f"unknown bench workload(s) {unknown}; known: {known}")
    if repeats is None:
        repeats = 2 if quick else 3
    results = {}
    for name in selected:
        outcome = BENCH_WORKLOADS[name](quick, fabric)
        walls = [outcome.wall_s]
        for _ in range(repeats - 1):
            candidate = BENCH_WORKLOADS[name](quick, fabric)
            walls.append(candidate.wall_s)
            if candidate.wall_s < outcome.wall_s:
                outcome = candidate
        metrics = outcome.to_dict()
        metrics["wall_spread_pct"] = (
            round(100.0 * (max(walls) - min(walls)) / min(walls), 1)
            if min(walls) > 0
            else 0.0
        )
        results[name] = metrics
    return {
        "quick": quick,
        "repeats": repeats,
        "fabric": fabric,
        "machine": machine_fingerprint(),
        "workloads": results,
        "aggregate": _aggregate(results),
    }


def profile_bench(
    quick: bool = False,
    names: Optional[List[str]] = None,
    fabric: str = "none",
    top_n: int = 25,
) -> str:
    """Profile each workload once under cProfile; return a text report.

    One section per workload with the ``top_n`` functions by cumulative
    time.  This is the ``repro bench --profile`` payload: it answers "where
    does the hot path actually spend its time" next to the wall-clock
    numbers, and CI uploads it beside the bench artifact.  Profiled runs are
    much slower than plain ones, so the numbers here are *not* comparable to
    the trajectory -- only the shape of the profile is meaningful.
    """
    import cProfile
    import io
    import pstats

    from repro.fabric import validate_fabric

    validate_fabric(fabric)
    selected = names if names else list(BENCH_WORKLOADS)
    unknown = [name for name in selected if name not in BENCH_WORKLOADS]
    if unknown:
        known = ", ".join(BENCH_WORKLOADS)
        raise KeyError(f"unknown bench workload(s) {unknown}; known: {known}")
    sections = [
        f"bench profile: quick={quick} fabric={fabric} top={top_n}"
    ]
    for name in selected:
        profiler = cProfile.Profile()
        profiler.enable()
        BENCH_WORKLOADS[name](quick, fabric)
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top_n)
        sections.append(f"== {name} ==\n{buffer.getvalue().rstrip()}")
    return "\n\n".join(sections) + "\n"


def load_trajectory(path: Path) -> Dict:
    """Load (or initialise) the committed benchmark trajectory document."""
    if Path(path).exists():
        with open(path) as handle:
            return json.load(handle)
    return {"schema": BENCH_SCHEMA, "entries": []}


def append_entry(path: Path, label: str, entry: Dict) -> Dict:
    """Append a labelled run to the trajectory and write it back.

    Re-running the same label in the same mode replaces that entry; full and
    quick runs are distinct entries even under one label (their matrices are
    not comparable).
    """
    document = load_trajectory(path)
    document["entries"] = [
        existing for existing in document.get("entries", [])
        if existing.get("label") != label
        or existing.get("quick") != entry.get("quick")
    ]
    document["entries"].append({"label": label, **entry})
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return document


def check_regression(
    document: Dict, entry: Dict, tolerance: Optional[float] = None
) -> Optional[str]:
    """Compare ``entry`` against the last committed entry of the same mode.

    Returns ``None`` when within tolerance, otherwise a human-readable
    failure message.  Workloads are compared on events/sec; the aggregate is
    the gate (per-workload numbers are informational).

    The default tolerance is :data:`REGRESSION_TOLERANCE` (20 %), overridable
    via the ``REPRO_BENCH_TOLERANCE`` environment variable -- committed
    baselines are machine-specific, so CI runners on slower hardware can
    widen the gate without a code change.
    """
    if tolerance is None:
        tolerance = float(
            os.environ.get("REPRO_BENCH_TOLERANCE", REGRESSION_TOLERANCE)
        )
    entries = [
        existing
        for existing in document.get("entries", [])
        if existing.get("quick") == entry["quick"]
    ]
    if not entries:
        return None
    baseline = entries[-1]
    base_rate = baseline["aggregate"]["events_per_sec"]
    new_rate = entry["aggregate"]["events_per_sec"]
    if base_rate <= 0:
        return None
    if new_rate < base_rate * (1.0 - tolerance):
        return (
            f"events/sec regressed beyond {tolerance:.0%}: "
            f"{new_rate:.0f} vs committed {base_rate:.0f} "
            f"(entry {baseline.get('label')!r})"
        )
    return None


def regressing_workloads(
    document: Dict, entry: Dict, tolerance: Optional[float] = None
) -> List[str]:
    """The workloads to blame for a failed :func:`check_regression` gate.

    Per-workload events/sec compared against the last committed entry of the
    same mode, with the same tolerance as the aggregate gate.  If no single
    workload crosses the threshold (the aggregate can regress through many
    small slowdowns), the one with the worst new/baseline ratio is returned,
    so the caller always has a minimal rerun set.
    """
    if tolerance is None:
        tolerance = float(
            os.environ.get("REPRO_BENCH_TOLERANCE", REGRESSION_TOLERANCE)
        )
    entries = [
        existing
        for existing in document.get("entries", [])
        if existing.get("quick") == entry["quick"]
    ]
    if not entries:
        return []
    baseline = entries[-1].get("workloads", {})
    ratios: Dict[str, float] = {}
    for name, metrics in entry.get("workloads", {}).items():
        base = baseline.get(name, {}).get("events_per_sec", 0.0)
        if base > 0:
            ratios[name] = metrics["events_per_sec"] / base
    suspects = [
        name for name, ratio in ratios.items() if ratio < 1.0 - tolerance
    ]
    if not suspects and ratios:
        suspects = [min(ratios, key=ratios.get)]
    return suspects


def merge_rerun(entry: Dict, rerun: Dict) -> Dict:
    """Fold a targeted rerun into ``entry``, keeping the faster measurement.

    The CI flake-relief path: when the gate trips, only the regressing
    workloads are rerun once; a rerun that comes back faster replaces that
    workload's metrics (fastest-of-all-repeats, the same protocol as
    ``run_bench`` itself) and the aggregate is recomputed.  Which workloads
    were rerun is recorded under ``"reran"`` so the artifact shows it.
    """
    workloads = dict(entry["workloads"])
    reran = sorted(rerun.get("workloads", {}))
    for name, metrics in rerun.get("workloads", {}).items():
        if name not in workloads:
            continue
        if metrics["events_per_sec"] > workloads[name]["events_per_sec"]:
            spread = workloads[name].get("wall_spread_pct")
            workloads[name] = dict(metrics)
            if spread is not None:
                # The spread of the original repeats is the interesting
                # noise signal; the single rerun has none of its own.
                workloads[name]["wall_spread_pct"] = spread
    merged = dict(entry)
    merged["workloads"] = workloads
    merged["aggregate"] = _aggregate(workloads)
    merged["reran"] = reran
    return merged


__all__ = [
    "BENCH_FILENAME",
    "BENCH_WORKLOADS",
    "BenchResult",
    "append_entry",
    "check_regression",
    "load_trajectory",
    "machine_fingerprint",
    "merge_rerun",
    "profile_bench",
    "regressing_workloads",
    "run_bench",
]
