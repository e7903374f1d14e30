"""The benchmark's workloads: inputs, set-up, one timed iteration, checks.

Every workload simulates a fixed amount of work in full (the simulation cap
equals the transfer size, so nothing is extrapolated) on the default
variants: object service kernel, object transfer pump, ``frfcfs`` unless a
workload states otherwise.

* ``xfer-pimmmu`` -- Base+D+H+P (DCE + HetMap + PIM-MS): one DRAM->PIM then
  one PIM->DRAM transfer on the Table I system.
* ``xfer-base`` -- the Baseline software path (upmem_runtime copy threads,
  host OS scheduler and LLC, locality mapping), the same two transfers.
* ``mix-mesh`` -- an open-loop multi-tenant mix on one clock, on a 4x4 mesh
  under ``qos_priority``: two skewed hot-set trace tenants (one 50 % writes),
  a sparse Poisson latency probe, a memcpy tenant and a DRAM->PIM transfer.
  The trace tenants are generated here from the workload seed and handed to
  the simulator as trace files; the simulator never sees the seed.

The output checks use only the workload's own sizes and the Table I
parameters, never a value the code under test derives from them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

KIB = 1024
MIB = 1024 * KIB
LINE = 64

#: The paper's average DRAM->PIM transfer gain of Base+D+H+P over Base.
PAPER_DHP_OVER_BASE = 4.1


@dataclass(frozen=True)
class Sizes:
    """The fixed amount of work one iteration of each workload simulates."""

    config: str  # "paper" (Table I) or "small" (SystemConfig.small_test)
    transfer_bytes: int
    hot_accesses: int
    hot_footprint_bytes: int
    probe_accesses: int
    copy_bytes: int
    push_bytes: int
    mean_gap_ns: float


FULL = Sizes("paper", 1 * MIB, 2000, 4 * MIB, 250, 64 * KIB, 64 * KIB, 8.0)
SMALL = Sizes("small", 64 * KIB, 300, 256 * KIB, 40, 16 * KIB, 16 * KIB, 8.0)


@dataclass
class Outcome:
    """One iteration: host timing, request accounting, checks, simulated data."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    scale: float = 1.0  # host-speed factor applied to the times above
    attempted: int = 0
    served: int = 0
    events: int = 0
    problems: List[str] = field(default_factory=list)
    snapshots: List[Dict[str, float]] = field(default_factory=list)
    model: Dict[str, float] = field(default_factory=dict)
    sim: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        """SHA-256 over every simulated statistic and model output."""
        payload = json.dumps(
            {"snapshots": self.snapshots, "model": self.model, "sim": self.sim},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- set-up
def import_repro() -> SimpleNamespace:
    """(Re-)import the simulator from scratch and return the names used here.

    Purging ``repro`` from ``sys.modules`` first makes every set-up round pay
    the package import, so set-up time is measured more than once per run.
    """
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    repro = importlib.import_module("repro")
    return SimpleNamespace(
        Session=repro.Session,
        SystemConfig=repro.SystemConfig,
        Variants=importlib.import_module("repro.registry").Variants,
        DesignPoint=importlib.import_module("repro.sim.config").DesignPoint,
        TransferDirection=importlib.import_module(
            "repro.transfer.descriptor"
        ).TransferDirection,
        TenantSpec=importlib.import_module("repro.scenarios.tenant").TenantSpec,
    )


def system_config(repro: SimpleNamespace, sizes: Sizes):
    if sizes.config == "small":
        return repro.SystemConfig.small_test()
    return repro.SystemConfig.paper_baseline()


def peak_gbps(domain) -> float:
    """Theoretical peak of a memory domain from its Table I parameters."""
    bytes_per_beat = domain.bus_width_bits // 8
    return domain.channels * domain.timing.data_rate_mtps * bytes_per_beat / 1000.0


# ------------------------------------------------------------ stats helpers
def _sum(snapshot: Dict[str, float], prefix: str, suffix: str) -> float:
    return sum(
        value
        for key, value in snapshot.items()
        if key.startswith(prefix) and key.endswith(suffix)
    )


def domain_bytes(snapshot: Dict[str, float], domain: str, op: str) -> int:
    return int(_sum(snapshot, f"bw/{domain}/ch", f"/{op}/total_bytes"))


def domain_served(snapshot: Dict[str, float], domain: str) -> int:
    return int(_sum(snapshot, f"counter/{domain}/ch", "/served"))


def latency_samples(stats) -> List[float]:
    """Per-request controller latencies of both memory domains."""
    samples: List[float] = []
    for name, histogram in stats.histograms.items():
        if name.startswith(("dram/ch", "pim/ch")) and name.endswith("/latency_ns"):
            samples.extend(histogram.samples)
    return samples


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * fraction))
    return float(ordered[rank - 1])


def row_hit_ratio(snapshots: Sequence[Dict[str, float]], domain: str) -> float:
    hits = sum(_sum(s, f"counter/{domain}/ch", "/row_hits") for s in snapshots)
    served = sum(domain_served(s, domain) for s in snapshots)
    return hits / served if served else 0.0


def simulated_counts(
    snapshots: Sequence[Dict[str, float]], samples: Sequence[float], events: int, served: int
) -> Dict[str, float]:
    """Per-layer simulated counts that repeat exactly for the same code."""
    hops = sum(s.get("counter/fabric/hops", 0.0) for s in snapshots)
    delivered = sum(s.get("counter/fabric/delivered", 0.0) for s in snapshots)
    return {
        "fabric.hops_mean": hops / delivered if delivered else 0.0,
        "fabric.wait_p99_ns": max(s.get("hist/fabric/wait_ns/p99", 0.0) for s in snapshots),
        "sim.events": float(events),
        "sim.events_per_req": events / served if served else 0.0,
        "dram.dram_row_hit_ratio": row_hit_ratio(snapshots, "dram"),
        "dram.pim_row_hit_ratio": row_hit_ratio(snapshots, "pim"),
        "dram.lat_p50_ns": percentile(samples, 0.50),
        "dram.lat_p99_ns": percentile(samples, 0.99),
    }


# -------------------------------------------------------------------- checks
def check_transfer(
    snapshot: Dict[str, float],
    source: str,
    dest: str,
    nbytes: int,
    duration_ns: float,
    peak: float,
) -> List[str]:
    """Problems with one ``source`` -> ``dest`` transfer of ``nbytes``."""
    problems = []
    expected = {
        (source, "read"): nbytes,
        (source, "write"): 0,
        (dest, "read"): 0,
        (dest, "write"): nbytes,
    }
    for (domain, op), want in sorted(expected.items()):
        got = domain_bytes(snapshot, domain, op)
        if got != want:
            problems.append(f"{domain} {op} bytes {got} != {want}")
    for domain in (source, dest):
        got = domain_served(snapshot, domain)
        if got != nbytes // LINE:
            problems.append(f"{domain} served {got} requests != {nbytes // LINE}")
    if duration_ns <= 0:
        problems.append(f"transfer took {duration_ns} ns")
    elif nbytes / duration_ns > peak:
        problems.append(f"{nbytes / duration_ns:.2f} GB/s above the {peak:.1f} GB/s peak")
    return problems


def check_mix(
    snapshot: Dict[str, float],
    tenants: Sequence,
    expected_requests: Dict[str, int],
    expected_bytes: Dict[Tuple[str, str], int],
    peak: float,
) -> List[str]:
    """Problems with one mix run: per-tenant completion, per-side bytes, peak."""
    problems = []
    finished = {tenant.name: tenant for tenant in tenants}
    for name, want in sorted(expected_requests.items()):
        tenant = finished.get(name)
        if tenant is None:
            problems.append(f"tenant {name} missing from the result")
            continue
        if tenant.requests != want:
            problems.append(f"tenant {name} completed {tenant.requests} of {want} requests")
        if tenant.end_ns < tenant.start_ns:
            problems.append(f"tenant {name} ended before it started")
        got = int(snapshot.get(f"counter/tenant/{name}/bytes", 0.0))
        if got != LINE * want:
            problems.append(f"tenant {name} moved {got} bytes != {LINE * want}")
    for (domain, op), want in sorted(expected_bytes.items()):
        got = domain_bytes(snapshot, domain, op)
        if got != want:
            problems.append(f"{domain} {op} bytes {got} != {want}")
    start = min((t.start_ns for t in tenants), default=0.0)
    end = max((t.end_ns for t in tenants), default=0.0)
    requested = sum(t.requested_bytes for t in tenants)
    if end <= start:
        problems.append("mix makespan is not positive")
    elif requested / (end - start) > peak:
        problems.append(f"{requested / (end - start):.2f} GB/s above the {peak:.1f} GB/s peak")
    return problems


# ----------------------------------------------------------------- workloads
class TransferWorkload:
    """One DRAM->PIM then one PIM->DRAM transfer on one design point."""

    def __init__(self, name: str, design_point: str) -> None:
        self.name = name
        self.design_point = design_point

    def make_inputs(self, seed: int, sizes: Sizes, work_dir: Path) -> Sizes:
        # The transfers are fixed by the Table I system and the size; the
        # seed has nothing to choose here.
        return sizes

    def setup(self, repro: SimpleNamespace, sizes: Sizes) -> SimpleNamespace:
        config = system_config(repro, sizes)
        session = repro.Session.open(
            config=config, design_point=getattr(repro.DesignPoint, self.design_point)
        )
        session.system  # build the system now, not inside the first timed call
        return SimpleNamespace(
            repro=repro,
            session=session,
            sizes=sizes,
            peak=min(peak_gbps(config.dram), peak_gbps(config.pim)),
        )

    def run(self, state: SimpleNamespace) -> Outcome:
        session, nbytes = state.session, state.sizes.transfer_bytes
        directions = state.repro.TransferDirection
        outcome = Outcome()
        samples: List[float] = []
        duration_ns = energy_j = 0.0
        for direction, source, dest in (
            (directions.DRAM_TO_PIM, "dram", "pim"),
            (directions.PIM_TO_DRAM, "pim", "dram"),
        ):
            events = session.engine.events_fired
            wall, cpu = time.perf_counter(), time.process_time()
            result = session.transfer(
                total_bytes=nbytes, direction=direction, sim_cap_bytes=nbytes
            )
            outcome.wall_s += time.perf_counter() - wall
            outcome.cpu_s += time.process_time() - cpu
            outcome.events += session.engine.events_fired - events
            snapshot = result.stats
            outcome.snapshots.append(snapshot)
            outcome.attempted += 2 * (nbytes // LINE)
            outcome.served += domain_served(snapshot, "dram") + domain_served(snapshot, "pim")
            took = result.end_ns - result.start_ns
            outcome.problems += check_transfer(snapshot, source, dest, nbytes, took, state.peak)
            if not session.system.is_memory_idle():
                outcome.problems.append(f"{direction.value}: requests still in flight")
            samples += latency_samples(session.stats)
            duration_ns += took
            energy_j += result.energy_joules or 0.0
        outcome.model = {
            "model.gbps": 2 * nbytes / duration_ns if duration_ns > 0 else 0.0,
            "model.energy_j": energy_j,
            "model.makespan_ns": duration_ns,
        }
        outcome.sim = simulated_counts(outcome.snapshots, samples, outcome.events, outcome.served)
        return outcome


@dataclass(frozen=True)
class MixInputs:
    """The mix's generated inputs and the outputs they must produce."""

    traces: Dict[str, Path]
    requests: Dict[str, int]  # per tenant
    expected_bytes: Dict[Tuple[str, str], int]  # per (domain, read/write)
    sizes: Sizes


def _write_trace(path: Path, events: Sequence[Tuple[float, int, bool]]) -> None:
    """Write a ``repro-trace-v1`` JSONL trace (header, then one access a line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        header = {"format": "repro-trace-v1", "events": len(events), "meta": {}}
        handle.write(json.dumps(header) + "\n")
        for time_ns, address, is_write in events:
            handle.write(json.dumps([time_ns, address, "W" if is_write else "R", LINE]) + "\n")


def skewed_trace(
    rng: random.Random, base: int, count: int, footprint: int, gap_ns: float, write_share: float
) -> List[Tuple[float, int, bool]]:
    """Hot-set skew: 90 % of accesses fall on a random 10 % of the lines."""
    lines = footprint // LINE
    hot = rng.sample(range(lines), max(1, lines // 10))
    events, now = [], 0.0
    for _ in range(count):
        line = rng.choice(hot) if rng.random() < 0.9 else rng.randrange(lines)
        events.append((now, base + line * LINE, rng.random() < write_share))
        now += gap_ns * (0.5 + rng.random())
    return events


def poisson_trace(
    rng: random.Random, base: int, count: int, gap_ns: float
) -> List[Tuple[float, int, bool]]:
    """A sparse read stream with exponential inter-arrival gaps."""
    events, now = [], 0.0
    for index in range(count):
        events.append((now, base + index * LINE, False))
        now += rng.expovariate(1.0 / gap_ns)
    return events


class MixWorkload:
    """Five tenants on one clock, mesh fabric, tenant-aware QoS scheduling."""

    name = "mix-mesh"
    policy = "qos_priority:probe=1"
    fabric = "mesh:4x4"

    def make_inputs(self, seed: int, sizes: Sizes, work_dir: Path) -> MixInputs:
        rng = random.Random(seed)
        # The trace buffers sit far above the memcpy/transfer tenants, which
        # the composer allocates upward from address 0.
        base = 64 * MIB
        gap, footprint, hot = sizes.mean_gap_ns, sizes.hot_footprint_bytes, sizes.hot_accesses
        traces = {
            "hot-r": skewed_trace(rng, base, hot, footprint, gap, 0.0),
            "hot-w": skewed_trace(rng, base + 16 * MIB, hot, footprint, gap, 0.5),
            "probe": poisson_trace(rng, base + 32 * MIB, sizes.probe_accesses, 20 * gap),
        }
        paths = {}
        for name, events in traces.items():
            paths[name] = work_dir / f"{self.name}-seed{seed}-{name}.jsonl"
            _write_trace(paths[name], events)
        writes = sum(is_write for events in traces.values() for _, _, is_write in events)
        reads = sum(len(events) for events in traces.values()) - writes
        return MixInputs(
            traces=paths,
            requests=dict(
                {name: len(events) for name, events in traces.items()},
                copy=2 * sizes.copy_bytes // LINE,
                push=2 * sizes.push_bytes // LINE,
            ),
            expected_bytes={
                ("dram", "read"): LINE * reads + sizes.copy_bytes + sizes.push_bytes,
                ("dram", "write"): LINE * writes + sizes.copy_bytes,
                ("pim", "read"): 0,
                ("pim", "write"): sizes.push_bytes,
            },
            sizes=sizes,
        )

    def setup(self, repro: SimpleNamespace, inputs: MixInputs) -> SimpleNamespace:
        config = system_config(repro, inputs.sizes)
        session = repro.Session.open(
            config=config,
            design_point=repro.DesignPoint.BASE_DHP,
            variants=repro.Variants(policy=self.policy, fabric=self.fabric),
        )
        session.system
        sizes = inputs.sizes
        spec = repro.TenantSpec
        tenants = [spec.trace_file(name, str(path)) for name, path in inputs.traces.items()]
        tenants += [spec.memcpy("copy", sizes.copy_bytes), spec.transfer("push", sizes.push_bytes)]
        return SimpleNamespace(
            session=session,
            tenants=tenants,
            inputs=inputs,
            peak=peak_gbps(config.dram) + peak_gbps(config.pim),
        )

    def run(self, state: SimpleNamespace) -> Outcome:
        session = state.session
        outcome = Outcome()
        events = session.engine.events_fired
        wall, cpu = time.perf_counter(), time.process_time()
        result = session.mix(state.tenants, name=self.name, include_isolated=False)
        outcome.wall_s = time.perf_counter() - wall
        outcome.cpu_s = time.process_time() - cpu
        outcome.events = session.engine.events_fired - events
        snapshot = result.stats
        outcome.snapshots.append(snapshot)
        inputs = state.inputs
        outcome.attempted = sum(inputs.requests.values())
        outcome.served = domain_served(snapshot, "dram") + domain_served(snapshot, "pim")
        outcome.problems += check_mix(
            snapshot, result.tenants, inputs.requests, inputs.expected_bytes, state.peak
        )
        if not session.system.is_memory_idle():
            outcome.problems.append("requests still in flight after the mix")
        makespan = result.end_ns - result.start_ns
        outcome.model = {
            "model.gbps": result.requested_bytes / makespan if makespan > 0 else 0.0,
            "model.energy_j": 0.0,  # the mix composer has no energy model
            "model.makespan_ns": makespan,
        }
        outcome.sim = simulated_counts(
            outcome.snapshots, latency_samples(session.stats), outcome.events, outcome.served
        )
        return outcome


def observers(counts) -> Dict[Tuple[str, str, str], object]:
    """Result observers for the traced pass (see :class:`tracer.LayerTracer`).

    They count queue admissions at the controllers' public enqueue calls and
    add up replay deferrals and DCE / CPU busy time from the completion
    results of the public ``begin`` entry points.
    """

    def admissions(enqueue):
        def observed(self, request, *args):
            accepted = enqueue(self, request, *args)
            counts["enqueue.attempted"] += 1
            counts["enqueue.refused"] += not accepted
            return accepted

        return observed

    def completion(key: str, attribute: str):
        def observe(begin):
            def observed(self, *args, on_complete=None, **kwargs):
                def done(result):
                    counts[key] += getattr(result, attribute)
                    if on_complete is not None:
                        on_complete(result)

                return begin(self, *args, on_complete=done, **kwargs)

            return observed

        return observe

    controller = ("repro.memctrl.controller", "ChannelController")
    return {
        controller + ("enqueue",): admissions,
        controller + ("enqueue_prepared",): admissions,
        ("repro.scenarios.trace", "TraceReplayer", "begin"): completion(
            "scenarios.deferred", "deferred"
        ),
        ("repro.core.dce", "DataCopyEngine", "begin"): completion(
            "core.dce_busy_ns", "dce_busy_ns"
        ),
        ("repro.upmem_runtime.engine", "SoftwareTransferEngine", "begin"): completion(
            "upmem_runtime.cpu_busy_ns", "cpu_core_busy_ns"
        ),
    }


WORKLOADS = {
    "xfer-pimmmu": TransferWorkload("xfer-pimmmu", "BASE_DHP"),
    "xfer-base": TransferWorkload("xfer-base", "BASELINE"),
    "mix-mesh": MixWorkload(),
}
