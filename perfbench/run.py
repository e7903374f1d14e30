"""Repository benchmark for the PIM-MMU simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload xfer-pimmmu --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several rounds of importing ``repro`` and building the workload's systems),
then back-to-back iterations of the workload for ``--seconds`` (a closed
loop with one client: each iteration starts when the previous one ended),
reporting medians over the iterations.  Host times are scaled to a
reference host speed measured around every timed step (see
:func:`calibrate`); the unscaled wall time is printed beside them.

``--trace 1`` measures untraced iterations for half of ``--seconds``, then one
traced iteration, and reports the per-layer metrics (see ``tracer.py``) and
writes the spans to ``perfbench/out/<workload>-seed<seed>.trace.json``.

Every iteration's outputs are checked and digested; two iterations of one
invocation must give the same digest.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything runs in this one process, with no threads.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import tracer  # noqa: E402  (sibling module; run as a script)
import workloads as wl  # noqa: E402

#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 7

#: On a shared host the CPU speed can drift by tens of per cent over minutes
#: (other tenants), more than any timing bound could absorb.  Every
#: timed step is therefore bracketed by :func:`calibrate`, a fixed loop that
#: never calls the simulator, and host times are reported scaled to a host on
#: which that loop takes this long.
REFERENCE_CALIBRATION_S = 0.035


def calibrate() -> float:
    """Seconds a fixed, simulator-free Python loop takes on this host now.

    It uses the operations the simulator spends its time in -- object
    creation, attribute and dict access, a binary heap -- and nothing from
    the code under test, so a change to the simulator cannot move it.
    """
    started = time.perf_counter()
    heap: List[tuple] = []
    totals: Dict[int, int] = {}
    for index in range(20_000):
        item = SimpleNamespace(key=index * 7 % 13, value=index)
        totals[item.key] = totals.get(item.key, 0) + item.value
        heapq.heappush(heap, (item.key, index))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


class Calibrated:
    """Scales host times taken between consecutive :func:`calibrate` calls."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.samples = [self.last]

    def scale(self) -> float:
        """Factor for the step that just ended: reference over measured speed."""
        before, self.last = self.last, calibrate()
        self.samples.append(self.last)
        return REFERENCE_CALIBRATION_S / ((before + self.last) / 2)


#: Metric names and units are declared once, in BENCHMARK.json.
SPEC_FILE = ROOT / "BENCHMARK.json"


def declared_units(section: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC_FILE.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


#: The transfer workload whose GB/s pairs with each one in ``dhp_over_base``.
DHP_PAIR = {"xfer-pimmmu": "xfer-base", "xfer-base": "xfer-pimmmu"}


class Run:
    """One invocation's state for one workload: inputs, set-up, iterations."""

    def __init__(self, name: str, seed: int, sizes: wl.Sizes, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workload = wl.WORKLOADS[name]
        self.sizes = sizes
        self.inputs = self.workload.make_inputs(seed, sizes, work_dir)
        self.outcomes: List[wl.Outcome] = []
        self.problems: List[str] = []
        self.calibration = Calibrated()
        self.setup_times: List[float] = []  # scaled, like every reported time
        for _ in range(SETUP_ROUNDS):
            started = time.perf_counter()
            self.repro = wl.import_repro()
            self.state = self.workload.setup(self.repro, self.inputs)
            took = time.perf_counter() - started
            self.setup_times.append(took * self.calibration.scale())

    def iterate(self, seconds: float, minimum: int = 2) -> None:
        """Run iterations back to back for ``seconds`` (at least ``minimum``)."""
        started = time.perf_counter()
        while len(self.outcomes) < minimum or time.perf_counter() - started < seconds:
            outcome = self.workload.run(self.state)
            outcome.scale = self.calibration.scale()
            self.problems += outcome.problems
            self.outcomes.append(outcome)
        self.digests = {outcome.digest() for outcome in self.outcomes}
        if len(self.digests) != 1:
            self.problems.append(f"iterations gave {len(self.digests)} different digests")

    @property
    def digest(self) -> str:
        return self.outcomes[0].digest()

    @property
    def attempted(self) -> int:
        return sum(outcome.attempted for outcome in self.outcomes)

    @property
    def failed(self) -> int:
        """Requests that did not complete; all of them if any check failed."""
        if self.problems:
            return self.attempted
        return sum(max(0, o.attempted - o.served) for o in self.outcomes)

    def end_to_end(self) -> Dict[str, float]:
        outcomes = self.outcomes
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.median(o.wall_s * o.scale for o in outcomes),
            "cpu_s": statistics.median(o.cpu_s * o.scale for o in outcomes),
            "req_per_s": statistics.median(o.served / (o.wall_s * o.scale) for o in outcomes),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "served_ratio": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self) -> Dict[str, float]:
        """One traced iteration on freshly built systems; per-layer metrics."""
        layer_tracer = tracer.LayerTracer(str(SRC))
        layer_tracer.install(wl.observers(layer_tracer.counts))
        try:
            state = self.workload.setup(self.repro, self.inputs)
            layer_tracer.reset()
            outcome = layer_tracer.profile(lambda: self.workload.run(state))
        finally:
            layer_tracer.uninstall()
        self.problems += outcome.problems
        if outcome.digest() != self.digest:
            self.problems.append("the traced iteration's digest differs from the untraced one")
        counts = layer_tracer.counts
        attempted = counts["enqueue.attempted"]
        metrics = {
            f"{layer}.self_s": layer_tracer.self_s.get(layer, 0.0)
            for layer in tracer.LAYERS + (tracer.OTHER,)
        }
        metrics.update(
            (f"{layer}.calls", float(layer_tracer.calls[layer])) for layer in tracer.LAYERS
        )
        untraced_wall = statistics.median(o.wall_s for o in self.outcomes)
        refused = counts["enqueue.refused"]
        metrics.update(
            {
                "trace.overhead_s": outcome.wall_s - untraced_wall,
                "memctrl.refused": float(refused),
                "memctrl.admit_ratio": 1.0 - refused / attempted if attempted else 0.0,
                "core.dce_busy_ns": float(counts["core.dce_busy_ns"]),
                "upmem_runtime.cpu_busy_ns": float(counts["upmem_runtime.cpu_busy_ns"]),
                "scenarios.deferred": float(counts["scenarios.deferred"]),
            }
        )
        metrics.update(outcome.sim)
        metrics.update(outcome.model)
        metrics["model.dhp_over_base"] = self.dhp_over_base(outcome.model["model.gbps"])
        ratio = metrics["model.dhp_over_base"]
        metrics["model.dhp_paper_err_pct"] = (
            100.0 * abs(ratio / wl.PAPER_DHP_OVER_BASE - 1.0) if ratio else 0.0
        )
        self.trace_path = layer_tracer.write_chrome_trace(
            OUT_DIR / f"{self.name}-seed{self.seed}.trace.json"
        )
        return metrics

    def dhp_over_base(self, gbps: float) -> float:
        """Base+D+H+P over Base GB/s, from one untimed run of the paired workload."""
        pair = DHP_PAIR.get(self.name)
        if pair is None:
            return 0.0
        other = wl.WORKLOADS[pair]
        outcome = other.run(other.setup(self.repro, self.sizes))
        self.problems += outcome.problems
        other_gbps = outcome.model["model.gbps"]
        return gbps / other_gbps if self.name == "xfer-pimmmu" else other_gbps / gbps


def _format(value: float) -> str:
    return f"{value:.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: wl.Sizes) -> Run:
    """Measure one workload and print its metrics; returns the finished run."""
    run = Run(name, seed, sizes, OUT_DIR / "inputs")
    if trace:
        run.iterate(seconds / 2)
        metrics, units = run.per_layer(), declared_units("per_layer")
    else:
        run.iterate(seconds)
        metrics, units = run.end_to_end(), declared_units("end_to_end")
    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics {mismatch} do not match {SPEC_FILE.name}")
    run.metrics = {name: metrics[name] for name in units}
    run.units = units
    print(
        f"{name}: seed {seed}, {len(run.outcomes)} iterations, "
        f"digest {run.digest} (identical across iterations: "
        f"{'yes' if len(run.digests) == 1 else 'no'})"
    )
    for metric, unit in units.items():
        print(f"  {metric:<28} {_format(metrics[metric]):>14} {unit}")
    if not trace:
        print(
            f"  {'error_rate':<28} {_format(run.failed / run.attempted):>14} ratio"
            f"  ({run.failed} of {run.attempted} requests failed)"
        )
        print(
            f"  host speed: calibration loop {statistics.median(run.calibration.samples):.4f} s"
            f" (reference {REFERENCE_CALIBRATION_S} s); unscaled wall_s "
            f"{_format(statistics.median(o.wall_s for o in run.outcomes))} s"
        )
    else:
        ratio = metrics["model.dhp_over_base"]
        if ratio:
            print(
                f"  model.dhp_over_base {ratio:.2f}x against the paper's "
                f"{wl.PAPER_DHP_OVER_BASE}x average transfer gain "
                f"(error {100.0 * (ratio / wl.PAPER_DHP_OVER_BASE - 1.0):+.1f} %)"
            )
        print(f"  spans written to {run.trace_path}")
    for problem in sorted(set(run.problems)):
        print(f"  CHECK FAILED: {problem}")
    return run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="reduced sizes on SystemConfig.small_test()"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sizes = wl.SMALL if args.small else wl.FULL
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [measure(name, args.seed, args.seconds, bool(args.trace), sizes) for name in names]
    prefix = len(runs) > 1
    result = {
        "correct": not any(run.problems for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {
            f"{run.name}/{key}" if prefix else key: {"value": value, "unit": run.units[key]}
            for run in runs
            for key, value in run.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
