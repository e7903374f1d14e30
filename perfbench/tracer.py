"""Per-layer tracing for the benchmark's traced pass.

Everything here runs from the benchmark's own files; the simulator under
``src/`` is not modified.  A :class:`LayerTracer` measures one workload
iteration three ways at once:

* **self time per layer** -- a ``cProfile`` pass folded by module into the
  layers (the ``src/repro/<layer>/`` packages plus ``repro/system.py``).
  Builtins, the standard library and NumPy have no layer of their own: their
  time is charged to the layer that called them, following the profile's
  caller edges;
* **calls per layer** -- every public function and method of each layer
  module is wrapped, and the wrappers count the calls into it;
* **spans** -- the same wrappers record ``(name, layer, start, duration,
  span id, parent span id)`` for the first ``span_cap`` calls, kept in memory
  and written out at the end as Chrome Trace Event JSON (viewable in
  Perfetto or ``chrome://tracing``).

*Observers* hook the completion results of a few public entry points to
read simulated counts that no stats counter exposes (queue admissions,
replay deferrals, DCE and CPU busy time).  The untraced end-to-end runs
install none of this.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import itertools
import json
import os
import pstats
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: The simulator's layers: ``repro.<layer>`` packages, plus ``repro.system``.
LAYERS = (
    "sim",
    "mapping",
    "memctrl",
    "dram",
    "core",
    "upmem_runtime",
    "host",
    "fabric",
    "scenarios",
    "workloads",
    "system",
)

#: Bucket for repro modules outside the named layers (api, energy, exp, ...).
OTHER = "other"

_TRACER_FILE = os.path.normcase(os.path.abspath(__file__))
_BENCH_DIR = os.path.dirname(_TRACER_FILE)


def layer_of_module(module_name: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or ``None`` outside repro."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def layer_of_file(path: str, src_root: str) -> Optional[str]:
    """Owner of a profiled code object's file.

    Returns a layer name, :data:`OTHER`, ``"trace"`` for this module's
    wrappers, ``"bench"`` for the benchmark's other files, or ``None`` for
    code with no owner (builtins, stdlib, third-party packages).
    """
    path = os.path.normcase(os.path.abspath(path)) if path not in ("~", "") else path
    if path == _TRACER_FILE:
        return "trace"
    repro_root = os.path.join(src_root, "repro") + os.sep
    if path.startswith(repro_root):
        relative = path[len(repro_root):].replace(os.sep, "/")
        head = relative.split("/", 1)[0]
        if head.endswith(".py"):
            head = head[:-3]
        return head if head in LAYERS else OTHER
    if path.startswith(_BENCH_DIR + os.sep):
        return "bench"
    return None


def fold_profile(profile: cProfile.Profile, src_root: str) -> Dict[str, float]:
    """Fold a profile's self times into owners (layers, other, trace, bench).

    An unowned function's self time is split over its callers in proportion
    to the self time spent under each caller edge, recursively until an owned
    caller is reached.  Time that cannot be traced back to an owner (profile
    roots, call cycles entirely outside repro) lands in :data:`OTHER`.
    """
    src_root = os.path.normcase(os.path.abspath(src_root))
    table = pstats.Stats(profile).stats
    owners = {key: layer_of_file(key[0], src_root) for key in table}
    shares: Dict[tuple, Dict[str, float]] = {}

    def distribution(key: tuple, visiting: frozenset) -> Dict[str, float]:
        owner = owners.get(key)
        if owner is not None:
            return {owner: 1.0}
        if key in shares:
            return shares[key]
        callers = table[key][4] if key in table else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values())
        if total <= 0 or key in visiting:
            return {OTHER: 1.0}
        result: Dict[str, float] = {}
        for caller, weight in weights.items():
            for owner_name, share in distribution(caller, visiting | {key}).items():
                result[owner_name] = result.get(owner_name, 0.0) + share * weight / total
        if not visiting:
            shares[key] = result
        return result

    folded: Dict[str, float] = {}
    for key, (_cc, _nc, self_time, _cum, _callers) in table.items():
        for owner_name, share in distribution(key, frozenset()).items():
            folded[owner_name] = folded.get(owner_name, 0.0) + self_time * share
    return folded


class LayerTracer:
    """Wraps every public function of the layer modules; profiles on demand.

    Use :meth:`install` before building the systems of the traced iteration
    (so bound methods cached at construction are the wrapped ones),
    :meth:`reset` after building them, then :meth:`profile` around the
    iteration itself, and :meth:`uninstall` when done.
    """

    def __init__(self, src_root: str, span_cap: int = 50_000) -> None:
        self.src_root = src_root
        self.span_cap = span_cap
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: List[Tuple[str, str, int, int, int, int]] = []
        self.self_s: Dict[str, float] = {}
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn: Callable, label: str, layer: str) -> Callable:
        calls, spans, stack = self.calls, self.spans, self._stack
        cap, ids, clock = self.span_cap, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            if len(spans) >= cap:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((label, layer, start, clock() - start, span_id, parent))
                stack.pop()

        return traced

    def _set(self, owner: object, name: str, value: object) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(
        self, observers: Optional[Dict[Tuple[str, str, str], Callable]] = None
    ) -> None:
        """Wrap the public functions and methods of every loaded layer module.

        ``observers`` maps ``(module, class, method)`` to a decorator applied
        underneath the counting wrapper, for reading a call's results.
        """
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and layer_of_module(name) not in (None, OTHER)
        }
        observers = observers or {}
        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for module_name, module in sorted(modules.items()):
            layer = layer_of_module(module_name)
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module_name:
                    wrapped = self._wrap(value, f"{module_name}.{name}", layer)
                    replaced[id(value)] = (value, wrapped)
                elif inspect.isclass(value) and value.__module__ == module_name:
                    self._wrap_class(value, module_name, layer, observers)
        # Module-level functions are also reached through ``from x import f``
        # bindings in other modules; rebind those too.
        for module in list(sys.modules.values()):
            if module is None or layer_of_module(getattr(module, "__name__", "")) is None:
                continue
            for name, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, name, entry[1])

    def _wrap_class(self, cls: type, module_name: str, layer: str, observers) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{module_name}.{cls.__qualname__}.{name}"
            observer = observers.get((module_name, cls.__name__, name))
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if observer is not None:
                    inner = observer(inner)
                self._set(cls, name, type(value)(self._wrap(inner, label, layer)))
            elif inspect.isfunction(value):
                if observer is not None:
                    value = observer(value)
                self._set(cls, name, self._wrap(value, label, layer))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def reset(self) -> None:
        """Forget calls, counts and spans recorded so far (e.g. during set-up)."""
        self.calls.clear()
        self.counts.clear()
        self.spans.clear()
        self._stack.clear()

    # ----------------------------------------------------------- profiling
    def profile(self, work: Callable[[], object]) -> object:
        """Run ``work`` under ``cProfile``, fold its self time into layers
        (kept in :attr:`self_s`) and return ``work``'s result."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = work()
        finally:
            profiler.disable()
        self.self_s = fold_profile(profiler, self.src_root)
        return result

    # -------------------------------------------------------------- export
    def chrome_trace(self) -> Dict[str, object]:
        """The recorded spans as a Chrome Trace Event JSON document."""
        origin = min((span[2] for span in self.spans), default=0)
        events = [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": duration / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent},
            }
            for label, layer, start, duration, span_id, parent in self.spans
        ]
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "span_cap": self.span_cap,
                "calls_recorded": sum(self.calls.values()),
            },
        }

    def write_chrome_trace(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(self.chrome_trace(), handle)
        return path
