"""Memory-access traces: record, store (JSONL/CSV), synthesize and replay.

A :class:`Trace` is an ordered sequence of timestamped 64 B memory accesses --
the request stream a workload actually put on the memory system.  Traces close
the gap between the paper's steady-state microbenchmarks and real access
patterns: capture any simulated transfer stream **once** (bursty, skewed,
phase-shifted, whatever the application does) and re-simulate it
deterministically under any :class:`~repro.sim.config.DesignPoint` or system
configuration.

The three pieces:

* :class:`TraceRecorder` -- hooks :meth:`repro.system.PimSystem.submit` (via
  ``attach_trace_hook``) and captures every *accepted* request.
* :func:`save_trace` / :func:`load_trace` -- compact on-disk formats.  JSONL
  (one header object, then one ``[time_ns, addr, "R"|"W", size, tenant]``
  array per event) is the canonical format; CSV is provided for interchange
  with spreadsheet/pandas tooling.  See ``docs/scenarios.md`` for the spec.
* :class:`TraceReplayer` -- open-loop replay: each access is issued at its
  recorded offset from the replay start (backpressure defers it, preserving
  arrival order per stream), and per-request latencies are collected.  Replay
  is fully deterministic: replaying the same trace twice on identically
  configured systems yields bit-identical results.

:func:`synthesize_trace` builds traces from the deterministic generators of
:mod:`repro.workloads.streams` (uniform / bursty / skewed / phased), so the
scenario registry can describe rich traffic shapes without shipping trace
files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import deque
from functools import partial
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES
from repro.sim.stats import Histogram
from repro.system import PimSystem, TraceHookHandle
from repro.workloads import streams

TRACE_FORMAT = "repro-trace-v1"

_CSV_COLUMNS = ("time_ns", "phys_addr", "op", "size_bytes", "tenant")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded memory access: *when* it was issued, *where*, and *what*."""

    time_ns: float
    phys_addr: int
    is_write: bool
    size_bytes: int = CACHE_LINE_BYTES
    tenant: Optional[str] = None

    @property
    def op(self) -> str:
        """``"R"`` or ``"W"`` -- the on-disk spelling of the direction."""
        return "W" if self.is_write else "R"


@dataclass(frozen=True)
class Trace:
    """An immutable, ordered sequence of :class:`TraceEvent`."""

    events: Tuple[TraceEvent, ...]
    meta: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        # Canonicalise to issue order: hand-edited or externally merged trace
        # files may arrive sorted by address; a stable time sort restores the
        # recorded semantics (and the replayer requires non-decreasing times).
        if any(
            events[i].time_ns > events[i + 1].time_ns for i in range(len(events) - 1)
        ):
            events = tuple(sorted(events, key=lambda event: event.time_ns))
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "meta", tuple(self.meta))

    def __len__(self) -> int:
        return len(self.events)

    @property
    def duration_ns(self) -> float:
        """Span between the first and last recorded issue time."""
        if not self.events:
            return 0.0
        return self.events[-1].time_ns - self.events[0].time_ns

    @property
    def total_bytes(self) -> int:
        return sum(event.size_bytes for event in self.events)

    @property
    def meta_dict(self) -> Dict[str, str]:
        return dict(self.meta)

    def normalized(self) -> "Trace":
        """The same trace with times shifted so the first event is at 0 ns."""
        if not self.events or self.events[0].time_ns == 0.0:
            return self
        t0 = self.events[0].time_ns
        return Trace(
            events=tuple(
                replace(event, time_ns=event.time_ns - t0) for event in self.events
            ),
            meta=self.meta,
        )

    def retagged(self, tenant: Optional[str]) -> "Trace":
        """The same trace with every event re-labelled to ``tenant``."""
        return Trace(
            events=tuple(replace(event, tenant=tenant) for event in self.events),
            meta=self.meta,
        )

    def stable_digest(self) -> str:
        """SHA-256 over the canonical serialization (keys the experiment cache)."""
        digest = hashlib.sha256()
        for event in self.events:
            digest.update(
                f"{event.time_ns!r},{event.phys_addr},{event.op},"
                f"{event.size_bytes},{event.tenant or ''}\n".encode()
            )
        return digest.hexdigest()[:16]


class TraceRecorder:
    """Captures every accepted memory request of a system into a trace.

    Use as a context manager around the workload of interest::

        with TraceRecorder(system) as recorder:
            runtime.pim_mmu_transfer(op)
        trace = recorder.trace()

    ``streams`` optionally restricts capture to a subset of
    :class:`~repro.memctrl.request.RequestStream` values (e.g. only the
    transfer traffic, ignoring contenders).
    """

    def __init__(
        self,
        system: PimSystem,
        streams: Optional[Iterable[RequestStream]] = None,
    ) -> None:
        self.system = system
        self._streams = frozenset(streams) if streams is not None else None
        self._events: List[TraceEvent] = []
        self._handle: Optional["TraceHookHandle"] = None

    # -- capture -------------------------------------------------------------
    def _hook(self, request: MemoryRequest, time_ns: float) -> None:
        if self._streams is not None and request.stream not in self._streams:
            return
        self._events.append(
            TraceEvent(
                time_ns=time_ns,
                phys_addr=request.phys_addr,
                is_write=request.is_write,
                size_bytes=request.size_bytes,
                tenant=request.tenant,
            )
        )

    def attach(self) -> "TraceRecorder":
        if self._handle is None:
            self._handle = self.system.attach_trace_hook(self._hook)
        return self

    def detach(self) -> None:
        """Stop capturing.  Idempotent, like the handle it delegates to."""
        if self._handle is not None:
            self._handle.detach()
            self._handle = None

    def __enter__(self) -> "TraceRecorder":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- results -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def trace(self, normalize: bool = True, **meta: str) -> Trace:
        """Build the recorded :class:`Trace` (times relative to the first event)."""
        recorded = Trace(
            events=tuple(self._events),
            meta=tuple(sorted({"source": "recorded", **meta}.items())),
        )
        return recorded.normalized() if normalize else recorded


# ---------------------------------------------------------------------------
# On-disk formats
# ---------------------------------------------------------------------------


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace to ``path`` (JSONL unless the suffix is ``.csv``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix.lower() == ".csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            for event in trace.events:
                writer.writerow(
                    [
                        repr(event.time_ns),
                        event.phys_addr,
                        event.op,
                        event.size_bytes,
                        event.tenant or "",
                    ]
                )
        return path
    with path.open("w") as handle:
        header = {
            "format": TRACE_FORMAT,
            "events": len(trace),
            "meta": trace.meta_dict,
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for event in trace.events:
            record = [event.time_ns, event.phys_addr, event.op, event.size_bytes]
            if event.tenant is not None:
                record.append(event.tenant)
            handle.write(json.dumps(record) + "\n")
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace` (JSONL or CSV by suffix)."""
    path = Path(path)
    events: List[TraceEvent] = []
    if path.suffix.lower() == ".csv":
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or set(_CSV_COLUMNS) - set(reader.fieldnames):
                raise ValueError(
                    f"{path}: CSV trace must have columns {', '.join(_CSV_COLUMNS)}"
                )
            for row in reader:
                events.append(
                    TraceEvent(
                        time_ns=float(row["time_ns"]),
                        phys_addr=int(row["phys_addr"]),
                        is_write=row["op"].strip().upper() == "W",
                        size_bytes=int(row["size_bytes"]),
                        tenant=row["tenant"] or None,
                    )
                )
        return Trace(events=tuple(events), meta=(("source", str(path)),))
    with path.open() as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not a {TRACE_FORMAT} trace") from error
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"{path}: expected a {TRACE_FORMAT} header, got {header_line!r}"
            )
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            events.append(
                TraceEvent(
                    time_ns=float(record[0]),
                    phys_addr=int(record[1]),
                    is_write=record[2] == "W",
                    size_bytes=int(record[3]),
                    tenant=record[4] if len(record) > 4 else None,
                )
            )
    meta = tuple(sorted({**header.get("meta", {}), "source": str(path)}.items()))
    return Trace(events=tuple(events), meta=meta)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

#: Traffic shapes :func:`synthesize_trace` understands.
TRACE_PATTERNS = ("uniform", "bursty", "skewed", "phased", "poisson", "diurnal")


def synthesize_trace(
    pattern: str,
    total_bytes: int,
    base_addr: int = 0,
    mean_gap_ns: float = 10.0,
    write_fraction: float = 0.0,
    seed: int = 0,
    tenant: Optional[str] = None,
) -> Trace:
    """Build a deterministic synthetic trace of one traffic shape.

    * ``uniform`` -- sequential addresses at a steady issue rate.
    * ``bursty``  -- sequential addresses in on/off bursts (64-access bursts
      separated by idle gaps 32x the mean inter-arrival time).
    * ``skewed``  -- hot-set-skewed addresses (90 % of accesses in 10 % of the
      buffer) at a steady rate.
    * ``phased``  -- alternating sequential and strided phases (a streaming
      workload that periodically switches to a column-major walk).
    * ``poisson`` -- sequential addresses with exponentially distributed
      gaps (a memoryless Poisson arrival process, the open-system capacity
      model).
    * ``diurnal`` -- sequential addresses whose Poisson arrival *rate*
      follows a sinusoidal day/night envelope (peak phase issues 4x faster
      than the trough, same average rate).

    ``write_fraction`` deterministically marks every ``1/write_fraction``-th
    access as a write (0 = read-only).  The same arguments always produce the
    same trace, so synthetic traces are safe cache-key material.
    """
    if pattern not in TRACE_PATTERNS:
        raise ValueError(
            f"unknown trace pattern {pattern!r}; choose from {', '.join(TRACE_PATTERNS)}"
        )
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be within [0, 1]")
    count = total_bytes // CACHE_LINE_BYTES
    if count <= 0:
        raise ValueError("total_bytes must cover at least one cache line")
    buffer_bytes = count * CACHE_LINE_BYTES

    if pattern == "uniform":
        addresses = list(streams.sequential_blocks(base_addr, buffer_bytes))
        gaps = streams.interarrival_times(count, mean_gap_ns, seed=seed)
    elif pattern == "bursty":
        addresses = list(streams.sequential_blocks(base_addr, buffer_bytes))
        gaps = streams.interarrival_times(
            count,
            mean_gap_ns,
            burst_length=64,
            idle_gap_ns=32 * mean_gap_ns,
            seed=seed,
        )
    elif pattern == "skewed":
        addresses = list(
            streams.skewed_blocks(base_addr, buffer_bytes, count, seed=seed)
        )
        gaps = streams.interarrival_times(count, mean_gap_ns, jitter=0.5, seed=seed)
    elif pattern == "poisson":
        addresses = list(streams.sequential_blocks(base_addr, buffer_bytes))
        gaps = streams.poisson_interarrival_times(count, mean_gap_ns, seed=seed)
    elif pattern == "diurnal":
        addresses = list(streams.sequential_blocks(base_addr, buffer_bytes))
        gaps = streams.diurnal_interarrival_times(count, mean_gap_ns, seed=seed)
    else:  # phased
        half = (count // 2) * CACHE_LINE_BYTES
        half = max(half, CACHE_LINE_BYTES)
        addresses = list(streams.sequential_blocks(base_addr, half))
        addresses += list(streams.strided_blocks(base_addr + half, half))
        addresses = addresses[:count]
        gaps = streams.interarrival_times(count, mean_gap_ns, seed=seed)

    write_period = int(round(1.0 / write_fraction)) if write_fraction > 0 else 0
    events: List[TraceEvent] = []
    now = 0.0
    for index, (address, gap) in enumerate(zip(addresses, gaps)):
        events.append(
            TraceEvent(
                time_ns=now,
                phys_addr=address,
                is_write=write_period > 0 and index % write_period == write_period - 1,
                tenant=tenant,
            )
        )
        now += gap
    meta = {
        "source": "synthetic",
        "pattern": pattern,
        "total_bytes": str(buffer_bytes),
        "mean_gap_ns": repr(mean_gap_ns),
        "seed": str(seed),
    }
    return Trace(events=tuple(events), meta=tuple(sorted(meta.items())))


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of replaying one trace through a system."""

    trace_events: int
    completed: int
    start_ns: float
    end_ns: float
    total_bytes: int
    deferred: int  # events that hit backpressure and were issued late
    latency: Histogram = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def duration_ns(self) -> float:
        return max(0.0, self.end_ns - self.start_ns)

    @property
    def throughput_gbps(self) -> float:
        """Payload bytes over wall time (bytes/ns == GB/s)."""
        if self.duration_ns <= 0:
            return 0.0
        return self.total_bytes / self.duration_ns

    @property
    def p50_latency_ns(self) -> float:
        return self.latency.percentile(0.50)

    @property
    def p99_latency_ns(self) -> float:
        return self.latency.percentile(0.99)

    @property
    def mean_latency_ns(self) -> float:
        return self.latency.mean


class TraceReplayer:
    """Open- or closed-loop, deterministic replay of a :class:`Trace`.

    **Open loop** (the default): every event is scheduled at ``start_ns +
    (event.time_ns - t0)``; if the target queue is full the access is parked
    in arrival order and re-issued as soon as the controller frees a slot
    (the ``deferred`` count in the result tells how often backpressure bent
    the recorded timing).

    **Closed loop** (``closed_loop=True``): the trace supplies only the
    *access sequence*; the recorded times are ignored.  ``concurrency``
    logical clients each keep one access outstanding -- a client issues its
    next access ``think_ns`` after its previous one *completed*.  This is the
    classic closed-system capacity model: with zero think time the measured
    completion rate is the system's saturation throughput at that outstanding
    depth, and latency under load is self-limiting rather than unbounded.

    Requests carry the replayer's ``tenant`` tag either way, so per-tenant
    controller stats attribute correctly in multi-tenant scenarios.
    """

    def __init__(
        self,
        system: PimSystem,
        trace: Trace,
        tenant: Optional[str] = None,
        time_scale: float = 1.0,
        closed_loop: bool = False,
        concurrency: int = 1,
        think_ns: float = 0.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if think_ns < 0:
            raise ValueError("think_ns must be non-negative")
        self.system = system
        self.trace = trace.normalized()
        self.tenant = tenant
        self.time_scale = time_scale
        self.closed_loop = closed_loop
        self.concurrency = concurrency
        self.think_ns = think_ns
        self._cursor = 0  # next unissued event index (closed loop)
        self._pending: Deque[TraceEvent] = deque()
        self._completed = 0
        self._issued = 0
        self._deferred = 0
        self._parked_request: Optional[tuple] = None
        #: Whether ``_wake`` is parked on a full target.  ``_wake`` is bound
        #: once and dropped when the run ends, so no cycle outlives the run.
        self._retry_registered = False
        self._wake = self._on_slot_freed
        self._latency = Histogram("replay/latency_ns")
        self._last_completion_ns = 0.0
        self._start_ns = 0.0
        self._result: Optional[ReplayResult] = None
        self._on_complete: Optional[Callable[[ReplayResult], None]] = None

    # -- driving -------------------------------------------------------------
    def begin(
        self, on_complete: Optional[Callable[[ReplayResult], None]] = None
    ) -> None:
        """Schedule the whole trace without blocking.

        The replay advances as the simulation engine is stepped;
        ``on_complete`` fires with the :class:`ReplayResult` once every access
        has completed.
        """
        if self._result is not None or self._issued or self._pending:
            raise RuntimeError("the replayer has already been started")
        self._on_complete = on_complete
        self._start_ns = self.system.now
        self._last_completion_ns = self._start_ns
        if not self.trace.events:
            self._finalize()
            return
        if self.closed_loop:
            # Prime one outstanding access per client; completions drive the
            # rest (see _on_request_complete).
            for _ in range(min(self.concurrency, len(self.trace.events))):
                self._issue_next()
            return
        # One bulk push: the arrival times are all known upfront, so the
        # engine's schedule_batch skips the per-event call overhead (ordering
        # and validation are identical to per-event schedule_at calls).
        start_ns = self._start_ns
        time_scale = self.time_scale
        issue_or_park = self._issue_or_park
        self.system.engine.schedule_batch(
            (start_ns + event.time_ns * time_scale, partial(issue_or_park, event))
            for event in self.trace.events
        )

    def _issue_next(self) -> None:
        """Closed loop: hand the next unclaimed trace event to a free client."""
        if self._cursor >= len(self.trace.events):
            return
        event = self.trace.events[self._cursor]
        self._cursor += 1
        self._issue_or_park(event)

    def execute(self) -> ReplayResult:
        """Replay the whole trace to completion and return its result."""
        self.begin()
        self.system.engine.run_until_done(lambda: self._result is not None)
        if self._result is None:
            raise RuntimeError("simulation ran dry before the replay completed")
        return self._result

    # -- issue path ----------------------------------------------------------
    def _issue_or_park(self, event: TraceEvent) -> None:
        # Arrival order is preserved under backpressure: if earlier accesses
        # are already parked, this one queues behind them.
        self._pending.append(event)
        self._drain_pending()

    def _drain_pending(self) -> None:
        pending = self._pending
        while pending:
            if not self._try_issue(pending[0]):
                return
            pending.popleft()

    def _try_issue(self, event: TraceEvent) -> bool:
        parked = self._parked_request
        if parked is not None and parked[0] is event:
            request = parked[1]
        else:
            request = MemoryRequest(
                phys_addr=event.phys_addr,
                is_write=event.is_write,
                size_bytes=event.size_bytes,
                stream=RequestStream.OTHER,
                tenant=self.tenant if self.tenant is not None else event.tenant,
                on_complete=self._on_request_complete,
            )
        if not self.system.submit(
            request, None if self._retry_registered else self._wake
        ):
            self._parked_request = (event, request)
            self._deferred += 1
            self._retry_registered = True
            return False
        self._parked_request = None
        self._issued += 1
        return True

    def _on_slot_freed(self) -> None:
        self._retry_registered = False
        self._drain_pending()

    def _on_request_complete(self, request: MemoryRequest) -> None:
        self._completed += 1
        self._last_completion_ns = self.system.now
        if request.latency_ns is not None:
            self._latency.add(request.latency_ns)
        if self.closed_loop and self._cursor < len(self.trace.events):
            # This client's next access starts after its think time (always
            # through the event heap, so completion callbacks never reenter
            # the submit path).  Routed through schedule_batch like the
            # open-loop arrivals: both entry points share one sequence
            # counter, so wakeup ordering is identical either way.
            self.system.engine.schedule_batch(
                ((self.system.now + self.think_ns, self._issue_next),)
            )
        if self._completed >= len(self.trace.events) and not self._pending:
            self._finalize()

    def _finalize(self) -> None:
        result = ReplayResult(
            trace_events=len(self.trace.events),
            completed=self._completed,
            start_ns=self._start_ns,
            end_ns=self._last_completion_ns,
            total_bytes=sum(
                event.size_bytes for event in self.trace.events[: self._completed]
            ),
            deferred=self._deferred,
            latency=self._latency,
        )
        self._result = result
        self._wake = None
        if self._on_complete is not None:
            self._on_complete(result)


__all__ = [
    "ReplayResult",
    "TRACE_FORMAT",
    "TRACE_PATTERNS",
    "Trace",
    "TraceEvent",
    "TraceRecorder",
    "TraceReplayer",
    "load_trace",
    "save_trace",
    "synthesize_trace",
]
