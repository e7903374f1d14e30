"""LLM inference serving as a PIM workload family.

This module turns a declarative transformer description
(:class:`ModelSpec`) into the DRAM<->PIM *traffic* an inference server
produces, and drives many concurrent request streams through one simulated
system with continuous batching -- the workload shape behind the paper's
"millions of users" motivation.

Traffic model (the compilation rules, also documented in
``docs/llm_serving.md``):

* **Weights are PIM-resident.**  The model's parameters are pre-loaded into
  the PIM cores' MRAM banks once, so steady-state serving moves no weight
  bytes; :attr:`ModelSpec.weight_bytes` exists for capacity reporting only.
* **The KV cache lives on the DRAM side.**  Every decoded token appends its
  per-layer K/V vectors (:attr:`ModelSpec.kv_bytes_per_token`) to the
  request's KV region (DRAM *writes*), and every attention step streams the
  last ``attention_window`` tokens' K/V back through the memory bus into the
  PIM cores (DRAM *reads*).  This DRAM<->PIM KV movement is exactly the
  transfer pattern the PIM-MMU accelerates, which is what makes serving a
  natural tenant of this simulator.
* **Activations cross the boundary per layer.**  Each token's hidden vector
  is scattered into the PIM cores before a layer and gathered after it
  (``2 * hidden_dim * dtype_bytes`` per layer per token, half reads, half
  writes against a per-slot scratch region).
* **PIM compute is not a modelled bottleneck.**  GEMV FLOPs are tallied per
  step (:attr:`StepTraffic.flops`) for reporting, but iteration time comes
  from memory traffic alone -- the quantity under study.

:func:`compile_prefill` / :func:`compile_decode_step` expose the per-step
byte and request counts as exact integers (golden-testable); the
:class:`ServingDriver` schedules request arrivals (open-loop Poisson or
closed-loop clients, reusing :mod:`repro.workloads.streams`), admits waiting
requests under a byte-accounted KV pool, batches prefill and decode steps
into iterations on the shared simulation clock, and emits every step's
traffic as 64 B :class:`~repro.memctrl.request.MemoryRequest`\\ s tagged with
the owning tenant (so scheduler policies such as ``qos_priority`` see them).

Per-request timestamps land in :class:`~repro.api.results.RequestRecord`
rows -- TTFT (arrival to first token, i.e. the end of the prefill iteration)
and the per-request mean inter-token latency are derived from them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.results import RequestRecord
from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES, DesignPoint, SystemConfig
from repro.system import PimSystem, build_system
from repro.workloads import streams

KIB = 1024
MIB = 1024 * 1024

#: Arrival models an LLM tenant can use.
LLM_ARRIVALS = ("poisson", "closed")


def _lines(nbytes: int) -> int:
    """64 B memory requests needed to move ``nbytes``."""
    return -(-nbytes // CACHE_LINE_BYTES)


def _align(nbytes: int) -> int:
    return nbytes + (-nbytes) % CACHE_LINE_BYTES


# ---------------------------------------------------------------------------
# Model description and traffic compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Declarative transformer-decoder geometry (the serving workload's model).

    Only the quantities that determine *traffic* are described: layer count,
    hidden width, attention head geometry (grouped-query attention via
    ``num_kv_heads``), MLP width, parameter/KV dtype width and the KV-cache
    attention window.  ``attention_window=None`` means full (unwindowed)
    attention up to ``max_context``.
    """

    name: str
    num_layers: int
    hidden_dim: int
    num_heads: int
    num_kv_heads: int
    head_dim: int
    ffn_dim: int
    dtype_bytes: int = 2
    max_context: int = 4096
    attention_window: Optional[int] = None

    def __post_init__(self) -> None:
        for attr in (
            "num_layers",
            "hidden_dim",
            "num_heads",
            "num_kv_heads",
            "head_dim",
            "ffn_dim",
            "dtype_bytes",
            "max_context",
        ):
            if getattr(self, attr) < 1:
                raise ValueError(f"ModelSpec.{attr} must be >= 1")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError("num_heads must be a multiple of num_kv_heads (GQA)")
        if self.attention_window is not None and self.attention_window < 1:
            raise ValueError("attention_window must be >= 1 (or None for full)")

    # -- derived geometry ----------------------------------------------------
    @property
    def effective_window(self) -> int:
        """Tokens an attention step streams at most (window or full context)."""
        if self.attention_window is None:
            return self.max_context
        return min(self.attention_window, self.max_context)

    @property
    def kv_bytes_per_token_per_layer(self) -> int:
        """K plus V vectors of one token in one layer."""
        return 2 * self.num_kv_heads * self.head_dim * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> int:
        return self.num_layers * self.kv_bytes_per_token_per_layer

    @property
    def act_bytes_per_token_per_direction(self) -> int:
        """Hidden-vector bytes scattered (or gathered) across all layers."""
        return self.num_layers * self.hidden_dim * self.dtype_bytes

    @property
    def params_per_layer(self) -> int:
        """Q/K/V/O projection plus 2-matrix MLP parameters of one layer."""
        qo = 2 * self.hidden_dim * self.num_heads * self.head_dim
        kv = 2 * self.hidden_dim * self.num_kv_heads * self.head_dim
        mlp = 2 * self.hidden_dim * self.ffn_dim
        return qo + kv + mlp

    @property
    def weight_bytes(self) -> int:
        """Resident parameter footprint (embeddings excluded; see docs)."""
        return self.num_layers * self.params_per_layer * self.dtype_bytes

    def kv_bytes_for(self, tokens: int) -> int:
        """KV-cache bytes a request holding ``tokens`` tokens reserves."""
        return tokens * self.kv_bytes_per_token

    # -- presets -------------------------------------------------------------
    @classmethod
    def tiny(cls) -> "ModelSpec":
        """A two-layer toy sized so serving sweeps simulate in seconds."""
        return cls(
            name="tiny-2L",
            num_layers=2,
            hidden_dim=64,
            num_heads=4,
            num_kv_heads=2,
            head_dim=16,
            ffn_dim=128,
            dtype_bytes=2,
            max_context=128,
            attention_window=16,
        )

    @classmethod
    def small(cls) -> "ModelSpec":
        """A four-layer model for heavier (non-CI) serving studies."""
        return cls(
            name="small-4L",
            num_layers=4,
            hidden_dim=128,
            num_heads=8,
            num_kv_heads=4,
            head_dim=16,
            ffn_dim=256,
            dtype_bytes=2,
            max_context=256,
            attention_window=32,
        )


@dataclass(frozen=True)
class StepTraffic:
    """Exact traffic one prefill or decode step moves for one request.

    All byte counts are integers derived from the :class:`ModelSpec` alone;
    :attr:`num_requests` is the number of 64 B memory requests the serving
    driver emits for the step (one per cache line per traffic category).
    """

    tokens: int
    kv_read_bytes: int
    kv_write_bytes: int
    act_read_bytes: int
    act_write_bytes: int
    flops: int

    @property
    def read_bytes(self) -> int:
        return self.kv_read_bytes + self.act_read_bytes

    @property
    def write_bytes(self) -> int:
        return self.kv_write_bytes + self.act_write_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def num_requests(self) -> int:
        return (
            _lines(self.kv_read_bytes)
            + _lines(self.kv_write_bytes)
            + _lines(self.act_read_bytes)
            + _lines(self.act_write_bytes)
        )


def _attention_flops(model: ModelSpec, attended_tokens: int) -> int:
    # QK^T and AV: 2 * head_dim * attended MACs each, per head, per layer.
    return (
        model.num_layers
        * 4
        * model.num_heads
        * model.head_dim
        * attended_tokens
    )


def compile_decode_step(model: ModelSpec, context_len: int) -> StepTraffic:
    """Traffic of one decode step for a request holding ``context_len`` tokens.

    The new token's K/V append is a DRAM write; attention streams the most
    recent ``min(context_len, effective_window)`` cached tokens back into the
    PIM cores (DRAM reads); the hidden vector crosses per layer in both
    directions.
    """
    if context_len < 0:
        raise ValueError("context_len must be non-negative")
    read_tokens = min(context_len, model.effective_window)
    act = model.act_bytes_per_token_per_direction
    attended = read_tokens + 1  # the new token attends to itself too
    flops = (
        2 * model.num_layers * model.params_per_layer
        + _attention_flops(model, attended)
    )
    return StepTraffic(
        tokens=1,
        kv_read_bytes=read_tokens * model.kv_bytes_per_token,
        kv_write_bytes=model.kv_bytes_per_token,
        act_read_bytes=act,
        act_write_bytes=act,
        flops=flops,
    )


def compile_prefill(model: ModelSpec, prompt_tokens: int) -> StepTraffic:
    """Traffic of one request's whole prefill (all prompt tokens, one pass).

    Token ``i`` (0-based) appends its K/V and streams the
    ``min(i, effective_window)`` previously cached tokens -- the same rule as
    decode, summed in closed form over the prompt.
    """
    if prompt_tokens < 1:
        raise ValueError("prompt_tokens must be >= 1")
    window = model.effective_window
    if prompt_tokens <= window:
        read_token_sum = prompt_tokens * (prompt_tokens - 1) // 2
        attended_sum = read_token_sum + prompt_tokens
    else:
        read_token_sum = window * (window - 1) // 2 + (prompt_tokens - window) * window
        attended_sum = read_token_sum + prompt_tokens
    act = prompt_tokens * model.act_bytes_per_token_per_direction
    flops = (
        2 * model.num_layers * model.params_per_layer * prompt_tokens
        + _attention_flops(model, attended_sum)
    )
    return StepTraffic(
        tokens=prompt_tokens,
        kv_read_bytes=read_token_sum * model.kv_bytes_per_token,
        kv_write_bytes=prompt_tokens * model.kv_bytes_per_token,
        act_read_bytes=act,
        act_write_bytes=act,
        flops=flops,
    )


# ---------------------------------------------------------------------------
# Tenants (request classes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlmTenantSpec:
    """One class of requests in a serving scenario (picklable, hashable).

    A tenant bundles an arrival process with a request-shape distribution
    and its latency SLOs.  Open-loop tenants draw Poisson inter-arrival gaps
    (:func:`repro.workloads.streams.poisson_interarrival_times`) at a mean of
    ``mean_gap_ns``; closed-loop tenants run ``clients`` logical users who
    each submit their next request ``think_ns`` after their previous one
    completed.  Prompt/output lengths are drawn per request from seeded
    uniform ranges, so a tenant's request list is a pure function of its
    spec.
    """

    name: str
    num_requests: int
    prompt_min: int
    prompt_max: int
    output_min: int
    output_max: int
    arrival: str = "poisson"
    mean_gap_ns: float = 10_000.0
    clients: int = 1
    think_ns: float = 0.0
    start_offset_ns: float = 0.0
    seed: int = 0
    ttft_slo_ns: float = 50_000.0
    itl_slo_ns: float = 5_000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.prompt_min < 1 or self.prompt_max < self.prompt_min:
            raise ValueError("need 1 <= prompt_min <= prompt_max")
        if self.output_min < 1 or self.output_max < self.output_min:
            raise ValueError("need 1 <= output_min <= output_max")
        if self.arrival not in LLM_ARRIVALS:
            raise ValueError(
                f"unknown arrival {self.arrival!r}; choose from {', '.join(LLM_ARRIVALS)}"
            )
        if self.arrival == "poisson" and self.mean_gap_ns <= 0:
            raise ValueError("mean_gap_ns must be positive for poisson arrivals")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.think_ns < 0 or self.start_offset_ns < 0:
            raise ValueError("think_ns/start_offset_ns must be non-negative")
        if self.ttft_slo_ns <= 0 or self.itl_slo_ns <= 0:
            raise ValueError("SLO targets must be positive")

    # -- constructors --------------------------------------------------------
    @classmethod
    def open_loop(
        cls,
        name: str,
        num_requests: int,
        mean_gap_ns: float,
        prompt_tokens: Tuple[int, int],
        output_tokens: Tuple[int, int],
        seed: int = 0,
        start_offset_ns: float = 0.0,
        ttft_slo_ns: float = 50_000.0,
        itl_slo_ns: float = 5_000.0,
    ) -> "LlmTenantSpec":
        """Open-loop Poisson arrivals at a mean gap of ``mean_gap_ns``."""
        return cls(
            name=name,
            num_requests=num_requests,
            prompt_min=prompt_tokens[0],
            prompt_max=prompt_tokens[1],
            output_min=output_tokens[0],
            output_max=output_tokens[1],
            arrival="poisson",
            mean_gap_ns=mean_gap_ns,
            seed=seed,
            start_offset_ns=start_offset_ns,
            ttft_slo_ns=ttft_slo_ns,
            itl_slo_ns=itl_slo_ns,
        )

    @classmethod
    def closed_loop(
        cls,
        name: str,
        num_requests: int,
        clients: int,
        prompt_tokens: Tuple[int, int],
        output_tokens: Tuple[int, int],
        think_ns: float = 0.0,
        seed: int = 0,
        start_offset_ns: float = 0.0,
        ttft_slo_ns: float = 50_000.0,
        itl_slo_ns: float = 5_000.0,
    ) -> "LlmTenantSpec":
        """``clients`` users, one outstanding request each, think-time paced."""
        return cls(
            name=name,
            num_requests=num_requests,
            prompt_min=prompt_tokens[0],
            prompt_max=prompt_tokens[1],
            output_min=output_tokens[0],
            output_max=output_tokens[1],
            arrival="closed",
            clients=clients,
            think_ns=think_ns,
            seed=seed,
            start_offset_ns=start_offset_ns,
            ttft_slo_ns=ttft_slo_ns,
            itl_slo_ns=itl_slo_ns,
        )

    @property
    def rate_rps(self) -> Optional[float]:
        """Offered arrival rate in requests/second (open-loop tenants)."""
        if self.arrival != "poisson":
            return None
        return 1e9 / self.mean_gap_ns

    @property
    def load_label(self) -> str:
        """The load column of the SLO tables."""
        if self.arrival == "closed":
            return f"closed x{self.clients}"
        return f"{self.rate_rps:.0f}/s"

    @property
    def label(self) -> str:
        return (
            f"{self.name}: {self.num_requests} reqs, "
            f"P[{self.prompt_min},{self.prompt_max}] "
            f"O[{self.output_min},{self.output_max}], {self.load_label}"
        )

    def request_shapes(self) -> List[Tuple[int, int]]:
        """Deterministic ``(prompt_tokens, output_tokens)`` per request."""
        rng = random.Random((self.seed * 0x9E3779B1 + 0x5EED) & 0xFFFFFFFF)
        return [
            (
                rng.randint(self.prompt_min, self.prompt_max),
                rng.randint(self.output_min, self.output_max),
            )
            for _ in range(self.num_requests)
        ]

    def max_tokens(self) -> int:
        return self.prompt_max + self.output_max


# ---------------------------------------------------------------------------
# Outcome
# ---------------------------------------------------------------------------


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, matching :meth:`Histogram.percentile`."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class ServingOutcome:
    """Picklable outcome of one serving run (records plus run aggregates)."""

    name: str
    design_label: str
    num_pim_cores: int
    model_name: str
    tenants: Tuple[LlmTenantSpec, ...]
    records: Tuple[RequestRecord, ...]
    start_ns: float
    end_ns: float
    iterations: int
    memory_requests: int
    traffic_bytes: int
    deferred: int
    kv_pool_bytes: int
    kv_peak_bytes: int

    @property
    def duration_ns(self) -> float:
        return max(0.0, self.end_ns - self.start_ns)

    @property
    def total_tokens(self) -> int:
        return sum(r.output_tokens for r in self.records if r.completed)

    @property
    def tokens_per_second(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.total_tokens / (self.duration_ns / 1e9)

    def tenant_records(self, name: str) -> List[RequestRecord]:
        return [record for record in self.records if record.tenant == name]

    def slo_attainment(self, tenant: LlmTenantSpec) -> float:
        """Fraction of the tenant's requests meeting both TTFT and ITL SLOs."""
        records = self.tenant_records(tenant.name)
        if not records:
            return 0.0
        met = 0
        for record in records:
            ttft = record.ttft_ns
            itl = record.itl_ns
            if (
                record.completed
                and ttft is not None
                and ttft <= tenant.ttft_slo_ns
                and itl is not None
                and itl <= tenant.itl_slo_ns
            ):
                met += 1
        return met / len(records)

    def rows(self) -> List[Dict[str, object]]:
        """Per-tenant table rows (one per tenant, in declaration order)."""
        rows: List[Dict[str, object]] = []
        for tenant in self.tenants:
            records = self.tenant_records(tenant.name)
            ttfts = [r.ttft_ns for r in records if r.ttft_ns is not None]
            itls = [r.itl_ns for r in records if r.itl_ns is not None]
            completed = sum(1 for r in records if r.completed)
            rows.append(
                {
                    "tenant": tenant.name,
                    "load": tenant.load_label,
                    "requests": len(records),
                    "completed": completed,
                    "ttft_p50_us": _percentile(ttfts, 0.50) / 1e3,
                    "ttft_p99_us": _percentile(ttfts, 0.99) / 1e3,
                    "itl_p50_us": _percentile(itls, 0.50) / 1e3,
                    "itl_p99_us": _percentile(itls, 0.99) / 1e3,
                    "slo_pct": 100.0 * self.slo_attainment(tenant),
                }
            )
        return rows


# ---------------------------------------------------------------------------
# KV pool (byte-accounted admission)
# ---------------------------------------------------------------------------


class _KvPool:
    """First-fit byte allocator over the DRAM-side KV arena.

    Admission control is byte-accounted: a request is admitted only when a
    contiguous range of its full reservation (prompt + output tokens) is
    free.  Ranges are released on completion and coalesced, so the allocator
    is a deterministic pure function of the admission/completion sequence.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = capacity_bytes
        self.used = 0
        self.peak = 0
        self._free: List[Tuple[int, int]] = [(0, capacity_bytes)]

    def allocate(self, size: int) -> Optional[int]:
        for index, (offset, length) in enumerate(self._free):
            if length >= size:
                if length == size:
                    del self._free[index]
                else:
                    self._free[index] = (offset + size, length - size)
                self.used += size
                self.peak = max(self.peak, self.used)
                return offset
        return None

    def release(self, offset: int, size: int) -> None:
        self.used -= size
        self._free.append((offset, size))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for start, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((start, length))
        self._free = merged


# ---------------------------------------------------------------------------
# The continuous-batching serving driver
# ---------------------------------------------------------------------------


@dataclass
class _LlmRequest:
    """Runtime state of one in-flight request."""

    tenant_index: int
    tenant: str
    request_id: int
    prompt_tokens: int
    output_tokens: int
    kv_need: int
    arrival_ns: float = 0.0
    first_token_ns: Optional[float] = None
    completion_ns: Optional[float] = None
    kv_offset: int = -1
    slot: int = -1
    context_len: int = 0
    emitted_tokens: int = 0
    prefilled: bool = False

    def record(self) -> RequestRecord:
        return RequestRecord(
            tenant=self.tenant,
            request_id=self.request_id,
            arrival_ns=self.arrival_ns,
            first_token_ns=self.first_token_ns,
            completion_ns=self.completion_ns,
            prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens,
        )


class ServingDriver:
    """Continuous-batching LLM serving on one simulated PIM system.

    The driver multiplexes every tenant's request stream on the system's
    simulation clock:

    1. **Arrivals** -- open-loop tenants bulk-push their Poisson arrival
       times through :meth:`~repro.sim.engine.SimulationEngine.schedule_batch`
       (one batch per tenant); closed-loop tenants prime ``clients``
       requests and schedule each successor at completion + think time.
    2. **Admission** -- at every iteration boundary, waiting requests are
       admitted in global arrival order (head-of-line blocking) while the
       batch has a free slot and the KV pool can reserve the request's full
       ``(prompt + output) * kv_bytes_per_token`` footprint.
    3. **Iterations** -- one iteration runs every admitted request one step:
       freshly admitted requests execute their whole prefill, running
       requests one decode step.  The iteration's traffic is emitted as 64 B
       tenant-tagged memory requests, round-robin interleaved across the
       batch, with backpressure handled by the park-and-retry idiom; the
       iteration ends when its last memory request completes.  Each request
       emits one token per iteration (the first at the end of its prefill
       iteration), completes after ``output_tokens`` tokens and then releases
       its KV reservation.

    Everything is deterministic: arrivals, request shapes and the admission
    order are pure functions of the specs, and all event scheduling goes
    through the engine's single sequence counter.
    """

    def __init__(
        self,
        system: PimSystem,
        model: ModelSpec,
        tenants: Sequence[LlmTenantSpec],
        max_batch_size: int = 8,
        kv_pool_bytes: Optional[int] = None,
        iteration_overhead_ns: float = 0.0,
        name: str = "serving",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if iteration_overhead_ns < 0:
            raise ValueError("iteration_overhead_ns must be non-negative")
        names = [tenant.name for tenant in tenants]
        if not names:
            raise ValueError("a serving run needs at least one tenant")
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.system = system
        self.model = model
        self.tenants = tuple(tenants)
        self.max_batch_size = max_batch_size
        self.iteration_overhead_ns = iteration_overhead_ns
        self.name = name

        max_need = max(
            _align(model.kv_bytes_for(tenant.max_tokens())) for tenant in self.tenants
        )
        if kv_pool_bytes is None:
            kv_pool_bytes = max_batch_size * max_need
        kv_pool_bytes = _align(kv_pool_bytes)
        if kv_pool_bytes < max_need:
            raise ValueError(
                f"kv_pool_bytes={kv_pool_bytes} cannot hold the largest possible "
                f"request ({max_need} bytes); nothing would ever be admitted"
            )
        self.kv_pool_bytes = kv_pool_bytes
        self._pool = _KvPool(kv_pool_bytes)

        # Address map: [0, kv_pool) KV arena, then per-slot activation scratch.
        max_prompt = max(tenant.prompt_max for tenant in self.tenants)
        self._act_scratch_bytes = _align(
            max_prompt * model.act_bytes_per_token_per_direction
        )
        self._act_base = kv_pool_bytes

        # Deterministic per-tenant request lists.
        self._requests: List[List[_LlmRequest]] = []
        total = 0
        for index, tenant in enumerate(self.tenants):
            shapes = tenant.request_shapes()
            tenant_requests = [
                _LlmRequest(
                    tenant_index=index,
                    tenant=tenant.name,
                    request_id=req_id,
                    prompt_tokens=prompt,
                    output_tokens=output,
                    kv_need=_align(model.kv_bytes_for(prompt + output)),
                )
                for req_id, (prompt, output) in enumerate(shapes)
            ]
            self._requests.append(tenant_requests)
            total += len(tenant_requests)
        self._total_requests = total
        self._completed_requests = 0
        self._next_closed: List[int] = [
            tenant.clients if tenant.arrival == "closed" else 0
            for tenant in self.tenants
        ]

        self._waiting: Deque[_LlmRequest] = deque()
        self._running: List[_LlmRequest] = []
        self._free_slots: List[int] = list(range(max_batch_size))
        self._iteration_open = False
        self._iteration_kicked = False
        self._outstanding_lines = 0
        self._iteration_members: List[_LlmRequest] = []

        self._pending_lines: Deque[Tuple[int, bool, str]] = deque()
        self._parked: Optional[Tuple[Tuple[int, bool, str], MemoryRequest]] = None
        #: Whether ``_wake`` is parked on a full target.  ``_wake`` is bound
        #: once and dropped when the run ends, so no cycle outlives the run.
        self._retry_registered = False
        self._wake = self._on_slot_freed

        self.iterations = 0
        self.memory_requests = 0
        self.traffic_bytes = 0
        self.deferred = 0
        self._start_ns = 0.0
        self._end_ns = 0.0
        self._finished = False
        self._on_complete: Optional[Callable[[ServingOutcome], None]] = None

    # -- arrival scheduling --------------------------------------------------
    def begin(
        self, on_complete: Optional[Callable[[ServingOutcome], None]] = None
    ) -> None:
        """Schedule every tenant's arrivals; the run advances with the engine."""
        if self._start_ns or self.iterations or self._finished:
            raise RuntimeError("the serving driver has already been started")
        self._on_complete = on_complete
        self._start_ns = self.system.now
        engine = self.system.engine
        for index, tenant in enumerate(self.tenants):
            start = self._start_ns + tenant.start_offset_ns
            if tenant.arrival == "poisson":
                gaps = streams.poisson_interarrival_times(
                    tenant.num_requests, tenant.mean_gap_ns, seed=tenant.seed
                )
                arrivals = []
                at = start
                for request, gap in zip(self._requests[index], gaps):
                    at += gap
                    arrivals.append((at, self._make_arrival(request)))
                engine.schedule_batch(arrivals)
            else:
                primed = self._requests[index][: tenant.clients]
                engine.schedule_batch(
                    (start, self._make_arrival(request)) for request in primed
                )

    def execute(self) -> ServingOutcome:
        """Run the serving workload to completion (with stall detection)."""
        outcome: List[ServingOutcome] = []
        self.begin(on_complete=outcome.append)
        # A long event window with no completed LLM request and no served
        # memory request means nothing can make progress any more.
        stall_window = 2_000_000
        last_progress = (-1, -1.0)
        engine = self.system.engine
        while not outcome:
            fired = engine.run_until_done(lambda: bool(outcome), stall_window)
            if fired < stall_window and not outcome:
                raise RuntimeError(
                    "simulation ran dry with "
                    f"{self._total_requests - self._completed_requests} "
                    "LLM request(s) unfinished"
                )
            if fired == stall_window:
                progress = (self._completed_requests, float(self.memory_requests))
                if progress == last_progress:
                    raise RuntimeError(
                        f"no forward progress over {stall_window} events "
                        "(likely a backpressure deadlock); "
                        f"{self._total_requests - self._completed_requests} "
                        "LLM request(s) unfinished"
                    )
                last_progress = progress
        return outcome[0]

    def _make_arrival(self, request: _LlmRequest) -> Callable[[], None]:
        def arrive() -> None:
            request.arrival_ns = self.system.now
            self._waiting.append(request)
            self._kick_iteration()

        return arrive

    # -- iteration machinery -------------------------------------------------
    def _kick_iteration(self) -> None:
        """Start the next iteration soon unless one is already in flight."""
        if self._iteration_open or self._iteration_kicked or self._finished:
            return
        self._iteration_kicked = True
        self.system.engine.schedule_callback(
            self.system.now + self.iteration_overhead_ns, self._start_iteration
        )

    def _start_iteration(self) -> None:
        self._iteration_kicked = False
        if self._iteration_open or self._finished:
            return
        # Admission: global arrival order, head-of-line blocking on both the
        # batch-slot and the KV-byte budget.
        while self._waiting and self._free_slots:
            head = self._waiting[0]
            offset = self._pool.allocate(head.kv_need)
            if offset is None:
                break
            self._waiting.popleft()
            head.kv_offset = offset
            head.slot = min(self._free_slots)
            self._free_slots.remove(head.slot)
            self._running.append(head)
        if not self._running:
            return
        self._iteration_open = True
        self.iterations += 1
        self._iteration_members = list(self._running)
        generators: List[Iterator[Tuple[int, bool, str]]] = []
        lines = 0
        for request in self._iteration_members:
            if not request.prefilled:
                step = compile_prefill(self.model, request.prompt_tokens)
            else:
                step = compile_decode_step(self.model, request.context_len)
            self.traffic_bytes += step.total_bytes
            lines += step.num_requests
            generators.append(self._step_lines(request, step))
        self._outstanding_lines = lines
        # Round-robin across the batch: the PIM cores advance every request's
        # step together, so their traffic interleaves at line granularity.
        active = generators
        while active:
            still_active: List[Iterator[Tuple[int, bool, str]]] = []
            for generator in active:
                line = next(generator, None)
                if line is None:
                    continue
                self._pending_lines.append(line)
                still_active.append(generator)
            active = still_active
        self._drain_pending()

    def _step_lines(
        self, request: _LlmRequest, step: StepTraffic
    ) -> Iterator[Tuple[int, bool, str]]:
        """The step's memory lines: KV writes, KV reads, activation I/O."""
        model = self.model
        kv_base = request.kv_offset
        kv_region = request.kv_need
        kv_pt = model.kv_bytes_per_token
        if not request.prefilled:
            write_start = 0
            read_start = 0
        else:
            write_start = request.context_len * kv_pt
            read_tokens = min(request.context_len, model.effective_window)
            read_start = (request.context_len - read_tokens) * kv_pt
        yield from self._cyclic_lines(
            kv_base, kv_region, write_start, step.kv_write_bytes, True, request.tenant
        )
        yield from self._cyclic_lines(
            kv_base, kv_region, read_start, step.kv_read_bytes, False, request.tenant
        )
        act_base = self._act_base + request.slot * self._act_scratch_bytes
        yield from self._cyclic_lines(
            act_base, self._act_scratch_bytes, 0, step.act_write_bytes, True,
            request.tenant,
        )
        yield from self._cyclic_lines(
            act_base, self._act_scratch_bytes, 0, step.act_read_bytes, False,
            request.tenant,
        )

    @staticmethod
    def _cyclic_lines(
        base: int,
        region_bytes: int,
        start_offset: int,
        nbytes: int,
        is_write: bool,
        tenant: str,
    ) -> Iterator[Tuple[int, bool, str]]:
        """One 64 B line per cache line of ``nbytes``, cycling the region.

        Re-streamed spans (prefill attention reads larger than the stored KV
        region) wrap around, modelling repeated passes over the same rows.
        """
        offset = start_offset - (start_offset % CACHE_LINE_BYTES)
        for _ in range(_lines(nbytes)):
            yield (base + offset, is_write, tenant)
            offset += CACHE_LINE_BYTES
            if offset >= region_bytes:
                offset = 0

    # -- submission (submit-or-park, the TraceReplayer idiom) ----------------

    def _drain_pending(self) -> None:
        pending = self._pending_lines
        while pending:
            if not self._try_issue(pending[0]):
                return
            pending.popleft()

    def _try_issue(self, line: Tuple[int, bool, str]) -> bool:
        parked = self._parked
        if parked is not None and parked[0] is line:
            request = parked[1]
        else:
            phys_addr, is_write, tenant = line
            request = MemoryRequest(
                phys_addr=phys_addr,
                is_write=is_write,
                size_bytes=CACHE_LINE_BYTES,
                stream=RequestStream.OTHER,
                tenant=tenant,
                on_complete=self._on_line_complete,
            )
        if not self.system.submit(
            request, None if self._retry_registered else self._wake
        ):
            self._parked = (line, request)
            self.deferred += 1
            self._retry_registered = True
            return False
        self._parked = None
        self.memory_requests += 1
        return True

    def _on_slot_freed(self) -> None:
        self._retry_registered = False
        self._drain_pending()

    def _on_line_complete(self, _request: MemoryRequest) -> None:
        self._outstanding_lines -= 1
        if self._outstanding_lines == 0 and not self._pending_lines:
            # Completion callbacks must not reenter the submit path; close
            # the iteration through the event heap.
            self.system.engine.schedule_callback(
                self.system.now, self._finish_iteration
            )

    def _finish_iteration(self) -> None:
        now = self.system.now
        self._iteration_open = False
        for request in self._iteration_members:
            if not request.prefilled:
                request.prefilled = True
                request.context_len = request.prompt_tokens
                request.first_token_ns = now
                request.emitted_tokens = 1
                ttft = request.first_token_ns - request.arrival_ns
                self.system.stats.histogram(
                    f"llm/{request.tenant}/ttft_ns"
                ).add(ttft)
            else:
                request.context_len += 1
                request.emitted_tokens += 1
            self.system.stats.counter(f"llm/{request.tenant}/tokens").add(1.0)
            if request.emitted_tokens >= request.output_tokens:
                self._complete_request(request, now)
        self._iteration_members = []
        if self._waiting or self._running:
            self._kick_iteration()
        elif self._completed_requests >= self._total_requests:
            self._finalize(now)

    def _complete_request(self, request: _LlmRequest, now: float) -> None:
        request.completion_ns = now
        itl = request.record().itl_ns
        if itl is not None:
            self.system.stats.histogram(f"llm/{request.tenant}/itl_ns").add(itl)
        self._pool.release(request.kv_offset, request.kv_need)
        self._free_slots.append(request.slot)
        self._running.remove(request)
        self._completed_requests += 1
        tenant = self.tenants[request.tenant_index]
        if tenant.arrival == "closed":
            cursor = self._next_closed[request.tenant_index]
            if cursor < tenant.num_requests:
                self._next_closed[request.tenant_index] = cursor + 1
                successor = self._requests[request.tenant_index][cursor]
                self.system.engine.schedule_callback(
                    now + tenant.think_ns, self._make_arrival(successor)
                )

    def _finalize(self, now: float) -> None:
        if self._finished:
            return
        self._finished = True
        self._wake = None
        self._end_ns = now
        outcome = ServingOutcome(
            name=self.name,
            design_label=self.system.design_point.label,
            num_pim_cores=self.system.config.num_pim_cores,
            model_name=self.model.name,
            tenants=self.tenants,
            records=tuple(
                request.record()
                for tenant_requests in self._requests
                for request in tenant_requests
            ),
            start_ns=self._start_ns,
            end_ns=self._end_ns,
            iterations=self.iterations,
            memory_requests=self.memory_requests,
            traffic_bytes=self.traffic_bytes,
            deferred=self.deferred,
            kv_pool_bytes=self.kv_pool_bytes,
            kv_peak_bytes=self._pool.peak,
        )
        if self._on_complete is not None:
            self._on_complete(outcome)


def run_serving(
    config: SystemConfig,
    design_point: DesignPoint,
    model: ModelSpec,
    tenants: Sequence[LlmTenantSpec],
    max_batch_size: int = 8,
    kv_pool_bytes: Optional[int] = None,
    iteration_overhead_ns: float = 0.0,
    name: str = "serving",
    system_factory: Optional[Callable[[], PimSystem]] = None,
) -> ServingOutcome:
    """Run one LLM serving workload to completion on a fresh (or quiesced) system.

    ``system_factory`` lets a :class:`repro.api.Session` supply its own
    long-lived system (reset between runs); the default builds a fresh one,
    which is bit-identical.
    """
    if system_factory is not None:
        system = system_factory()
    else:
        system = build_system(config=config, design_point=design_point)
    driver = ServingDriver(
        system,
        model,
        tenants,
        max_batch_size=max_batch_size,
        kv_pool_bytes=kv_pool_bytes,
        iteration_overhead_ns=iteration_overhead_ns,
        name=name,
    )
    return driver.execute()


__all__ = [
    "LLM_ARRIVALS",
    "LlmTenantSpec",
    "ModelSpec",
    "ServingDriver",
    "ServingOutcome",
    "StepTraffic",
    "compile_decode_step",
    "compile_prefill",
    "run_serving",
]
