"""Scenario subsystem: trace replay and multi-tenant workload mixes.

The paper's evaluation exercises steady-state microbenchmarks and
one-workload-at-a-time PrIM runs; this package grows the reproduction toward
"as many scenarios as you can imagine" on top of the :mod:`repro.exp`
orchestration layer:

* :mod:`repro.scenarios.trace` -- record any simulated transfer stream to a
  compact JSONL/CSV trace and replay it deterministically under any design
  point (:class:`TraceRecorder`, :class:`TraceReplayer`,
  :func:`synthesize_trace`).
* :mod:`repro.scenarios.tenant` -- interleave N concurrent tenants (PrIM
  workload profiles, memcpy streams, replayed traces) through the PIM-aware
  memory scheduler with per-tenant throughput, p50/p99 transfer latency and
  slowdown-vs-isolated stats (:class:`TenantSpec`, :func:`run_scenario`).
* :mod:`repro.scenarios.registry` -- every scenario is a picklable
  :class:`ScenarioSpec` that plugs into the parallel runner and the on-disk
  experiment cache; :data:`SCENARIOS` names the built-in mixes of
  :mod:`repro.scenarios.mixes` (registered with the
  :func:`register_scenario` decorator; the registry loads the built-in
  families itself).
* :mod:`repro.scenarios.serving` / :mod:`repro.scenarios.llm` -- the LLM
  inference-serving family (``--family llm``): :class:`ServingSpec` sweeps
  over :mod:`repro.workloads.llm` with per-request TTFT/ITL SLO tables
  (see ``docs/llm_serving.md``).

Run them with ``python -m repro scenarios`` (see ``docs/scenarios.md``).
"""

from repro._lazy import exported_names, lazy_exports

#: Defining module -> the names re-exported from it, resolved on first access:
#: a run that only replays traces or composes tenants never loads the
#: registry and the experiment layer it builds on.
_EXPORTS = {
    "repro.scenarios.registry": (
        "SCENARIOS",
        "Scenario",
        "ScenarioSpec",
        "generate_scenarios",
        "register_scenario",
        "render_scenario",
        "select_scenarios",
    ),
    "repro.scenarios.tenant": (
        "TENANT_KINDS",
        "ScenarioOutcome",
        "TenantResult",
        "TenantSpec",
        "run_scenario",
    ),
    "repro.scenarios.serving": (
        "SERVING_TABLE_COLUMNS",
        "ServingSpec",
        "render_serving_table",
    ),
    "repro.scenarios.trace": (
        "TRACE_FORMAT",
        "TRACE_PATTERNS",
        "ReplayResult",
        "Trace",
        "TraceEvent",
        "TraceRecorder",
        "TraceReplayer",
        "load_trace",
        "save_trace",
        "synthesize_trace",
    ),
}
__getattr__ = lazy_exports(globals(), _EXPORTS)
__all__ = exported_names(_EXPORTS)
