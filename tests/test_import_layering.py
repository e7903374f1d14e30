"""What ``import repro`` loads, and that set-up loads everything a run executes.

Every check runs in a fresh interpreter: inside the test process the whole
package (and numpy) is already imported, so neither a module loaded at run
time nor a stray numpy import would show.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.trace import save_trace, synthesize_trace

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter on ``src``; return its last stdout line as JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


#: Modules the default path (a transfer or a mix) must not load.
OFF_THE_DEFAULT_PATH = (
    "numpy",
    "repro.analysis",
    "repro.exp",
    "repro.fleet",
    "repro.scenarios.registry",
    "repro.workloads.llm",
)

_IMPORTS = """
import importlib, json, sys
import repro
# The names the repository benchmark imports before it builds anything.
repro.Session, repro.SystemConfig
for name in ("repro.registry", "repro.sim.config", "repro.transfer.descriptor",
             "repro.scenarios.tenant"):
    importlib.import_module(name)
print(json.dumps(sorted(name for name in sys.modules if name in sys.argv[1:])))
"""


def test_import_repro_leaves_experiment_layer_and_numpy_unloaded():
    assert run_fresh(_IMPORTS, *OFF_THE_DEFAULT_PATH) == []


_RUN_CASE = """
import json, sys
sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError
import repro

case = sys.argv[1]
config = repro.SystemConfig.small_test()
if case == "mix":
    session = repro.Session.open(
        config=config,
        design_point=repro.DesignPoint.BASE_DHP,
        variants=repro.Variants(policy="qos_priority:probe=1", fabric="mesh:4x4"),
    )
    spec = repro.TenantSpec
    tenants = [
        spec.trace_file("hot", sys.argv[2]),
        spec.synthetic("probe", "uniform", 4096, mean_gap_ns=40.0),
        spec.memcpy("copy", 16 << 10),
        spec.transfer("push", 16 << 10),
    ]
    run = lambda: session.mix(tenants, include_isolated=False)
else:
    point = repro.DesignPoint.BASE_DHP if case == "pim_mmu" else repro.DesignPoint.BASELINE
    session = repro.Session.open(config=config, design_point=point)
    run = lambda: session.transfer(total_bytes=64 << 10, sim_cap_bytes=64 << 10)
session.system
before = set(sys.modules)
result = run()
print(json.dumps({
    "backend": result.backend,
    "requests": result.requests,
    "imported": sorted(set(sys.modules) - before),
}))
"""


@pytest.mark.parametrize(
    "case, backend", [("pim_mmu", "pim_mmu"), ("software", "software"), ("mix", "pim_mmu")]
)
def test_default_path_is_stdlib_and_set_up_imports_what_runs(tmp_path, case, backend):
    trace = tmp_path / "hot.jsonl"
    save_trace(synthesize_trace("skewed", 16 << 10, base_addr=64 << 20, seed=3), trace)
    outcome = run_fresh(_RUN_CASE, case, str(trace))
    assert outcome["backend"] == backend
    assert outcome["requests"] > 0
    assert outcome["imported"] == []


_REGISTRY = """
import json, sys
if sys.argv[1] == "registry":
    from repro.scenarios.registry import SCENARIOS
    print(json.dumps(list(SCENARIOS)))
else:
    import repro
    with repro.Session.open(config=repro.SystemConfig.small_test()) as session:
        result = session.run_workload("solo-transfer")
    print(json.dumps(result.kind))
"""


def test_registry_loads_builtin_families_in_list_order():
    assert run_fresh(_REGISTRY, "registry") == [
        "solo-transfer",
        "prim-pair",
        "memcpy-vs-transfer",
        "bursty-vs-stream",
        "skewed-tenants",
        "phase-shift",
        "baseline-prim-pair",
        "qos-frfcfs",
        "qos-priority",
        "poisson-arrivals",
        "diurnal-load",
        "closed-loop-capacity",
        "llm-serving-frfcfs",
        "llm-serving-qos",
        "llm-serving-closed",
        "fabric-hotspot",
        "fabric-uniform",
    ]


def test_session_runs_a_registered_scenario_by_name_in_a_fresh_interpreter():
    assert run_fresh(_REGISTRY, "session") == "mix"
