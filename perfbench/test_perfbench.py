"""Self-test of the benchmark on reduced sizes (``SystemConfig.small_test()``).

Run from the repository root with ``python3 -m pytest perfbench -q``.  It
covers the metric names and units against BENCHMARK.json, the output checks
(they must flag corrupted outputs), the digest's determinism and the exit
code of a checkout without simulator sources.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _outputs_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _invoke(*args: str):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(list(args))
    lines = stdout.getvalue().strip().splitlines()
    return code, lines


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_and_units_match_the_spec(trace, section):
    code, lines = _invoke(
        "--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace, "--small"
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    declared = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    names = {spec["name"] for spec in SPEC["workloads"]}
    expected = {f"{w}/{m}": unit for w in names for m, unit in declared.items()}
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    if trace == "0":
        for key, value in result["metrics"].items():
            assert value["value"] > 0, key  # end-to-end metrics are never 0
        assert any("error_rate" in line for line in lines)


def test_traced_run_attributes_layers_to_their_workloads():
    code, lines = _invoke(
        "--workload", "all", "--seed", "3", "--seconds", "0", "--trace", "1", "--small"
    )
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    assert metrics["xfer-base/core.self_s"] == 0.0
    assert metrics["xfer-base/core.calls"] == 0.0
    for workload in ("xfer-pimmmu", "xfer-base"):
        assert metrics[f"{workload}/fabric.self_s"] == 0.0
        assert metrics[f"{workload}/scenarios.calls"] == 0.0
    assert metrics["mix-mesh/fabric.self_s"] > 0.0
    assert metrics["mix-mesh/fabric.hops_mean"] > 0.0
    assert metrics["xfer-pimmmu/core.dce_busy_ns"] > 0.0
    assert metrics["xfer-base/upmem_runtime.cpu_busy_ns"] > 0.0
    assert metrics["xfer-pimmmu/model.dhp_over_base"] == metrics["xfer-base/model.dhp_over_base"]
    assert 0.0 < metrics["mix-mesh/memctrl.admit_ratio"] <= 1.0


def _small_run(name: str, seed: int) -> run.Run:
    bench = run.Run(name, seed, wl.SMALL, run.OUT_DIR)
    bench.iterate(0.0)
    return bench


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_digest_is_deterministic(name):
    first, second = _small_run(name, 5), _small_run(name, 5)
    assert not first.problems and not second.problems
    assert len({o.digest() for o in first.outcomes + second.outcomes}) == 1


def test_mix_inputs_come_from_the_seed():
    assert _small_run("mix-mesh", 5).digest != _small_run("mix-mesh", 6).digest


def _transfer_snapshot(nbytes: int) -> dict:
    lines = nbytes // wl.LINE
    return {
        "bw/dram/ch0/read/total_bytes": float(nbytes),
        "bw/dram/ch0/write/total_bytes": 0.0,
        "bw/pim/ch0/read/total_bytes": 0.0,
        "bw/pim/ch0/write/total_bytes": float(nbytes),
        "counter/dram/ch0/served": float(lines),
        "counter/pim/ch0/served": float(lines),
    }


def test_transfer_check_flags_corrupted_outputs():
    nbytes, peak = 64 * wl.KIB, 38.4
    good = _transfer_snapshot(nbytes)
    assert wl.check_transfer(good, "dram", "pim", nbytes, 10_000.0, peak) == []
    short = dict(good, **{"bw/pim/ch0/write/total_bytes": float(nbytes - wl.LINE)})
    assert wl.check_transfer(short, "dram", "pim", nbytes, 10_000.0, peak)
    lost = dict(good, **{"counter/pim/ch0/served": float(nbytes // wl.LINE - 1)})
    assert wl.check_transfer(lost, "dram", "pim", nbytes, 10_000.0, peak)
    too_fast = nbytes / (peak * 1.01)
    assert wl.check_transfer(good, "dram", "pim", nbytes, too_fast, peak)


def test_mix_check_flags_an_unfinished_tenant():
    from types import SimpleNamespace

    tenant = SimpleNamespace(
        name="t", requests=10, start_ns=0.0, end_ns=100.0, requested_bytes=640
    )
    snapshot = {
        "counter/tenant/t/bytes": 640.0,
        "bw/dram/ch0/read/total_bytes": 640.0,
    }
    args = ({("dram", "read"): 640}, 100.0)
    assert wl.check_mix(snapshot, [tenant], {"t": 10}, *args) == []
    assert wl.check_mix(snapshot, [tenant], {"t": 11}, *args)
    assert wl.check_mix(snapshot, [], {"t": 10}, *args)


def test_failed_checks_fail_every_request_of_the_run():
    bench = _small_run("xfer-base", 1)
    assert bench.failed == 0 and bench.attempted > 0
    bench.outcomes[0].served -= 1
    assert bench.failed == 1
    bench.problems.append("bytes lost")
    assert bench.failed == bench.attempted


def test_checkout_without_sources_exits_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = _invoke("--workload", "xfer-base", "--seed", "1", "--seconds", "1")
    assert code != 0 and lines == []


def test_notes_name_only_declared_metrics_and_workloads():
    notes = json.loads((BENCH_DIR / "notes.json").read_text())
    metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    names = {spec["name"] for spec in SPEC["workloads"]}
    assert notes["paper_reference"]["metric"] in metrics
    for entry in notes["layer_map"]:
        assert set(entry["per_layer"] + entry["end_to_end"]) <= metrics
        assert set(entry["workloads"]) == names
