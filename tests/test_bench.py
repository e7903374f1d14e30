"""Tests for the hot-path benchmark harness (``repro bench``)."""

from __future__ import annotations

import json

from repro.exp.bench import (
    BENCH_WORKLOADS,
    append_entry,
    check_regression,
    load_trajectory,
    merge_rerun,
    regressing_workloads,
    run_bench,
)


def test_deep_queue_workload_runs_quick():
    result = BENCH_WORKLOADS["deep-queue"](True)
    assert result.requests == 1024
    assert result.events > 0
    assert result.events_per_sec > 0


def test_run_bench_selected_workload():
    entry = run_bench(quick=True, names=["deep-queue"], repeats=1)
    assert entry["quick"] is True
    assert entry["repeats"] == 1
    assert set(entry["workloads"]) == {"deep-queue"}
    aggregate = entry["aggregate"]
    assert aggregate["events"] == entry["workloads"]["deep-queue"]["events"]


def test_run_bench_unknown_workload_raises():
    import pytest

    with pytest.raises(KeyError):
        run_bench(names=["does-not-exist"])


def test_trajectory_round_trip(tmp_path):
    path = tmp_path / "BENCH.json"
    entry = {"quick": True, "workloads": {}, "aggregate": {"wall_s": 1.0, "events": 10, "events_per_sec": 10.0}}
    document = append_entry(path, "first", entry)
    assert [e["label"] for e in document["entries"]] == ["first"]
    # Re-appending the same label in the same mode replaces the entry.
    document = append_entry(path, "first", entry)
    assert [e["label"] for e in document["entries"]] == ["first"]
    # A full-matrix run under the same label is a distinct entry (the two
    # matrices are not comparable), not a replacement.
    document = append_entry(path, "first", dict(entry, quick=False))
    assert [(e["label"], e["quick"]) for e in document["entries"]] == [
        ("first", True),
        ("first", False),
    ]
    loaded = load_trajectory(path)
    assert loaded == json.load(open(path))


def test_check_regression_gate(tmp_path):
    path = tmp_path / "BENCH.json"
    baseline = {
        "quick": True,
        "workloads": {},
        "aggregate": {"wall_s": 1.0, "events": 1000, "events_per_sec": 1000.0},
    }
    append_entry(path, "base", baseline)
    document = load_trajectory(path)
    ok = dict(baseline, aggregate={"wall_s": 1.1, "events": 1000, "events_per_sec": 900.0})
    assert check_regression(document, ok) is None
    slow = dict(baseline, aggregate={"wall_s": 2.0, "events": 1000, "events_per_sec": 500.0})
    message = check_regression(document, slow)
    assert message is not None and "regressed" in message
    # Entries of the other mode are ignored.
    full = dict(slow, quick=False)
    assert check_regression(document, full) is None


def test_committed_trajectory_is_valid():
    """The committed BENCH_hotpath.json parses and has both seed and PR entries."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"
    document = load_trajectory(path)
    modes = [(entry["label"], entry["quick"]) for entry in document["entries"]]
    assert ("pr4-seed", False) in modes
    # Both the full-matrix (docs/acceptance) and quick (CI gate) entries.
    assert ("pr4-hotpath", False) in modes
    assert ("pr4-hotpath", True) in modes
    for entry in document["entries"]:
        assert entry["aggregate"]["events_per_sec"] > 0


def test_cli_bench_parsing():
    from repro.exp.cli import build_parser

    args = build_parser().parse_args(["bench", "--quick", "--check", "--no-write"])
    assert args.quick and args.check and args.no_write


def test_run_bench_reports_per_workload_spread():
    entry = run_bench(quick=True, names=["deep-queue"], repeats=2)
    metrics = entry["workloads"]["deep-queue"]
    assert "wall_spread_pct" in metrics
    assert metrics["wall_spread_pct"] >= 0.0
    # CPU time of the fastest repeat travels next to its wall time.
    assert list(metrics)[:2] == ["wall_s", "process_s"]
    assert metrics["process_s"] > 0.0


def _entry(quick=True, **rates):
    workloads = {
        name: {"wall_s": 1.0, "events": int(rate), "events_per_sec": rate,
               "requests": 0, "requests_per_sec": 0.0, "wall_spread_pct": 5.0}
        for name, rate in rates.items()
    }
    events = sum(w["events"] for w in workloads.values())
    wall = float(len(workloads))
    return {
        "quick": quick,
        "repeats": 2,
        "workloads": workloads,
        "aggregate": {
            "wall_s": wall,
            "events": events,
            "events_per_sec": events / wall if wall else 0.0,
        },
    }


def test_regressing_workloads_names_the_culprit(tmp_path):
    path = tmp_path / "BENCH.json"
    append_entry(path, "base", _entry(a=1000.0, b=1000.0))
    document = load_trajectory(path)
    # b halved -> only b is named.
    slowed = _entry(a=990.0, b=500.0)
    assert regressing_workloads(document, slowed) == ["b"]
    # Nothing crosses the per-workload gate -> the worst ratio is named,
    # so the flake-relief rerun always has a minimal target.
    mild = _entry(a=900.0, b=950.0)
    assert regressing_workloads(document, mild) == ["a"]
    # No baseline of this mode -> nothing to blame.
    assert regressing_workloads({"entries": []}, slowed) == []


def test_merge_rerun_keeps_fastest_and_recomputes_aggregate(tmp_path):
    entry = _entry(a=1000.0, b=500.0)
    rerun = _entry(b=1200.0)
    rerun["workloads"]["b"]["events"] = 500  # events are deterministic
    rerun["workloads"]["b"]["wall_s"] = 500 / 1200.0
    merged = merge_rerun(entry, rerun)
    assert merged["reran"] == ["b"]
    assert merged["workloads"]["b"]["events_per_sec"] == 1200.0
    # The original repeats' noise signal is preserved on the merged row.
    assert merged["workloads"]["b"]["wall_spread_pct"] == 5.0
    assert merged["workloads"]["a"] == entry["workloads"]["a"]
    aggregate = merged["aggregate"]
    assert aggregate["events"] == sum(
        w["events"] for w in merged["workloads"].values()
    )
    # A rerun slower than the original changes nothing.
    slower = _entry(b=100.0)
    unchanged = merge_rerun(entry, slower)
    assert unchanged["workloads"]["b"]["events_per_sec"] == 500.0


def test_rerun_relieves_a_noise_only_regression(tmp_path):
    """The satellite end-to-end: gate trips on a noisy run, the targeted
    rerun comes back fast, the merged entry passes the gate."""
    path = tmp_path / "BENCH.json"
    append_entry(path, "base", _entry(a=1000.0, b=1000.0))
    document = load_trajectory(path)
    noisy = _entry(a=1000.0, b=400.0)
    assert check_regression(document, noisy) is not None
    suspects = regressing_workloads(document, noisy)
    assert suspects == ["b"]
    rerun = _entry(b=1000.0)
    merged = merge_rerun(noisy, rerun)
    assert check_regression(document, merged) is None
