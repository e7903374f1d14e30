"""Tests for the ``python -m repro`` command line (``repro.exp.cli``)."""

from __future__ import annotations

import argparse

import pytest

from repro.exp.cli import (
    build_parser,
    main,
    parse_contention,
    parse_design_point,
    parse_shard_arg,
    parse_size,
)
from repro.exp.spec import ContentionSpec
from repro.fleet import Shard
from repro.sim.config import DesignPoint

KIB = 1024


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parse_size_accepts_suffixes_and_plain_bytes():
    assert parse_size("4096") == 4096
    assert parse_size("512KiB") == 512 * KIB
    assert parse_size("16MB") == 16 * KIB * KIB
    assert parse_size("1g") == KIB**3
    assert parse_size(" 2 MiB ") == 2 * KIB * KIB
    with pytest.raises(argparse.ArgumentTypeError):
        parse_size("twelve")


def test_parse_design_point_aliases():
    assert parse_design_point("base") is DesignPoint.BASELINE
    assert parse_design_point("Base+D+H+P") is DesignPoint.BASE_DHP
    assert parse_design_point("BASE_DH") is DesignPoint.BASE_DH
    assert parse_design_point("pim-mmu") is DesignPoint.BASE_DHP
    with pytest.raises(argparse.ArgumentTypeError):
        parse_design_point("turbo")


def test_parse_contention_forms():
    assert parse_contention("none") is None
    assert parse_contention("compute:8") == ContentionSpec("compute", 8)
    assert parse_contention("memory:4:high") == ContentionSpec("memory", 4, "high")
    for bad in ("compute", "memory:4", "compute:lots", "cpu:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_contention(bad)


def test_figures_arguments():
    args = build_parser().parse_args(
        ["figures", "fig15", "headline", "-j", "4", "--fast", "--no-cache"]
    )
    assert args.command == "figures"
    assert args.names == ["fig15", "headline"]
    assert args.jobs == 4
    assert args.fast is True
    assert args.no_cache is True
    assert args.config == "paper"


def test_sweep_arguments():
    args = build_parser().parse_args(
        [
            "sweep",
            "--design-point",
            "base",
            "--design-point",
            "base_dhp",
            "--direction",
            "d2p",
            "--size",
            "1MiB",
            "--contention",
            "compute:8",
            "--quantum-ns",
            "25000",
            "--config",
            "small",
        ]
    )
    assert args.design_points == [DesignPoint.BASELINE, DesignPoint.BASE_DHP]
    assert args.direction == "d2p"
    assert args.sizes == [KIB * KIB]
    assert args.contentions == [ContentionSpec("compute", 8)]
    assert args.quantum_ns == 25000.0
    assert args.config == "small"


def test_fleet_flags_parse():
    args = build_parser().parse_args(
        [
            "figures",
            "--shard",
            "2/3",
            "--resume",
            "--task-timeout",
            "90",
            "--retries",
            "5",
        ]
    )
    assert args.shard == Shard(index=2, count=3)
    assert args.resume is True
    assert args.task_timeout == 90.0
    assert args.retries == 5
    # sweep and scenarios carry the same flags.
    assert build_parser().parse_args(["sweep", "--shard", "1/2"]).shard.count == 2
    assert build_parser().parse_args(["scenarios", "--resume"]).resume is True


def test_fleet_flag_validation():
    assert parse_shard_arg("3/3") == Shard(index=3, count=3)
    for argv in (
        ["figures", "--shard", "0/3"],
        ["figures", "--shard", "4/3"],
        ["figures", "--shard", "x"],
        ["sweep", "--task-timeout", "0"],
        ["sweep", "--task-timeout", "soon"],
        ["scenarios", "--retries", "-1"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_bench_shard_excludes_check():
    args = build_parser().parse_args(["bench", "--shard", "1/2"])
    assert args.shard == Shard(index=1, count=2)
    assert main(["bench", "--shard", "1/2", "--check"]) == 2


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_jobs_must_be_positive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figures", "-j", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--jobs", "nope"])


# ---------------------------------------------------------------------------
# End-to-end commands (small config, cheap figures only)
# ---------------------------------------------------------------------------


def test_figures_list_prints_registry(capsys):
    assert main(["figures", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig15", "headline"):
        assert name in out


def test_figures_rejects_unknown_names(capsys):
    assert main(["figures", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figures_refuses_to_silently_drop_named_non_fast_figures(capsys):
    assert main(["figures", "table1", "fig13a", "--fast"]) == 2
    assert "not in the fast subset" in capsys.readouterr().err


def test_figures_small_config_refuses_default_results_dir(capsys):
    """The committed results/ tables are paper-config golden files; small-config
    output must go to an explicit directory."""
    assert main(["figures", "table1", "--config", "small"]) == 2
    assert "--results-dir" in capsys.readouterr().err


def test_figures_writes_selected_outputs(tmp_path, capsys):
    code = main(
        [
            "figures",
            "table1",
            "overhead",
            "--config",
            "small",
            "--results-dir",
            str(tmp_path / "results"),
        ]
    )
    assert code == 0
    assert (tmp_path / "results" / "table1_config.txt").exists()
    assert (tmp_path / "results" / "overhead_area.txt").exists()
    out = capsys.readouterr().out
    assert "simulations executed:" in out


def test_sweep_runs_and_caches(tmp_path, capsys):
    argv = [
        "sweep",
        "--config",
        "small",
        "--design-point",
        "base",
        "--direction",
        "d2p",
        "--size",
        "64KiB",
        "--sim-cap",
        "64KiB",
        "--results-dir",
        str(tmp_path / "results"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "Sweep: 1 transfer experiments" in first
    assert "simulations executed: 1" in first
    # Re-running the same sweep is served entirely from the on-disk cache.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "simulations executed: 0" in second
    assert "disk-cache hits: 1" in second
    # ... and clean-cache removes it again.
    assert main(["clean-cache", "--results-dir", str(tmp_path / "results")]) == 0
    assert not (tmp_path / "results" / ".cache").exists()
    assert main(argv) == 0
    third = capsys.readouterr().out  # swallow clean-cache output too
    assert "simulations executed: 1" in third


def test_figures_shards_cover_all_fast_figures(tmp_path, capsys):
    """Three shards of `figures --fast` jointly produce every fast figure,
    each exactly once (the CI figure-smoke matrix contract)."""
    from repro.exp.figures import FIGURES

    results_dir = tmp_path / "results"
    written = []
    for index in (1, 2, 3):
        assert (
            main(
                [
                    "figures",
                    "--fast",
                    "--shard",
                    f"{index}/3",
                    "--config",
                    "small",
                    "--results-dir",
                    str(results_dir / f"shard-{index}"),
                    "--no-cache",
                ]
            )
            == 0
        )
        shard_dir = results_dir / f"shard-{index}"
        written.append(
            sorted(p.name for p in shard_dir.glob("*.txt")) if shard_dir.exists() else []
        )
    capsys.readouterr()
    expected = sorted(f.filename for f in FIGURES.values() if f.fast)
    union = sorted(name for shard in written for name in shard)
    assert union == expected  # disjoint and exhaustive


def test_sweep_shard_tolerates_duplicate_flags(tmp_path, capsys):
    """Repeated identical flag values must dedupe, not crash the shard
    partition with a duplicate-key error."""
    assert (
        main(
            [
                "sweep",
                "--config",
                "small",
                "--design-point",
                "base",
                "--direction",
                "d2p",
                "--size",
                "64KiB",
                "--size",
                "64KiB",
                "--sim-cap",
                "64KiB",
                "--shard",
                "1/1",
                "--results-dir",
                str(tmp_path / "results"),
                "--no-cache",
            ]
        )
        == 0
    )
    assert "Sweep: 1 transfer experiments" in capsys.readouterr().out


def test_sweep_resume_serves_journal(tmp_path, capsys):
    argv = [
        "sweep",
        "--config",
        "small",
        "--design-point",
        "base",
        "--direction",
        "d2p",
        "--size",
        "64KiB",
        "--sim-cap",
        "64KiB",
        "--results-dir",
        str(tmp_path / "results"),
        "--no-cache",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "simulations executed: 1" in first
    # With --no-cache the rerun would re-simulate -- unless --resume replays
    # the journal the first run streamed.
    assert main(argv + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "simulations executed: 0" in second
    assert "journal hits: 1" in second


# ---------------------------------------------------------------------------
# The --compare-fabric gate (deterministic: run_bench is stubbed)
# ---------------------------------------------------------------------------

#: The two configurations ``--compare-fabric`` measures, in pairing order.
_FABRIC_LABELS = ("default", "fabric-none")


def _stub_paired_bench(monkeypatch, walls, events=None):
    """Replace ``run_bench`` with a scripted fake.

    ``walls`` maps each ``--compare-fabric`` label to the wall-clock its
    successive calls should report (popped front-to-back); ``events``
    optionally overrides the event count per label.  Calls are attributed
    to the labels in pairing order.  Returns the list of labels in call
    order, so tests can assert the measurement really is paired (the two
    configurations alternating) rather than phase-separated.
    """
    import repro.exp.bench as bench_mod

    calls = []

    def fake_run_bench(quick=False, names=None, repeats=None, fabric="none"):
        label = _FABRIC_LABELS[len(calls) % 2]
        calls.append(label)
        wall = walls[label].pop(0)
        count = (events or {}).get(label, 1000)
        metrics = {
            "wall_s": wall,
            "events": count,
            "events_per_sec": round(count / wall, 1),
            "wall_spread_pct": 0.0,
        }
        return {
            "quick": quick,
            "repeats": repeats,
            "fabric": fabric,
            "workloads": {"w": metrics},
            "aggregate": {
                "wall_s": wall,
                "events": count,
                "events_per_sec": round(count / wall, 1),
            },
        }

    monkeypatch.setattr(bench_mod, "run_bench", fake_run_bench)
    return calls


def test_compare_fabric_paired_rounds_pass(monkeypatch, capsys):
    calls = _stub_paired_bench(
        monkeypatch,
        walls={"default": [1.0, 1.1, 1.2], "fabric-none": [1.0, 1.0, 1.1]},
    )
    assert main(["bench", "--quick", "--compare-fabric", "--no-write"]) == 0
    # Three paired rounds, the configurations alternating inside each round.
    assert calls == list(_FABRIC_LABELS) * 3
    out = capsys.readouterr().out
    assert "fabric gate: fabric=none is within 2% of the default path" in out
    assert "noise relief" not in out


def test_compare_fabric_relief_rounds_rescue(monkeypatch, capsys):
    # fabric=none loses the first three rounds, then keeps up in the relief
    # rounds: fastest-per-workload across all five rounds decides the gate.
    calls = _stub_paired_bench(
        monkeypatch,
        walls={
            "default": [1.0, 1.0, 1.0, 1.0, 1.0],
            "fabric-none": [1.2, 1.2, 1.2, 1.0, 1.2],
        },
    )
    assert main(["bench", "--quick", "--compare-fabric", "--no-write"]) == 0
    assert calls == list(_FABRIC_LABELS) * 5
    out = capsys.readouterr().out
    assert "noise relief" in out
    assert "fabric gate: fabric=none is within 2% of the default path" in out


def test_compare_fabric_fails_when_none_stays_slower(monkeypatch, capsys):
    _stub_paired_bench(
        monkeypatch,
        walls={"default": [1.0] * 5, "fabric-none": [1.3] * 5},
    )
    assert main(["bench", "--quick", "--compare-fabric", "--no-write"]) == 1
    assert "FABRIC GATE" in capsys.readouterr().err
