"""The perf gate script (tools/perf_ab.py) on canned result lines.

The run step is stubbed: no benchmark subprocess starts.  Every other
part is real: the folding into tallies, the profiles, the benchmark's
own ``compare`` and its bounds from BENCHMARK.json.
"""

import importlib.util
import json
import pathlib
import subprocess

import pytest

from repro.perf import profile
from repro.perf.profile import Metric

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_ab", ROOT / "tools" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

WORKLOADS = list(perf_ab.WORKLOADS)
BASE_VALUES = {"setup_s": 0.3, "wall_s": 2.0, "peak_rss_mb": 27.0,
               "ops_per_s": 3000.0}


def result(attempted=1, failed=0, jitter=0, **scale):
    """One canned result line; ``scale`` multiplies a metric's value."""
    factor = 1.0 + 0.01 * (jitter % 3 - 1)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value * factor
                               * scale.get(name, 1.0), "unit": ""}
                        for name, value in BASE_VALUES.items()}}


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """Run the script with ``respond(side, workload, pair)`` standing in
    for one benchmark run; returns (exit status, stdout, calls)."""
    base = tmp_path / "base"
    base.mkdir()
    monkeypatch.setattr(perf_ab, "RESULTS", str(tmp_path / "results"))
    monkeypatch.setattr(perf_ab, "share_benchmark", lambda root: None)

    def drive(respond, capsys):
        calls = []

        def run(root, workload):
            side = "base" if root == str(base) else "head"
            calls.append((side, workload))
            return respond(side, workload, (len(calls) - 1)
                           // (2 * len(WORKLOADS)))

        monkeypatch.setattr(perf_ab, "run", run)
        status = perf_ab.main([str(base)])
        return status, capsys.readouterr().out, calls

    return drive


def _row(out, workload, metric):
    (row,) = [line for line in out.splitlines()
              if line.split()[:2] == [workload, metric]]
    return row


def test_identical_sides_pass(gate, capsys):
    status, out, _ = gate(
        lambda side, workload, pair: result(jitter=pair), capsys)
    assert status == 0
    assert "REGRESSED" not in out


def test_slower_traffic_inline_head_fails_on_that_workload(gate, capsys):
    def respond(side, workload, pair):
        slower = side == "head" and workload == "traffic-inline"
        return result(jitter=pair, wall_s=1.4 if slower else 1.0)

    status, out, _ = gate(respond, capsys)
    assert status == 1
    assert _row(out, "traffic-inline", "wall_s").endswith("REGRESSED")
    assert _row(out, "traffic-sharded", "wall_s").endswith("ok")


def test_one_failed_head_operation_fails(gate, capsys):
    def respond(side, workload, pair):
        if side == "head" and workload == "verifier-stream" and pair == 3:
            return result(attempted=6, failed=1, jitter=pair)
        return result(attempted=6 if workload == "verifier-stream" else 1,
                      jitter=pair)

    status, out, _ = gate(respond, capsys)
    assert status == 1
    assert "verifier-stream: head failed 1 of 60 operations, base 0 of 60" \
        in out


def test_failure_on_the_base_side_only_passes(gate, capsys):
    def respond(side, workload, pair):
        if side == "base" and workload == "paper-cold" and pair == 0:
            return None
        return result(jitter=pair)

    status, out, _ = gate(respond, capsys)
    assert status == 0
    assert "paper-cold       failed ops: 1 of 10 -> 0 of 10" in out


def test_run_without_a_result_line_fails_its_own_side(gate, capsys):
    def respond(side, workload, pair):
        if side == "head" and workload == "traffic-sharded" and pair == 5:
            return None
        return result(jitter=pair)

    status, out, _ = gate(respond, capsys)
    assert status == 1
    assert "traffic-sharded  failed ops: 0 of 10 -> 1 of 10" in out
    assert "traffic-sharded: head failed 1 of 10 operations, base 0 of 10" \
        in out


def test_seeded_memory_regression_fails_on_peak_rss(gate, capsys):
    """traffic-inline's peak RSS has a tight spread against a 15% bound,
    so a retained buffer reads REGRESSED there and nowhere else."""
    def respond(side, workload, pair):
        grown = side == "head" and workload == "traffic-inline"
        return result(jitter=pair, peak_rss_mb=1.4 if grown else 1.0)

    status, out, _ = gate(respond, capsys)
    assert status == 1
    assert _row(out, "traffic-inline", "peak_rss_mb").endswith("REGRESSED")
    assert _row(out, "traffic-inline", "wall_s").endswith("ok")
    assert _row(out, "traffic-sharded", "peak_rss_mb").endswith("ok")


def test_slowdown_inside_the_bound_passes(gate, capsys):
    def respond(side, workload, pair):
        return result(jitter=pair, wall_s=1.1 if side == "head" else 1.0)

    status, out, _ = gate(respond, capsys)
    assert status == 0
    assert _row(out, "paper-cold", "wall_s").endswith("ok")


def test_faster_head_reads_improved_and_passes(gate, capsys):
    def respond(side, workload, pair):
        return result(jitter=pair, ops_per_s=1.5 if side == "head" else 1.0)

    status, out, _ = gate(respond, capsys)
    assert status == 0
    assert _row(out, "verifier-stream", "ops_per_s").endswith("improved")


def test_noisy_base_reads_unresolved_and_passes(gate, capsys):
    """A base whose own quartiles spread wider than the bound cannot
    tell a change from noise: the verdict is unresolved, not a fail."""
    def respond(side, workload, pair):
        if workload != "paper-cold":
            return result(jitter=pair)
        noisy = 1.0 + 0.5 * (pair % 2) if side == "base" else 1.3
        return result(wall_s=noisy)

    status, out, _ = gate(respond, capsys)
    assert status == 0
    assert _row(out, "paper-cold", "wall_s").endswith("unresolved")


def test_each_side_gets_its_own_profile(gate, capsys, tmp_path,
                                        monkeypatch):
    """Every repetition lands in its side's profile, stamped from inside
    that side's checkout."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    status, _, _ = gate(lambda side, workload, pair: result(
        jitter=pair, wall_s=2.0 if side == "head" else 1.0), capsys)
    assert status == 1
    profiles = {side: profile.load(
        str(tmp_path / "results" / f"perf-ab-{side}.json"))
        for side in perf_ab.SIDES}
    assert profiles["base"]["environment"]["commit"] == "worktree"
    for side, scale in (("base", 1.0), ("head", 2.0)):
        samples = profiles[side]["sources"]["benchmark"]["samples"]
        assert set(samples) == {f"{workload}.{metric}"
                                for workload in WORKLOADS
                                for metric in BASE_VALUES}
        walls = samples["traffic-inline.wall_s"]
        assert len(walls) == perf_ab.PAIRS
        assert min(walls) >= 0.99 * scale * BASE_VALUES["wall_s"]


def test_a_stale_profile_is_replaced(gate, capsys, tmp_path):
    stale = tmp_path / "results" / "perf-ab-head.json"
    stale.parent.mkdir()
    profile.write(str(stale), "benchmark", {"old.wall_s": Metric(1.0)})
    gate(lambda side, workload, pair: result(jitter=pair), capsys)
    assert "old.wall_s" not in profile.load(str(stale))["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_missing_result_line_fails_every_operation(workload):
    tally = perf_ab.Tally()
    perf_ab.fold(tally, workload, result(jitter=1))
    perf_ab.fold(tally, workload, None)
    ops = perf_ab.WORKLOADS[workload].ops
    assert (tally.attempted, tally.failed) == (1 + ops, ops)
    assert tally.failures == [f"{workload}: no result line"]
    assert tally.samples["wall_s"] == [BASE_VALUES["wall_s"]]


def test_side_order_alternates_from_pair_to_pair(gate, capsys):
    _, _, calls = gate(lambda side, workload, pair: result(), capsys)
    per_pair = 2 * len(WORKLOADS)
    assert len(calls) == perf_ab.PAIRS * per_pair
    for pair in range(perf_ab.PAIRS):
        first, second = (("base", "head") if pair % 2 == 0
                         else ("head", "base"))
        expected = [(side, workload) for workload in WORKLOADS
                    for side in (first, second)]
        assert calls[pair * per_pair:(pair + 1) * per_pair] == expected


@pytest.mark.parametrize("stdout, expected", [
    ("table\n" + json.dumps(result()) + "\n", result()),
    ("table\nbenchmark: no correct repetition\n", None),
    ("", None),
])
def test_run_reads_the_last_stdout_line(monkeypatch, stdout, expected):
    def fake_run(command, cwd, capture_output, text):
        assert command[1:4] == ["-m", "benchmark", "--workload"]
        return subprocess.CompletedProcess(command, 0, stdout, "")

    monkeypatch.setattr(perf_ab.subprocess, "run", fake_run)
    assert perf_ab.run("/nowhere", "traffic-inline") == expected


def test_run_is_one_fixed_repetition_in_the_side_checkout(monkeypatch):
    seen = {}

    def fake_run(command, cwd, capture_output, text):
        seen.update(command=command[1:], cwd=cwd)
        return subprocess.CompletedProcess(command, 0,
                                           json.dumps(result()), "")

    monkeypatch.setattr(perf_ab.subprocess, "run", fake_run)
    perf_ab.run("/base", "paper-cold")
    assert seen == {"cwd": "/base", "command": [
        "-m", "benchmark", "--workload", "paper-cold", "--seed", "1",
        "--seconds", "0", "--trace", "0"]}


def test_share_benchmark_copies_the_head_benchmark(tmp_path):
    (tmp_path / "benchmark").mkdir()
    (tmp_path / "benchmark" / "stale.py").write_text("")
    perf_ab.share_benchmark(str(tmp_path))
    assert not (tmp_path / "benchmark" / "stale.py").exists()
    assert (tmp_path / "benchmark" / "report.py").read_text() == \
        (ROOT / "benchmark" / "report.py").read_text()
    assert (tmp_path / "BENCHMARK.json").read_text() == \
        (ROOT / "BENCHMARK.json").read_text()


def test_base_dir_must_be_another_directory(tmp_path, capsys):
    assert perf_ab.main([]) == 2
    assert perf_ab.main([str(tmp_path / "missing")]) == 2
    assert perf_ab.main([str(ROOT)]) == 2


def test_base_dir_is_the_only_argument(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert perf_ab.main([str(tmp_path / "file")]) == 2
    assert perf_ab.main([str(tmp_path), str(tmp_path)]) == 2
    assert "usage: python tools/perf_ab.py BASE_DIR" in \
        capsys.readouterr().err
