"""Every workload end to end at the smoke size, through child processes."""

import json
import os
import shutil
import subprocess

import pytest

from benchmark import ROOT
from benchmark.report import result_line
from benchmark.runner import REFERENCE_DIR, load_spec, run_for
from benchmark.workloads import WORKLOADS


def _git_status():
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke_runs():
    before = _git_status()
    tallies = {name: run_for(name, 3, 0, True, smoke=True)
               for name in WORKLOADS}
    return tallies, before, _git_status()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(smoke_runs, name):
    tally = smoke_runs[0][name]
    assert tally.failed == 0, tally.failures
    assert tally.attempted >= 2 * WORKLOADS[name].ops
    spec = load_spec()
    line = result_line(tally, spec["end_to_end"], trace=False)
    assert line["correct"] is True
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    traced = result_line(tally, spec["per_layer"], trace=True)
    assert len(traced["metrics"]) == len(spec["per_layer"])
    shares = sum(entry["value"] for key, entry in traced["metrics"].items()
                 if key.endswith(".share"))
    assert shares == pytest.approx(100.0)


def test_runs_leave_the_tree_clean(smoke_runs):
    _, before, after = smoke_runs
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before
    assert not [entry for entry in os.listdir(ROOT)
                if entry.startswith(".benchmark-")]


def test_corrupted_reference_counts_a_failed_operation(tmp_path):
    reference_dir = tmp_path / "reference"
    shutil.copytree(REFERENCE_DIR, reference_dir)
    path = reference_dir / "paper.json"
    sections = json.loads(path.read_text())
    sections["table2"] = sections["table2"].replace("mq", "mQ", 1)
    path.write_text(json.dumps(sections))
    tally = run_for("paper-cold", 1, 0, False, smoke=True,
                    reference_dir=str(reference_dir))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures == ["paper-cold: table2 differs from the reference"]
    assert not tally.samples
