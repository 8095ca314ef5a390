"""The perf gate: alternating base/head pairs of the end-to-end benchmark.

Usage, from the head checkout::

    python tools/perf_ab.py BASE_DIR

``BASE_DIR`` is a checkout of the commit to compare against, such as a
``git worktree`` of the merge base.  The head's ``benchmark/`` and
``BENCHMARK.json`` are first copied over the base's, so the two sides
differ only in ``src/``.

The script runs :data:`PAIRS` pairs.  In each pair every workload runs
one repetition on each side (``python -m benchmark --workload W --seed
1 --seconds 0 --trace 0``), and the side that runs first alternates
from pair to pair, so a slow spell on the host lands on both sides.
Each side's result lines are folded into one ``benchmark.runner.Tally``
per workload and written as a profile under ``benchmark/results/``.

The verdict is the benchmark's own.  The script exits 1 when ``python
-m benchmark compare`` reads ``REGRESSED`` on any end-to-end (workload,
metric), or when the head failed a larger share of a workload's
operations than the base; otherwise 0.  ``unresolved`` passes: it means
the base's own runs spread wider than the bound, so the pairs cannot
tell a change from noise on this host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if HEAD not in sys.path:
    sys.path.insert(0, HEAD)

from benchmark import use_source  # noqa: E402
from benchmark.report import compare, write_profile  # noqa: E402
from benchmark.runner import Tally, load_spec  # noqa: E402
from benchmark.workloads import WORKLOADS  # noqa: E402

PAIRS = 10
SEED = 1
SIDES = ("base", "head")
RESULTS = os.path.join(HEAD, "benchmark", "results")


def share_benchmark(base: str) -> None:
    """Give the base checkout the head's benchmark and its spec."""
    target = os.path.join(base, "benchmark")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(os.path.join(HEAD, "benchmark"), target,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy2(os.path.join(HEAD, "BENCHMARK.json"), base)


def run(root: str, workload: str) -> Optional[dict]:
    """One repetition of ``workload`` in the checkout at ``root``: its
    last stdout line as JSON, or None when that is not a result."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmark", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        print(f"  {workload} in {root}: exit {done.returncode}: {tail[0]}",
              file=sys.stderr)
        return None


def fold(tally: Tally, workload: str, line: Optional[dict]) -> None:
    """Add one repetition's result line to ``tally``.  A repetition that
    printed none failed every operation it attempted."""
    if line is None:
        ops = WORKLOADS[workload].ops
        tally.attempted += ops
        tally.failed += ops
        tally.failures.append(f"{workload}: no result line")
        return
    tally.attempted += line["attempted"]
    tally.failed += line["failed"]
    for name, metric in line["metrics"].items():
        tally.samples.setdefault(name, []).append(metric["value"])


def write_side(path: str, root: str, tallies: Dict[str, Tally],
               spec: dict) -> None:
    """Write one side's profile from inside its checkout, so the profile
    is stamped with that side's commit."""
    if os.path.exists(path):
        os.remove(path)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        write_profile(path, SEED, tallies, spec)
    finally:
        os.chdir(cwd)


def main(argv: List[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python tools/perf_ab.py BASE_DIR", file=sys.stderr)
        return 2
    base = os.path.abspath(argv[0])
    if os.path.realpath(base) == os.path.realpath(HEAD):
        print("perf_ab: BASE_DIR is this checkout", file=sys.stderr)
        return 2
    use_source()
    spec = load_spec()
    share_benchmark(base)
    roots = {"base": base, "head": HEAD}
    tallies = {side: {name: Tally() for name in WORKLOADS}
               for side in SIDES}
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        print(f"pair {pair + 1}/{PAIRS}: {order[0]} first", flush=True)
        for workload in WORKLOADS:
            for side in order:
                fold(tallies[side][workload], workload,
                     run(roots[side], workload))

    os.makedirs(RESULTS, exist_ok=True)
    paths = {side: os.path.join(RESULTS, f"perf-ab-{side}.json")
             for side in SIDES}
    for side in SIDES:
        write_side(paths[side], roots[side], tallies[side], spec)
    status = compare(paths["base"], paths["head"], spec)
    for workload in WORKLOADS:
        old, new = tallies["base"][workload], tallies["head"][workload]
        if new.failed * old.attempted > old.failed * new.attempted:
            print(f"{workload}: head failed {new.failed} of "
                  f"{new.attempted} operations, base {old.failed} of "
                  f"{old.attempted}")
            status = 1
    print(f"profiles: {paths['base']} {paths['head']}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
