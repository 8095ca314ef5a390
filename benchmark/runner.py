"""Repetitions and their correctness accounting.

Every repetition runs in a fresh child process (:mod:`benchmark.child`),
one at a time.  The child's environment drops every ``REPRO_*``
variable and fixes ``PYTHONHASHSEED``; run caches live in a scratch
directory under the repository root that is removed when the run ends.
Each output is judged by its workload, compared exactly with the
committed reference under ``benchmark/reference/`` when there is one
for its seed, or else with the run's first repetition, and checked for
leaked shared-memory segments; an output that fails counts its
operations as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from benchmark import ROOT
from benchmark.workloads import WORKLOADS, Workload

REFERENCE_DIR = os.path.join(ROOT, "benchmark", "reference")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: A child still running after this long is killed and its operations
#: count as failed.  A paper-cold body, the longest, takes about 7 s;
#: three timed-out children still end a run within three minutes.
CHILD_TIMEOUT_S = 50
#: Seeds with committed traffic references; 2 is held out for checking
#: claims made while working with seed 1.
REFERENCE_SEEDS = (1, 2)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class ChildFailed(RuntimeError):
    """A repetition's process crashed, timed out or printed no result."""


def run_child(spec: dict) -> dict:
    """Run one repetition; its result with ``setup_s`` filled in."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    # One string-hash layout for every repetition: less run-to-run noise.
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmark.child", json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S}s") from error
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode != 0 or not lines:
            raise ValueError("no result")
        result = json.loads(lines[-1])
    except ValueError as error:
        tail = done.stderr.strip().splitlines()[-1:] or [str(error)]
        raise ChildFailed(f"exit {done.returncode}: {tail[0]}") from error
    result["setup_s"] = result["ready"] - spawned
    return result


def reference_path(workload: str, seed: int, smoke: bool,
                   reference_dir: str = REFERENCE_DIR) -> Optional[str]:
    """The committed reference an output must match, if there is one.
    The paper run's reference holds every experiment's section, so it
    serves every seed and size."""
    if workload.startswith("paper-"):
        return os.path.join(reference_dir, "paper.json")
    if workload.startswith("traffic-") and not smoke \
            and seed in REFERENCE_SEEDS:
        return os.path.join(reference_dir, f"{workload}-seed{seed}.json")
    return None


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass
class Tally:
    """Everything one invocation learned about one workload."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: End-to-end metric -> one value per correct untraced repetition.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    traced_walls: List[float] = field(default_factory=list)
    #: Per-layer metrics of each correct traced repetition.
    layers: List[Dict[str, float]] = field(default_factory=list)
    first_observable: Optional[dict] = None

    def per_layer(self) -> Dict[str, List[float]]:
        """Per-layer metric -> one value per traced repetition, with
        ``trace.overhead`` from the traced and untraced wall medians."""
        if not self.layers:
            return {}
        merged = {name: [row[name] for row in self.layers]
                  for name in self.layers[0]}
        untraced = self.samples.get("wall_s")
        if untraced:
            merged["trace.overhead"] = [
                statistics.median(self.traced_walls)
                / statistics.median(untraced) - 1.0]
        return merged


class Runner:
    """Runs repetitions for one seed inside a private scratch directory."""

    def __init__(self, seed: int, smoke: bool = False,
                 reference_dir: str = REFERENCE_DIR) -> None:
        self.seed = seed
        self.smoke = smoke
        self.reference_dir = reference_dir
        self.workdir = tempfile.mkdtemp(prefix=".benchmark-", dir=ROOT)
        self.tallies: Dict[str, Tally] = {}
        self._caches = 0
        self._references: Dict[str, Optional[dict]] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def repeat(self, name: str, trace: bool = False) -> None:
        """One repetition of workload ``name``."""
        workload = WORKLOADS[name]
        tally = self.tallies.setdefault(name, Tally())
        cache_dir = None
        if workload.fresh_cache:
            self._caches += 1
            cache_dir = os.path.join(self.workdir, f"cache-{self._caches}")
        spec = {"workload": workload.name, "seed": self.seed,
                "smoke": self.smoke, "trace": trace, "cache_dir": cache_dir}
        tally.attempted += workload.ops
        try:
            result = run_child(spec)
        except ChildFailed as error:
            tally.failed += workload.ops
            tally.failures.append(f"{workload.name}: {error}")
            return
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        output = result["output"]
        failures = workload.judge(output)
        if result["shm_segments"]:
            failures.append(f"{result['shm_segments']} shared-memory "
                            f"segments still owned")
        if not failures:
            failures = self._mismatches(workload, output, tally)
        if failures:
            tally.failed += min(len(failures), workload.ops)
            tally.failures += [f"{workload.name}: {failure}"
                               for failure in failures]
            return
        if trace:
            tally.traced_walls.append(result["wall_s"])
            tally.layers.append(result["layers"])
            return
        wall_s = result["wall_s"]
        for metric, value in (
                ("setup_s", result["setup_s"]),
                ("wall_s", wall_s),
                ("peak_rss_mb", result["rss_kb"] / 1024.0),
                ("ops_per_s", workload.throughput(output, wall_s))):
            tally.samples.setdefault(metric, []).append(value)

    def _reference(self, workload: Workload) -> Optional[dict]:
        path = reference_path(workload.name, self.seed, self.smoke,
                              self.reference_dir)
        if path is not None and path not in self._references:
            with open(path, encoding="utf-8") as handle:
                self._references[path] = json.load(handle)
        return self._references.get(path)

    def _mismatches(self, workload: Workload, output: dict,
                    tally: Tally) -> List[str]:
        if workload.observable is None:
            return []
        # Through JSON, so tuples and lists compare as the file stores them.
        observable = json.loads(json.dumps(workload.observable(output)))
        expected = self._reference(workload)
        source = "the reference"
        if expected is None:
            if tally.first_observable is None:
                tally.first_observable = observable
            expected, source = tally.first_observable, "the first repetition"
        return [f"{key} differs from {source}"
                for key in sorted(observable)
                if observable[key] != expected.get(key)]


def run_for(name: str, seed: int, seconds: float, trace: bool, *,
            smoke: bool = False,
            reference_dir: str = REFERENCE_DIR) -> Tally:
    """Repeat one workload until ``seconds`` have passed, at least once;
    with ``trace``, each untraced repetition is followed by a traced one."""
    with Runner(seed, smoke, reference_dir) as runner:
        start = time.monotonic()
        while True:
            runner.repeat(name)
            if trace:
                runner.repeat(name, trace=True)
            if time.monotonic() - start >= seconds:
                break
        return runner.tallies[name]


def run_set(seed: int, trace: bool, *, smoke: bool = False,
            reference_dir: str = REFERENCE_DIR) -> Dict[str, Tally]:
    """Every workload at its full-set repetition count, interleaved round
    robin so a noisy spell on the machine hits every workload; with
    ``trace``, then one traced repetition of each."""
    with Runner(seed, smoke, reference_dir) as runner:
        for round_ in range(max(w.reps for w in WORKLOADS.values())):
            for workload in WORKLOADS.values():
                if round_ < workload.reps:
                    runner.repeat(workload.name)
        if trace:
            for name in WORKLOADS:
                runner.repeat(name, trace=True)
        return runner.tallies


def write_references(reference_dir: str = REFERENCE_DIR) -> List[str]:
    """Regenerate the committed references from this checkout."""
    jobs = [("paper-cold", 1)] + [(name, seed) for name in
                                  ("traffic-inline", "traffic-sharded")
                                  for seed in REFERENCE_SEEDS]
    os.makedirs(reference_dir, exist_ok=True)
    written = []
    with tempfile.TemporaryDirectory(prefix=".benchmark-",
                                     dir=ROOT) as workdir:
        for name, seed in jobs:
            workload = WORKLOADS[name]
            result = run_child({"workload": name, "seed": seed,
                                "smoke": False, "trace": False,
                                "cache_dir": os.path.join(workdir, name)})
            failures = workload.judge(result["output"])
            if failures:
                raise ChildFailed(f"{name} seed {seed}: {failures}")
            path = reference_path(name, seed, False, reference_dir)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(workload.observable(result["output"]), handle,
                          indent=1, sort_keys=True)
                handle.write("\n")
            written.append(path)
    return written
