"""Interpreter microbenchmark: raw dispatch-loop throughput.

Regression guard for the register VM (``repro.sim.lower`` /
``repro.sim.vm``): flat register code with fused-group kernel
superinstructions.  Measures steps/second executing a fixed
compute-heavy workload on the uninstrumented baseline — no messaging,
so the number isolates the interpreter loop itself.

Reference points on the CI machine: the seed per-instruction
``isinstance`` dispatch ran ~0.65M steps/s; the VM runs ~25M steps/s.
The floor below asserts a conservative fraction of that so slower
machines don't flake while a real regression still fails — in
particular, a VM that loses its kernels or rebuilds escape frames per
step falls through it.  The run's steps and cycles are pinned by the
tier-1 goldens (``tests/vm_goldens.json``).
"""

import time

import pytest

from benchmarks.conftest import run_once
from repro.core.framework import run_program
from repro.workloads.generator import build_module
from repro.workloads.profiles import BenchmarkProfile

#: Compute-heavy, zero-instrumentation shape: the dispatch loop is the
#: whole cost.  Small enough to finish fast, big enough to amortize
#: lowering: ~0.9M steps.
INTERP_PROFILE = BenchmarkProfile(
    name="interp-speed",
    suite="CPU2017",
    language="C",
    iterations=3000,
    compute_ops=300,
    icalls_per_k=0,
    fnptr_writes_per_k=0,
    protected_calls_per_k=0,
    syscalls_per_k=0,
)

#: Conservative steps/sec floor: roughly a sixth of the measured rate
#: on the CI machine, and above the ~3.5M steps/s the block-decoding
#: closure interpreter reached before it was deleted.
VM_FLOOR = 4_000_000


def _measured_run(profile):
    start = time.perf_counter()
    result = run_program(build_module(profile), design="baseline")
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.mark.benchmark
def test_interpreter_steps_per_second(benchmark, capsys):
    result, elapsed = run_once(benchmark, _measured_run, INTERP_PROFILE)
    assert result.ok, result.outcome
    rate = result.steps / elapsed
    with capsys.disabled():
        print(f"\n=== Interpreter speed: {result.steps:,} steps "
              f"in {elapsed:.2f}s = {rate:,.0f} steps/s ===")
    assert result.steps > 500_000
    assert rate >= VM_FLOOR, (
        f"interpreter dispatch regression: {rate:,.0f} steps/s "
        f"(floor {VM_FLOOR:,})")
