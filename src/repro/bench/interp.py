"""Interpreter-tier microbenchmark CLI.

``python -m repro.bench.interp`` measures raw steps/second of both
execution tiers — the per-block closure decode cache (``closure``) and
the compile tier's flat register VM with kernel superinstructions
(``vm``) — on the same compute-heavy workload the
``benchmarks/test_interp_speed.py`` floor uses, and verifies the two
tiers produce identical results while timing them.

``--min-speedup S`` exits non-zero when the vm/closure speedup of this
run falls below ``S``: a ratio of two numbers from the same run, so a
uniformly slow machine cannot mask a collapse of the compile tier.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Tuple

from repro.bench.timing import best_of
from repro.core.framework import RunResult, run_program
from repro.workloads.generator import build_module
from repro.workloads.profiles import BenchmarkProfile

#: Same shape as ``benchmarks/test_interp_speed.py``: compute-only, no
#: instrumentation, so the dispatch loop is the entire cost (~0.9M
#: steps per run).
PROFILE = BenchmarkProfile(
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

ROUNDS = 3


def _measure(tier: str, rounds: int) -> Tuple[float, RunResult]:
    """Best-of-``rounds`` steps/second for one tier."""

    def once() -> dict:
        module = build_module(PROFILE)
        start = time.perf_counter()
        result = run_program(module, design="baseline",
                             exec_option_overrides={"interp_tier": tier})
        elapsed = time.perf_counter() - start
        return {"steps_per_sec": result.steps / elapsed,
                "result": result}

    fastest = best_of(rounds, once, key="steps_per_sec")
    return float(fastest["steps_per_sec"]), fastest["result"]


def run_benchmark(rounds: int = ROUNDS) -> Dict[str, object]:
    """Measure both tiers; raises on any cross-tier result mismatch."""
    closure_rate, closure_result = _measure("closure", rounds)
    vm_rate, vm_result = _measure("vm", rounds)
    mismatches = [
        field for field in
        ("outcome", "exit_status", "steps", "cycles", "output")
        if getattr(vm_result, field) != getattr(closure_result, field)
    ]
    if mismatches:
        raise SystemExit(f"tier mismatch on {mismatches}: the compile "
                         f"tier diverged from the closure tier")
    return {
        "benchmark": (f"{PROFILE.iterations}x{PROFILE.compute_ops} "
                      f"compute (design=baseline)"),
        "steps": vm_result.steps,
        "rounds": rounds,
        "closure_steps_per_sec": round(closure_rate),
        "vm_steps_per_sec": round(vm_rate),
        "speedup": round(vm_rate / closure_rate, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.interp",
        description="Measure interpreter-tier throughput "
                    "(closure vs compile tier).")
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="best-of rounds per tier (default: "
                             "%(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="print the section as JSON")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="required vm-over-closure multiple of this "
                             "run (default: not checked)")
    args = parser.parse_args(argv)

    section = run_benchmark(args.rounds)
    if args.json:
        print(json.dumps(section, indent=2))
    else:
        print(f"interpreter tiers, best of {args.rounds} "
              f"({section['benchmark']}, {section['steps']:,} steps):")
        print(f"  closure  {section['closure_steps_per_sec']:>12,} steps/s")
        print(f"  vm       {section['vm_steps_per_sec']:>12,} steps/s")
        print(f"  speedup  {section['speedup']:>11}x")

    if args.min_speedup is not None:
        if float(section["speedup"]) < args.min_speedup:
            print(f"\nspeedup floor FAILED: {section['speedup']}x "
                  f"vm-over-closure is below the {args.min_speedup}x "
                  f"floor (compile tier collapsed?)")
            return 1
        print(f"\nspeedup floor: ok ({section['speedup']}x >= "
              f"{args.min_speedup}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
