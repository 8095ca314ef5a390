"""``python -m benchmark``: the end-to-end benchmark.

Usage, from the repository root::

    python -m benchmark [--seed N] [--trace] [--out PATH]
        One full set: every workload at its repetition count, printed
        as tables and written as a repro.perf profile (default
        benchmark/results/seed<N>.json).  --trace adds one traced
        repetition per workload and the per-layer tables.

    python -m benchmark --workload W --seed N --seconds S --trace 0|1
        Repeat one workload for S seconds; the last stdout line is one
        JSON object with correct/attempted/failed and the medians of
        BENCHMARK.json's end_to_end metrics, or with --trace 1 of its
        per_layer metrics.

    python -m benchmark compare OLD.json NEW.json
        Each end-to-end (workload, metric) median and quartiles of two
        profiles, with the verdict against its BENCHMARK.json bound.

    python -m benchmark references
        Regenerate benchmark/reference/ from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from benchmark import ROOT, use_source
from benchmark.report import compare, format_tally, result_line, \
    write_profile
from benchmark.runner import load_spec, run_for, run_set, write_references
from benchmark.workloads import WORKLOADS


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        use_source()
        spec = load_spec()
    except OSError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m benchmark compare OLD.json NEW.json",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    if argv[:1] == ["references"]:
        for path in write_references():
            print(f"wrote {os.path.relpath(path, ROOT)}")
        return 0

    parser = argparse.ArgumentParser(prog="python -m benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    if args.workload:
        tally = run_for(args.workload, args.seed, args.seconds,
                        bool(args.trace))
        for line in format_tally(args.workload, tally, spec):
            print(line)
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        try:
            line = result_line(tally, metrics, bool(args.trace))
        except ValueError as error:
            print(f"benchmark: {error}", file=sys.stderr)
            return 1
        print(json.dumps(line))
        return 0

    tallies = run_set(args.seed, bool(args.trace))
    for name, tally in tallies.items():
        for line in format_tally(name, tally, spec):
            print(line)
    out = args.out or os.path.join(ROOT, "benchmark", "results",
                                   f"seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    write_profile(out, args.seed, tallies, spec)
    print(f"profile: {out}")
    return 1 if any(t.failed for t in tallies.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
