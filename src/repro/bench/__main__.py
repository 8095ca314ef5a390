"""Command-line entry point: ``python -m repro.bench [experiment ...]``.

Regenerates the paper's tables and figures (all by default) and prints
each alongside the published values.  Individual experiments:
``table2 table4 table5 table6 figure3 figure4 figure5 metrics``.

Pipeline performance knobs:

* ``--jobs N`` (or ``REPRO_JOBS``): fan independent runs across worker
  processes; ``--jobs auto`` uses one worker per CPU; default serial.
* run results are cached (in-process + on-disk under ``--cache-dir``,
  default ``.repro_cache/``), so re-invocations only execute runs they
  have never seen; ``--no-cache`` restores seed run-per-call behavior.
* ``--timing-report PATH`` writes per-phase wall times and the cache
  statistics as JSON; by default nothing is written.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional


def show_table2(jobs: Optional[int] = None) -> None:
    from repro.bench.table2 import format_table2, table2
    print("\n================ Table 2: IPC primitives ================")
    print(format_table2(table2()))
    print("(paper, ns/send: mq 146, pipe 316, socket 346, shm 12, "
          "lwc 2010/switch, fpga 102, uarch <2)")


def show_table4(jobs: Optional[int] = None) -> None:
    from repro.bench.table4 import PAPER_TABLE4, format_table4, table4
    print("\n================ Table 4: correctness ================")
    print(format_table4(table4(jobs=jobs)))
    print("paper:")
    for design, (errors, fps, invalid, ok) in PAPER_TABLE4.items():
        print(f"  {design:<16} {errors:>6} {fps:>8} {invalid:>8} {ok:>4}")


def show_table5(jobs: Optional[int] = None) -> None:
    from repro.bench.table5 import PAPER_TABLE5, format_table5, table5
    print("\n================ Table 5: RIPE exploits ================")
    print(format_table5(table5(jobs=jobs)))
    print("paper:")
    for design, counts in PAPER_TABLE5.items():
        print(f"  {design:<14} {counts['bss']:>5} {counts['data']:>5} "
              f"{counts['heap']:>5} {counts['stack']:>5} "
              f"{sum(counts.values()):>6}")


def show_table6(jobs: Optional[int] = None) -> None:
    from repro.bench.table6 import format_table6, table6
    print("\n================ Table 6: component sizes ================")
    print(format_table6(table6()))


def show_figure3(jobs: Optional[int] = None) -> None:
    from repro.bench.figures import figure3, format_figure
    print("\n========== Figure 3: HQ-CFI-SfeStk by IPC primitive =====")
    print(format_figure(figure3(jobs=jobs)))
    print("(paper geomeans: MQ 0.39, FPGA 0.62, MODEL 0.87)")


def show_figure4(jobs: Optional[int] = None) -> None:
    from repro.bench.figures import figure4, format_figure
    print("\n========== Figure 4: MODEL vs SIM, train input ==========")
    print(format_figure(figure4(jobs=jobs)))
    print("(paper geomeans: MODEL 0.78, SIM 0.86)")


def show_figure5(jobs: Optional[int] = None) -> None:
    from repro.bench.figures import figure5, format_figure
    print("\n========== Figure 5: all CFI designs ==========")
    print(format_figure(figure5(jobs=jobs)))
    print("(paper SPEC geomeans: SfeStk 0.88, RetPtr 0.55, Clang 0.94, "
          "CCFI 0.49, CPI 0.96)")


def show_metrics(jobs: Optional[int] = None) -> None:
    from repro.bench.metrics import collect_metrics, format_summary, summarize
    print("\n========== Section 5.4: message statistics ==========")
    print(format_summary(summarize(collect_metrics(jobs=jobs))))


EXPERIMENTS = {
    "table2": show_table2,
    "table4": show_table4,
    "table5": show_table5,
    "table6": show_table6,
    "figure3": show_figure3,
    "figure4": show_figure4,
    "figure5": show_figure5,
    "metrics": show_metrics,
}

#: Default on-disk cache location (relative to the invocation cwd).
DEFAULT_CACHE_DIR = ".repro_cache"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*", metavar="experiment",
                        help=f"subset to run (default: all); choose from "
                             f"{sorted(EXPERIMENTS)}")
    parser.add_argument("--jobs", default=None, metavar="N",
                        help="worker processes: a number, or 'auto' for "
                             "one per CPU (default: REPRO_JOBS or serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the run-result cache (seed "
                             "run-per-call behavior)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"on-disk cache directory (default: "
                             f"REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})")
    parser.add_argument("--timing-report", default="-", metavar="PATH",
                        help="where to write per-phase wall times as "
                             "JSON (default: '-', no report)")
    parser.add_argument("--observe", action="store_true",
                        help="run every benchmark with the observability "
                             "layer on (metrics reports persist through "
                             "the run cache; separate cache keys)")
    args = parser.parse_args(argv)

    if args.observe:
        # Via the environment so parallel sweep workers inherit it.
        os.environ["REPRO_OBS"] = "1"

    requested = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; "
              f"choose from {sorted(EXPERIMENTS)}")
        return 1

    from repro.bench.cache import cache_enabled
    from repro.bench.parallel import resolve_jobs
    from repro.bench.timing import PipelineTimer

    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError:
        parser.error(f"--jobs expects a number or 'auto', "
                     f"got {args.jobs!r}")
    timer = PipelineTimer()

    if args.no_cache:
        from contextlib import nullcontext
        scope = nullcontext(None)
    else:
        cache_dir = (args.cache_dir
                     or os.environ.get("REPRO_CACHE_DIR")
                     or DEFAULT_CACHE_DIR)
        scope = cache_enabled(disk_dir=cache_dir)

    with scope as cache:
        for name in requested:
            with timer.phase(name):
                EXPERIMENTS[name](jobs=jobs)
        stats = cache.stats if cache is not None else None

    print()
    if stats is not None:
        print(stats.format())
    print(f"wall time: {timer.total:.2f}s (jobs={jobs})")
    if args.timing_report != "-":
        payload = timer.write(args.timing_report, jobs,
                              vars(stats) if stats is not None else None)
        print(f"timing report: {args.timing_report} "
              f"(speedup vs seed serial: {payload['speedup_vs_seed']}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
