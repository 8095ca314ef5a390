"""Sharded-verifier scale-out benchmark: ``python -m repro.bench.sharding``.

Measures aggregate validation throughput (msgs/sec) of the sharded
verifier runtime as the shard count grows.  Each sweep point spawns
one *real OS worker process per shard*
(:class:`repro.core.shard_verifier.ShardWorker`):
the producer packs the hot-path HQ-CFI word stream for a population of
pids, routes each pid's stream to its shard's lock-free shared-memory
SPSC ring via the consistent-hash :class:`~repro.core.sharding.
ShardMap`, and the workers drain their rings through the standard
batched :meth:`Verifier.dispatch_words <repro.core.verifier.Verifier.
dispatch_words>` path.

**Throughput model.**  The primary metric assumes one dedicated core
per shard — the deployment the scale-out targets — and is computed
from measured per-shard *busy CPU time*:

    ``msgs_per_sec = total_messages / max(busy_s over shards)``

where each worker accumulates ``time.process_time()`` only around
non-empty consume+dispatch sections (idle spins and control-pipe
checks excluded).  On a multi-core host this equals wall-clock
throughput; on a constrained host (CI containers here expose a single
core, where S processes merely time-slice) it still measures the real
quantity — how much CPU work the slowest shard needed — so the
scaling curve is honest rather than an artifact of oversubscription.
Wall-clock seconds are recorded alongside for reference.

Scaling is bounded by shard balance: with per-pid sticky routing, the
busiest shard's share of the message volume caps the speedup at
``1 / max_shard_fraction``.  The report records per-shard loads so a
balance regression is visible, not silently folded into the ratio.

Each point is timed once per round, for :data:`ROUNDS` interleaved
rounds (1, 2, 1, 2, ... for the quick sweep), so a slow spell on the
host lands on every point.  A point's scaling ratio is the median over
the rounds of its throughput over the same round's 1-shard throughput;
``--min-scaling`` asserts the 2-shard ratio, so one slow round cannot
fail it.

Flags mirror ``repro.bench.msgpath``: ``--quick`` (CI-sized),
``--shards 1,2,4,8``, ``--json``, ``--out`` (default '-', no file),
``--min-scaling``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from array import array
from typing import Dict, List

from repro.bench.msgpath import _cfi_stream
from repro.core.messages import MESSAGE_WORDS, _MASK32, _MASK64
from repro.core.sharding import ShardMap
from repro.core.shard_verifier import ShardWorker

#: Shard counts of the full sweep (the quick/CI sweep uses 1,2).
FULL_SHARDS = (1, 2, 4, 8)
QUICK_SHARDS = (1, 2)

#: Total messages per sweep point (split across the pid population).
FULL_MESSAGES = 192_000
QUICK_MESSAGES = 48_000

#: Monitored-pid population.  Large enough that consistent hashing
#: spreads load close to evenly (the speedup ceiling is the inverse of
#: the busiest shard's share); small enough that per-pid policy state
#: stays negligible.
PIDS = 128
FIRST_PID = 1000

#: Messages per publish block, round-robined across pids so every
#: shard's ring fills concurrently instead of pid-by-pid.
PUBLISH_BLOCK = 512

#: The policy every worker runs: the paper's hot path.
POLICY = "hq-cfi"

#: Interleaved rounds per sweep; each times every point once.  Odd, so
#: the median is one round's value.
ROUNDS = 15


def pack_stream(pid: int, events) -> array:
    """Flatten (op, arg0, arg1, aux) events into stamped ring words."""
    words = array("Q", bytes(len(events) * MESSAGE_WORDS * 8))
    pid_high = (pid & _MASK32) << 32
    index = 0
    counter = 0
    for op, arg0, arg1, aux in events:
        counter += 1
        words[index] = (op & _MASK32) | pid_high
        words[index + 1] = arg0 & _MASK64
        words[index + 2] = arg1 & _MASK64
        words[index + 3] = (aux & _MASK32) | ((counter & _MASK32) << 32)
        index += MESSAGE_WORDS
    return words


def bench_point(num_shards: int, total_messages: int,
                pids: int = PIDS) -> Dict[str, object]:
    """One sweep point: real worker processes, real rings."""
    shard_map = ShardMap(num_shards)
    workers = [ShardWorker(i, POLICY) for i in range(num_shards)]
    try:
        per_pid = max(1, total_messages // pids)
        streams: List[tuple] = []   # (worker, words memoryview)
        for i in range(pids):
            pid = FIRST_PID + i
            worker = workers[shard_map.assign(i)]
            worker.register(pid)
            words = pack_stream(pid, _cfi_stream(per_pid))
            streams.append((worker, memoryview(words)))
        published_messages = sum(len(w) for _, w in streams) \
            // MESSAGE_WORDS

        wall_start = time.perf_counter()
        offsets = [0] * len(streams)
        remaining = set(range(len(streams)))
        block = PUBLISH_BLOCK * MESSAGE_WORDS
        while remaining:
            progressed = False
            for index in sorted(remaining):
                worker, words = streams[index]
                offset = offsets[index]
                end = min(len(words), offset + block)
                published = worker.publish(words[offset:end])
                if published:
                    progressed = True
                    offsets[index] = offset + published
                    if offsets[index] >= len(words):
                        remaining.discard(index)
            if not progressed:
                time.sleep(0.0002)   # every ring full: let workers drain
        reports = [worker.stop() for worker in workers]
        wall_s = time.perf_counter() - wall_start
    finally:
        for worker in workers:
            worker.close()

    if any(report is None for report in reports):
        raise RuntimeError(f"shard worker did not report "
                           f"(shards={num_shards})")
    drained = sum(report["drained"] for report in reports)
    if drained != published_messages:
        raise RuntimeError(
            f"drained {drained} != published {published_messages} "
            f"(shards={num_shards})")
    violations = sum(len(vs) for report in reports
                     for vs in report["violations"].values())
    busy = [report["busy_s"] for report in reports]
    busy_max = max(busy) or 1e-9
    return {
        "shards": num_shards,
        "messages": drained,
        "pids": pids,
        "msgs_per_sec": drained / busy_max,
        "busy_s_max": busy_max,
        "busy_s_total": sum(busy),
        "wall_s": wall_s,
        "violations": violations,
        "per_shard": [{"shard": report_index,
                       "drained": report["drained"],
                       "busy_s": report["busy_s"],
                       "batches": report["batches"]}
                      for report_index, report in enumerate(reports)],
    }


def run_suite(shard_counts, total_messages: int
              ) -> Dict[str, List[Dict[str, object]]]:
    """Every point's result in each of :data:`ROUNDS` rounds; a round
    times the points in shard-count order."""
    runs: Dict[str, List[Dict[str, object]]] = {
        f"shards:{count}": [] for count in shard_counts}
    for _ in range(ROUNDS):
        for count in shard_counts:
            runs[f"shards:{count}"].append(
                bench_point(count, total_messages))
    return runs


def scaling_table(runs: Dict[str, List[Dict[str, object]]]
                  ) -> Dict[str, float]:
    """Each point's median per-round throughput ratio over the 1-shard
    point of the same round."""
    base = runs.get("shards:1")
    if not base:
        return {}
    return {key: round(sorted(
        float(point["msgs_per_sec"]) / float(one["msgs_per_sec"])
        for point, one in zip(rounds, base))[ROUNDS // 2], 3)
        for key, rounds in runs.items()}


def median_points(runs: Dict[str, List[Dict[str, object]]]
                  ) -> Dict[str, Dict[str, object]]:
    """Each point's median round by throughput, with every round's
    throughput under ``round_msgs_per_sec``."""
    benchmarks: Dict[str, Dict[str, object]] = {}
    for key, rounds in runs.items():
        ranked = sorted(rounds, key=lambda point: point["msgs_per_sec"])
        entry = dict(ranked[ROUNDS // 2])
        entry["round_msgs_per_sec"] = [point["msgs_per_sec"]
                                       for point in rounds]
        benchmarks[key] = entry
    return benchmarks


def build_report(runs: Dict[str, List[Dict[str, object]]],
                 total_messages: int, quick: bool) -> dict:
    return {
        "harness": "repro.bench.sharding",
        "quick": quick,
        "messages": total_messages,
        "pids": PIDS,
        "policy": POLICY,
        "rounds": ROUNDS,
        "throughput_model": "total messages / max per-shard busy CPU "
                            "seconds (dedicated core per shard)",
        "benchmarks": median_points(runs),
        "scaling": scaling_table(runs),
    }


def below_scaling_floor(scaling: Dict[str, float],
                        min_scaling: float) -> List[str]:
    """Job-local hard floor: the 2-shard point must deliver at least
    ``min_scaling`` times the 1-shard point of the same run — the
    scale-out's reason to exist, asserted on fresh numbers so a
    uniformly slow machine cannot mask a lost speedup."""
    two = scaling.get("shards:2")
    if two is not None and two < min_scaling:
        return [f"shards:2 scaling {two:.2f}x is below the "
                f"{min_scaling:.2f}x floor over shards:1"]
    return []


def format_human(report: dict) -> str:
    lines = ["sharded-verifier aggregate throughput "
             f"(msgs/sec, dedicated-core model, median of "
             f"{report['rounds']} rounds)", ""]
    scaling = report.get("scaling", {})
    for key, entry in report["benchmarks"].items():
        ratio = scaling.get(key)
        extra = f"   {ratio:.2f}x vs 1 shard" if ratio else ""
        loads = "/".join(str(shard["drained"])
                         for shard in entry["per_shard"])
        lines.append(f"  {key:<9}  {entry['msgs_per_sec']:>12,.0f}{extra}"
                     f"   (busy {entry['busy_s_max']:.3f}s, "
                     f"wall {entry['wall_s']:.3f}s, loads {loads})")
    return "\n".join(lines)


def _shard_list(value: str) -> List[int]:
    try:
        counts = sorted({int(item) for item in value.split(",") if item})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid shard list {value!r} (want e.g. '1,2,4')")
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError("shard counts must be >= 1")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.sharding",
        description="Benchmark sharded-verifier scale-out over "
                    "shared-memory SPSC rings (msgs/sec).")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI-sized run ({QUICK_MESSAGES} messages, "
                             f"shards {','.join(map(str, QUICK_SHARDS))})")
    parser.add_argument("--shards", type=_shard_list, default=None,
                        help="comma-separated shard counts "
                             "(default: 1,2,4,8; quick: 1,2)")
    parser.add_argument("--messages", type=int, default=None,
                        help="override total messages per sweep point")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report on stdout")
    parser.add_argument("--out", default="-",
                        help="report path (default: '-', no file)")
    parser.add_argument("--min-scaling", type=float, default=None,
                        help="2-shard/1-shard scaling floor, asserted "
                             "on the median per-round ratio (default: "
                             "not checked)")
    args = parser.parse_args(argv)

    shard_counts = args.shards or (list(QUICK_SHARDS) if args.quick
                                   else list(FULL_SHARDS))
    total_messages = args.messages or (QUICK_MESSAGES if args.quick
                                       else FULL_MESSAGES)

    report = build_report(run_suite(shard_counts, total_messages),
                          total_messages, args.quick)

    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(format_human(report))

    if args.min_scaling is not None:
        failures = below_scaling_floor(report["scaling"],
                                       args.min_scaling)
        if failures:
            print("\nscaling floor FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 2
        print(f"\nscaling floor: ok "
              f"(>= {args.min_scaling:.2f}x at 2 shards)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
