"""The benchmark's workloads.

Each workload has two halves.  The child half (``setup`` and ``body``)
runs in a fresh process per repetition and imports ``repro``: ``setup``
builds the inputs from the seed, ``body`` is the timed region and
returns the output.  The parent half judges that output (``judge``,
``observable``) and turns it into operations per second
(``throughput``); it never imports ``repro``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import pkgutil
import random
import re
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from benchmark.trace import POLICIES

#: Paper experiments the smoke size runs (the full size runs them all).
PAPER_SMOKE = ("table2", "table6", "metrics")
TRAFFIC_SESSIONS = 5000
#: The traffic CLI's ``--quick`` shape, for the smoke size.
TRAFFIC_SMOKE = {"sessions": 200,
                 "phases": "warmup:20,steady:60,surge:80,drain:40"}
#: The traffic CLI's default p99 validation-lag SLO gate, in messages.
MAX_P99_LAG = 1024.0
STREAM_EVENTS = 100_000
STREAM_SMOKE_EVENTS = 2_000
#: Messages sent between unbounded verifier polls.
POLL_EVERY = 2048
#: Policy events between SYSCALL markers, as instrumented programs send.
SYSCALL_EVERY = 64


# ---------------------------------------------------------------------------
# paper-cold: python -m repro.bench, all experiments, empty run cache
# ---------------------------------------------------------------------------

def _paper_setup(spec: dict):
    # Import every module the run can reach, so the body times no imports.
    for package in ("repro.bench", "repro.compiler", "repro.sim"):
        root = importlib.import_module(package)
        for info in pkgutil.walk_packages(root.__path__, package + "."):
            importlib.import_module(info.name)
    cli = importlib.import_module("repro.bench.__main__")
    # The paper's experiments are fixed inputs: the seed changes nothing.
    order = list(PAPER_SMOKE if spec["smoke"] else cli.EXPERIMENTS)
    return cli, order + ["--cache-dir", spec["cache_dir"],
                         "--timing-report", "-"]


def _paper_body(inputs) -> dict:
    cli, argv = inputs
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = cli.main(argv)
    return {"status": status, "argv": argv, "stdout": captured.getvalue()}


_CACHE_LINE = re.compile(r"^cache: (\d+) memory hits, (\d+) disk hits, "
                         r"(\d+) misses", re.M)
_LOC_ROW = re.compile(r"^(\S+\s+)(\d+)(\s+\d+)$", re.M)


def paper_sections(stdout: str) -> List[str]:
    """The experiment sections of a run's stdout, in run order, with the
    trailing cache and wall-time lines dropped."""
    body = stdout[:stdout.rfind("\ncache: ")]
    sections: List[str] = []
    for line in body.splitlines():
        if line.startswith("="):
            sections.append("")
        if sections:
            sections[-1] += line + "\n"
    return [section.rstrip() for section in sections]


def _paper_order(output: dict) -> List[str]:
    return output["argv"][:output["argv"].index("--cache-dir")]


def paper_observable(output: dict) -> Dict[str, str]:
    """Section text by experiment name.  Table 6's "This repo" column
    counts this repository's own source lines, so it is masked."""
    observable = dict(zip(_paper_order(output),
                          paper_sections(output["stdout"])))
    if "table6" in observable:
        observable["table6"] = _LOC_ROW.sub(r"\1<loc>\3",
                                            observable["table6"])
    return observable


def _paper_judge(output: dict) -> List[str]:
    failures = []
    if output["status"] != 0:
        failures.append(f"python -m repro.bench exited {output['status']}")
    if not _CACHE_LINE.search(output["stdout"]):
        failures.append("no run-cache statistics line")
    order = _paper_order(output)
    sections = paper_sections(output["stdout"])
    if len(sections) != len(order):
        failures.append(f"{len(sections)} sections for experiments {order}")
    return failures


def _paper_throughput(output: dict, wall_s: float) -> float:
    """Simulated runs served per second: every run-cache lookup."""
    match = _CACHE_LINE.search(output["stdout"])
    return sum(int(group) for group in match.groups()) / wall_s


# ---------------------------------------------------------------------------
# traffic-inline / traffic-sharded: the multi-tenant soak
# ---------------------------------------------------------------------------

def _traffic_setup(shards: Optional[int]):
    def setup(spec: dict):
        from repro.ipc.shared_memory import owned_segment_names
        from repro.traffic.engine import TrafficConfig, TrafficEngine
        size = TRAFFIC_SMOKE if spec["smoke"] else \
            {"sessions": TRAFFIC_SESSIONS}
        engine = TrafficEngine(TrafficConfig(seed=spec["seed"],
                                             shards=shards, **size))
        return engine, owned_segment_names
    return setup


def _traffic_body(inputs) -> dict:
    engine, owned_segment_names = inputs
    report = engine.run()
    report["leaks"]["shm_segments"] = len(owned_segment_names())
    return {"report": report}


def traffic_observable(output: dict) -> Dict[str, object]:
    """The SLO report.  ``obs_metrics`` is left out: it counts internal
    mechanism (dispatch runs, decode-cache hits) that a refactor may
    change without changing any verdict."""
    report = dict(output["report"])
    report.pop("obs_metrics", None)
    return {"report": report}


def _traffic_judge(output: dict) -> List[str]:
    """The traffic CLI's SLO gates."""
    report = output["report"]
    totals, leaks = report["totals"], report["leaks"]
    failures = [f"leaked {key}: {leaks[key]}" for key in sorted(leaks)
                if leaks[key]]
    if totals["attacks"]["escaped"] or totals["attacks"]["wins"]:
        failures.append("attack sessions escaped enforcement")
    if totals["duration_capped"]:
        failures.append("run hit the duration cap with sessions pending")
    if report["slo"]["validation_lag_p99"] > MAX_P99_LAG:
        failures.append(f"p99 validation lag "
                        f"{report['slo']['validation_lag_p99']} > "
                        f"{MAX_P99_LAG}")
    return failures


def _traffic_throughput(output: dict, wall_s: float) -> float:
    """Sessions finished per second: completed, killed or shed."""
    totals = output["report"]["totals"]
    return (totals["completed"] + totals["killed"] + totals["shed"]) / wall_s


# ---------------------------------------------------------------------------
# verifier-stream: six violation-free policy streams
# ---------------------------------------------------------------------------

def _stream_events(policy: str, rng: random.Random
                   ) -> Iterator[Tuple[int, int, int, int]]:
    """Endless violation-free (op, arg0, arg1, aux) events for
    ``policy``, in the shapes instrumented programs send, with the slot
    order, addresses and increments drawn from ``rng``."""
    from repro.core.messages import Op
    define, check = int(Op.POINTER_DEFINE), int(Op.POINTER_CHECK)
    event = int(Op.EVENT)

    def slots(count: int) -> Iterator[int]:
        while True:
            block = list(range(count))
            rng.shuffle(block)
            yield from block

    if policy == "hq-cfi":           # 1 define : 3 checks per pointer slot
        for i, slot in enumerate(slots(256)):
            address, value = 0x1000 + slot * 8, 0x40_0000 + i
            yield define, address, value, 0
            for _ in range(3):
                yield check, address, value, 0
    elif policy == "memory-safety":  # create, check, check base, destroy
        for slot in slots(512):
            base = 0x10_0000 + slot * 256
            yield int(Op.ALLOCATION_CREATE), base, 64, 0
            yield int(Op.ALLOCATION_CHECK), base + 8, 0, 0
            yield int(Op.ALLOCATION_CHECK_BASE), base + 8, base + 16, 0
            yield int(Op.ALLOCATION_DESTROY), base, 0, 0
    elif policy == "call-counter":   # call events, no limit
        while True:
            yield event, 1, rng.randint(1, 4), 0
    elif policy == "dfi":            # store with def 5, check in set 1
        for slot in slots(256):
            yield event, 20, 0x2000 + slot * 8, 5
            yield event, 22, 0x2000 + slot * 8, 1
    elif policy == "taint":          # source, clear, clean sink
        for slot in slots(256):
            for kind in (10, 12, 11):
                yield event, kind, 0x3000 + slot * 8, 0
    elif policy == "watchdog":       # strictly increasing heartbeats
        sequence = 0
        while True:
            sequence += rng.randint(1, 4)
            yield event, 2, sequence, 0
    else:
        raise ValueError(f"unknown stream policy {policy!r}")


def _policy_factory(policy: str) -> Callable:
    from repro.cfi.hq_cfi import HQCFIPolicy
    from repro.policies.call_counter import CallCounterPolicy
    from repro.policies.dfi import DFIPolicy
    from repro.policies.memory_safety import MemorySafetyPolicy
    from repro.policies.taint import TaintPolicy
    from repro.policies.watchdog import WatchdogPolicy
    return {"hq-cfi": HQCFIPolicy,
            "memory-safety": MemorySafetyPolicy,
            "call-counter": CallCounterPolicy,
            "dfi": lambda: DFIPolicy({1: frozenset({0, 5})}),
            "taint": TaintPolicy,
            "watchdog": WatchdogPolicy}[policy]


@dataclass
class _Stream:
    policy: str
    verifier: object
    channel: object
    process: object
    columns: Tuple[array, array, array, array]


def _stream_setup(spec: dict) -> List[_Stream]:
    from repro.core.messages import Op
    from repro.core.verifier import Verifier
    from repro.ipc.registry import create_channel
    from repro.sim.process import Process
    rng = random.Random(spec["seed"])
    n = STREAM_SMOKE_EVENTS if spec["smoke"] else STREAM_EVENTS
    syscall = (int(Op.SYSCALL), 1, 0, 0)
    streams = []
    for policy in POLICIES:
        columns = (array("Q"), array("Q"), array("Q"), array("Q"))
        events = itertools.islice(_stream_events(policy, rng), n)
        for i, message in enumerate(events, 1):
            for column, word in zip(columns, message):
                column.append(word)
            if i % SYSCALL_EVERY == 0:
                for column, word in zip(columns, syscall):
                    column.append(word)
        verifier = Verifier(_policy_factory(policy))
        channel = create_channel("uarch", capacity=1 << 14)
        verifier.attach_channel(channel)
        process = Process(name="verifier-stream")
        verifier.register_process(process.pid)
        streams.append(_Stream(policy, verifier, channel, process,
                               columns))
    return streams


def _stream_body(streams: List[_Stream]) -> dict:
    policies: Dict[str, dict] = {}
    policy_times: Dict[str, Tuple[float, float]] = {}
    for stream in streams:
        send = stream.channel.send_raw
        poll = stream.verifier.poll
        process = stream.process
        ops, arg0s, arg1s, auxes = stream.columns
        start = time.perf_counter()
        for base in range(0, len(ops), POLL_EVERY):
            end = base + POLL_EVERY
            for op, arg0, arg1, aux in zip(ops[base:end], arg0s[base:end],
                                           arg1s[base:end], auxes[base:end]):
                send(process, op, arg0, arg1, aux)
            poll()
        poll()
        finish = time.perf_counter()
        stats = stream.verifier.stats[process.pid]
        policies[stream.policy] = {
            "sent": len(ops), "processed": stats.messages_processed,
            "violations": stats.violations, "wall_s": finish - start}
        policy_times[stream.policy] = (start, finish)
    return {"policies": policies, "policy_times": policy_times}


def _stream_judge(output: dict) -> List[str]:
    return [f"{policy}: processed {row['processed']} of {row['sent']}, "
            f"{row['violations']} violations"
            for policy, row in output["policies"].items()
            if row["processed"] != row["sent"] or row["violations"]]


def _stream_throughput(output: dict, wall_s: float) -> float:
    """Geometric mean over the policies of validated messages per second
    of that policy's stream."""
    rates = [row["processed"] / row["wall_s"]
             for row in output["policies"].values()]
    return math.exp(sum(math.log(rate) for rate in rates) / len(rates))


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    #: Repetitions in a full set.
    reps: int
    setup: Callable[[dict], object]
    body: Callable[[object], dict]
    #: Failure messages for one output; empty when it is correct.
    judge: Callable[[dict], List[str]]
    #: The part of an output that must match the reference (or, without
    #: one, the run's first repetition) exactly; None: nothing to match.
    observable: Optional[Callable[[dict], dict]]
    #: Operations per second of one output, given its body wall time.
    throughput: Callable[[dict, float], float]
    #: Operations one repetition attempts.
    ops: int = 1
    #: Every repetition gets its own empty run-cache directory.
    fresh_cache: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-cold", 3, _paper_setup, _paper_body, _paper_judge,
             paper_observable, _paper_throughput, fresh_cache=True),
    Workload("traffic-inline", 5, _traffic_setup(None), _traffic_body,
             _traffic_judge, traffic_observable, _traffic_throughput),
    Workload("traffic-sharded", 5, _traffic_setup(4), _traffic_body,
             _traffic_judge, traffic_observable, _traffic_throughput),
    Workload("verifier-stream", 10, _stream_setup, _stream_body,
             _stream_judge, None, _stream_throughput, ops=len(POLICIES)),
)}
