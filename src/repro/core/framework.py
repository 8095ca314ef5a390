"""The HerQules framework: compile, wire up, and run a monitored program.

This is the top-level public API.  :func:`run_program` takes a program
module (built with :class:`repro.compiler.builder.IRBuilder` or a
workload generator), a design name, and an IPC primitive; it runs the
full lifecycle of Figure 1 — compiler instrumentation, process startup
and registration, concurrent message verification, bounded asynchronous
validation at system calls — and returns a :class:`RunResult` with
outcome, cycle accounting, violations, and statistics.

Typical use::

    from repro.core.framework import run_program
    result = run_program(build_my_module(), design="hq-sfestk",
                         channel="model")
    assert result.ok
    print(result.cycles["user"], result.messages_sent)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.cfi.ccfi import CompilationError
from repro.cfi.designs import get_design
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.compiler import ir
from repro.compiler.passes.base import PassManager
from repro.core.policy import Policy, Violation
from repro.core.runtime import HQRuntime
from repro.core.verifier import Verifier
from repro.ipc.appendwrite import AppendWriteUArch
from repro.ipc.base import Channel
from repro.ipc.registry import create_channel
from repro.sim.cpu import (
    ExecutionLimitExceeded,
    Interpreter,
    PolicyViolationError,
    ProcessKilledError,
    ProgramCrash,
)
from repro.sim.cycles import AccountingMode
from repro.sim.kernel import HQKernelModule, Kernel
from repro.sim.loader import Image
from repro.sim.memory import SegmentationFault
from repro.sim.process import HeapError, Process


@dataclass
class RunResult:
    """Outcome of one monitored (or baseline) program execution."""

    design: str
    channel: Optional[str]
    #: "ok", "compile-error", "crash", "hang", "violation" (in-process
    #: abort), or "killed" (verifier-signalled kill).
    outcome: str
    exit_status: Optional[int] = None
    detail: str = ""
    #: Cycle buckets (user/ipc/syscall/wait/detail).
    cycles: Dict[str, object] = field(default_factory=dict)
    #: Program stdout (words written via SYS_WRITE).
    output: List[int] = field(default_factory=list)
    #: Verifier-recorded violations (HQ designs only).
    violations: List[Violation] = field(default_factory=list)
    messages_sent: int = 0
    hijacks: int = 0
    #: Whether the attack marker syscall executed (attack experiments).
    win_executed: bool = False
    #: Per-pass instrumentation statistics.
    pass_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Peak verifier metadata entries (section 5.4 metric).
    max_entries: int = 0
    steps: int = 0
    #: Violations recorded by in-process runtimes (Clang CFI / CCFI) in
    #: continue-after-violation mode.
    runtime_violations: int = 0
    #: Per-run observability report (``run_program(observe=...)`` only;
    #: None when observability is disabled).  JSON-serializable, so it
    #: pickles through the bench run-result cache with the rest of the
    #: result.
    obs_report: Optional[Dict] = None
    #: Happens-before races found on the shard rings
    #: (``run_program(race_check=True)`` with ``shards >= 2`` only;
    #: None when race checking is disabled, empty list = clean).
    races: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def total_cycles(self, mode: AccountingMode = AccountingMode.MODEL) -> float:
        buckets = self.cycles
        if not buckets:
            return 0.0
        if mode is AccountingMode.SIM:
            return float(buckets["user"]) + float(buckets["ipc"])
        return (float(buckets["user"]) + float(buckets["ipc"])
                + float(buckets["syscall"]) + float(buckets["wait"]))


def _wire_channel(kind: str, verifier, **kwargs) -> Channel:
    """Create the message channel with kernel-style full handling.

    Every primitive gets a drain hook: a full buffer triggers a
    verifier drain so the sender can retry instead of failing outright.
    The AMR variant additionally rewinds its address registers once the
    region has been fully read (section 2.3.2).
    """
    channel = create_channel(kind, **kwargs)
    if isinstance(channel, AppendWriteUArch):
        def _kernel_amr_handler(ch: AppendWriteUArch) -> None:
            verifier.poll()
            ch.reset_registers()
        channel._on_full = _kernel_amr_handler
    else:
        channel._on_full = lambda ch: verifier.poll()
    return channel


def run_program(module: ir.Module,
                design: str = "hq-sfestk",
                channel: str = "model",
                entry: str = "main",
                entry_args: Optional[Sequence[int]] = None,
                policy_factory: Callable[[], Policy] = HQCFIPolicy,
                kill_on_violation: bool = True,
                sync_exempt_syscalls: Optional[Set[int]] = None,
                max_steps: int = 5_000_000,
                aslr: bool = True,
                seed: int = 1,
                inlined_runtime: bool = True,
                channel_kwargs: Optional[dict] = None,
                pre_run: Optional[Callable[[Image, Interpreter], None]] = None,
                passes_override: Optional[list] = None,
                naive_synchronization: bool = False,
                fault_injector=None,
                observe=None,
                shards: Optional[int] = None,
                race_check: bool = False) -> RunResult:
    """Compile ``module`` under ``design`` and execute it end to end.

    ``module`` is mutated by the instrumentation passes; build a fresh
    module per run (workload generators do).  For HQ designs,
    ``channel`` selects the IPC primitive (``model``, ``sim``, ``fpga``,
    ``mq``, ...); it is ignored for in-process designs.
    ``kill_on_violation=False`` is the continue-after-violation mode the
    paper uses for performance runs (section 5).

    ``pre_run`` is invoked with the loaded image and interpreter just
    before execution; the attack suite uses it to plant attacker input
    in memory (data that arrives at runtime, opaque to the compiler).

    ``fault_injector`` (a :class:`repro.faults.FaultInjector` or
    anything with the same ``wrap_verifier`` / ``wrap_channel`` /
    ``configure_kernel`` surface) interposes deterministic faults on
    the verifier, the message channel, and the kernel epoch timer —
    the chaos harness uses it to prove the fail-closed invariant.

    ``observe`` enables the observability layer: pass ``True`` for a
    fresh :class:`repro.obs.Observer` or an existing instance to reuse
    its tracer/registry.  The run's metrics report lands in
    ``result.obs_report``; the default (None) keeps every instrumented
    path to a single disabled-predicate check.

    ``shards`` (>= 2) replaces the single verifier with the sharded
    runtime (:class:`repro.core.shard_verifier.ShardedVerifier`): pids
    partition across that many verifier shards, each draining its own
    shared-memory SPSC ring.  Verdicts are identical to the
    single-verifier path — sharding is a throughput structure, not a
    semantic one.  The default (None or 1) keeps the plain verifier.

    ``race_check`` (sharded runs only) attaches a happens-before probe
    (:mod:`repro.mc.race`) to every shard ring and, after the run,
    replays the recorded shared accesses through FastTrack-style
    vector-clock analysis; flagged races land in ``result.races``
    (empty list = this execution was provably race-free).  The chaos
    harness turns this on with ``--race``.
    """
    config = get_design(design)

    observer = None
    if observe:
        from repro.obs.observer import Observer
        observer = observe if isinstance(observe, Observer) else Observer()
        observer.meta.setdefault("design", design)
        observer.meta.setdefault("channel",
                                 channel if config.monitored else None)
        observer.meta.setdefault("module", module.name)
        observer.meta.setdefault("seed", seed)

    # 1. Compiler instrumentation.  ``passes_override`` substitutes a
    # custom pipeline (the optimization-ablation benchmarks use it).
    passes = passes_override if passes_override is not None \
        else config.passes()
    manager = PassManager(passes)
    try:
        pass_stats = manager.run(module)
    except CompilationError as error:
        return RunResult(design=design, channel=None,
                         outcome="compile-error", detail=str(error))

    # 2. Process / kernel / verifier wiring (Figure 1).
    process = Process(name=module.name)
    if observer is not None:
        # Timestamps derive from this process's cycle totals: monotonic
        # sim time, deterministic across same-seed runs.
        observer.bind_clock(process)
    kernel = Kernel()
    ring_probes = []  # (shard_id, RingProbe) when race_check is on
    try:
        return _wire_and_execute(
            config, module, design, channel, entry, entry_args,
            policy_factory, kill_on_violation, sync_exempt_syscalls,
            max_steps, aslr, seed, inlined_runtime, channel_kwargs,
            pre_run, naive_synchronization, fault_injector, observer,
            shards, race_check, process, kernel, pass_stats, ring_probes)
    finally:
        # Release OS resources even when an exception unwinds mid-run
        # (SPSC rings hold real /dev/shm segments; an aborted sharded
        # run must not leak them).  ``_wire_and_execute`` parks the
        # wired components on the kernel so they are reachable here
        # however far wiring got; in-process channels make these
        # close() calls no-ops, and all of them are idempotent.
        hq_channel = getattr(kernel, "_hq_channel", None)
        if hq_channel is not None:
            hq_channel.close()
        close_verifier = getattr(getattr(kernel, "_hq_verifier", None),
                                 "close", None)
        if close_verifier is not None:
            close_verifier()


def _wire_and_execute(config, module, design, channel, entry, entry_args,
                      policy_factory, kill_on_violation,
                      sync_exempt_syscalls, max_steps, aslr, seed,
                      inlined_runtime, channel_kwargs, pre_run,
                      naive_synchronization, fault_injector, observer,
                      shards, race_check, process, kernel, pass_stats,
                      ring_probes) -> RunResult:
    """Wiring + execution body of :func:`run_program` (steps 2–4).

    Split out so the caller can hold a ``finally`` over the whole
    thing: every resource-owning component is parked on ``kernel``
    (``_hq_verifier`` / ``_hq_channel``) the moment it exists, which is
    what makes cleanup reachable when this raises at *any* point.
    """
    verifier = None  # Verifier or ShardedVerifier (duck-typed liaison)
    hq_channel: Optional[Channel] = None
    hq_module = None
    if config.monitored:
        if shards is not None and shards > 1:
            from repro.core.shard_verifier import ShardedVerifier
            verifier = ShardedVerifier(policy_factory, shards)
            kernel._hq_verifier = verifier
            if race_check:
                from repro.mc.race import RingProbe
                for engine in verifier.shards:
                    probe = RingProbe()
                    # The inline coordinator plays both protocol roles
                    # on each ring; distinct actor names per role keep
                    # the happens-before analysis honest about which
                    # accesses the sync accesses must order.
                    engine.ring.attach_probe(
                        probe,
                        producer=f"router{engine.shard_id}",
                        consumer=f"shard{engine.shard_id}")
                    ring_probes.append((engine.shard_id, probe))
        else:
            verifier = Verifier(policy_factory)
            kernel._hq_verifier = verifier
        # The observer rides on the *inner* verifier/transport so fault
        # wrappers (which delegate to them) are observed for free and
        # nothing is double-counted.
        verifier.observer = observer
        if fault_injector is not None:
            # Wrap the verifier first so every liaison path — the drain
            # hooks wired below included — goes through the injector.
            verifier = fault_injector.wrap_verifier(verifier)
        hq_channel = _wire_channel(channel, verifier, **(channel_kwargs or {}))
        kernel._hq_channel = hq_channel  # parked pre-wrap: the resource owner
        hq_channel.observer = observer
        if fault_injector is not None:
            hq_channel = fault_injector.wrap_channel(hq_channel)
        verifier.attach_channel(hq_channel)
        hq_module = HQKernelModule(
            verifier,
            kill_on_violation=kill_on_violation,
            sync_exempt_syscalls=sync_exempt_syscalls,
            force_round_trip=naive_synchronization)
        hq_module.observer = observer
        if fault_injector is not None:
            fault_injector.configure_kernel(hq_module)
        kernel.hq = hq_module
        kernel.attach(process)
        hq_module.enable(process)
    else:
        kernel.attach(process)

    runtime = config.runtime(hq_channel)
    options = config.exec_options(max_steps=max_steps, aslr=aslr, seed=seed)
    if isinstance(runtime, HQRuntime):
        runtime.inlined = inlined_runtime
        if verifier is not None:
            # Channel-full backoff: retries drain the verifier, and a
            # kill on budget exhaustion is recorded with the module.
            runtime.drain_hook = verifier.poll
        if hq_module is not None:
            runtime.on_fail_closed = hq_module.record_fail_closed
    if hasattr(runtime, "abort_on_violation"):
        # In-process designs mirror the continue-after-violation mode
        # the paper uses for correctness/performance runs (section 5).
        runtime.abort_on_violation = kill_on_violation

    image = Image(module, process)
    interpreter = Interpreter(
        image, runtime, options, kernel.syscall,
        on_step=(verifier.poll if verifier is not None else None),
        observer=observer)

    # 3. Execute.
    result = RunResult(design=design,
                       channel=channel if config.monitored else None,
                       outcome="ok", pass_stats=pass_stats)
    if observer is not None:
        observer.run_start(design, result.channel)
    try:
        if pre_run is not None:
            pre_run(image, interpreter)
        result.exit_status = interpreter.run(entry, list(entry_args or []))
    except ProcessKilledError as error:
        result.outcome = "killed"
        result.detail = error.reason
    except PolicyViolationError as error:
        result.outcome = "violation"
        result.detail = str(error)
    except ExecutionLimitExceeded as error:
        result.outcome = "hang"
        result.detail = str(error)
    except (ProgramCrash, SegmentationFault, HeapError) as error:
        result.outcome = "crash"
        result.detail = str(error)

    # 4. Final verifier drain: process any messages still in flight.
    if verifier is not None:
        verifier.poll()
        result.violations = verifier.all_violations(process.pid)
        stats = verifier.stats.get(process.pid)
        if stats is not None:
            result.max_entries = stats.max_entries
    if isinstance(runtime, HQRuntime):
        result.messages_sent = runtime.messages_sent
    result.runtime_violations = getattr(runtime, "violations", 0)
    if ring_probes:
        from repro.mc.race import RaceDetector
        result.races = []
        for shard_id, probe in ring_probes:
            # One endpoint object played both roles, so its event log
            # is already a total order — no cross-log merge needed.
            detector = RaceDetector().feed(probe.events)
            result.races.extend(
                f"shard {shard_id}: {race}" for race in detector.races)

    result.cycles = process.cycles.snapshot()
    result.output = list(kernel.stdout.get(process.pid, []))
    result.hijacks = len(interpreter.hijacks)
    result.win_executed = process.pid in kernel.win_executed
    result.steps = interpreter.steps
    if observer is not None:
        observer.finalize_run(
            steps=interpreter.steps,
            runtime=runtime if isinstance(runtime, HQRuntime) else None,
            channel=hq_channel, verifier=verifier,
            outcome=result.outcome)
        result.obs_report = observer.report()
    # Step 5 (resource release) lives in run_program's ``finally``.
    return result
