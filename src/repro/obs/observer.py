"""The per-run observability hub: one tracer + one metrics registry.

An :class:`Observer` is created by ``run_program(observe=...)`` and
threaded to every instrumented layer (interpreter, kernel module, IPC
channel, verifier).  Each layer holds the observer in an ``observer``
attribute that defaults to ``None`` at class level; every emit site is
guarded by a single ``if observer is not None`` predicate, which is the
entire disabled-path cost — the contract `python -m repro.bench`
byte-identity rests on.

Timestamps come from the monitored process's cycle accounting (MODEL
total, converted to nanoseconds at the simulated clock), so they are
monotonic within a run and fully deterministic: two same-seed runs
yield identical traces and metric reports.

The emit helpers below are the event taxonomy; see DESIGN.md
("Observability") for the layer-by-layer description.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer
from repro.sim.cycles import CLOCK_GHZ, AccountingMode

REPORT_VERSION = 1

#: Fixed histogram bucket edges (inclusive upper bounds).  Fixed at
#: module level so every run buckets identically — cross-run diffs
#: compare bucket-for-bucket.
BLOCK_SIZE_EDGES = (1, 2, 4, 8, 16, 32, 64)
BARRIER_WAIT_NS_EDGES = (0.0, 400.0, 800.0, 1600.0, 3200.0)
BATCH_SIZE_EDGES = (1, 8, 64, 256, 1024, 4096)
VALIDATION_LAG_EDGES = (0, 1, 8, 64, 256, 1024)
SESSION_LIFETIME_EDGES = (1_000, 10_000, 100_000, 1_000_000, 10_000_000)


class Observer:
    """Bundles the tracer and the metrics registry for one run.

    Hot emit sites bump pre-bound :class:`~repro.obs.metrics.Counter`
    references (``observer.cpu_blocks.value += 1``); colder sites call
    the helper methods, which also record trace events.
    """

    def __init__(self, trace_capacity: int = DEFAULT_CAPACITY) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(capacity=trace_capacity, clock=self.now)
        self.meta: Dict[str, object] = {}
        self._clock_cycles = None   # CycleAccount of the observed process
        self._backlog_peak = 0
        #: Lazily-created per-shard metric bundles (sharded runs only;
        #: unsharded runs never touch this, keeping their reports — and
        #: the bench byte-identity gate — unchanged).
        self._shard_metrics: Dict[int, tuple] = {}
        #: Lazily-created per-shard idle-poll counters (worker-process
        #: runs only); separate from ``_shard_metrics`` so inline
        #: sharded reports keep their existing shape.
        self._shard_idle: Dict[int, object] = {}
        #: Lazily-created traffic-tier metrics (GC reclaim, session
        #: lifetimes, shed sessions).  Runs that never churn sessions
        #: never create them, keeping existing reports byte-identical.
        self._gc_reclaimed = None
        self._pid_table_size = None
        self._session_lifetime = None
        self._shed_sessions = None
        #: Lazily-created interpreter metrics (``interp.*``): only runs
        #: that actually lower a function create them, so reports of
        #: runs that never enter the interpreter keep their exact shape.
        self._vm_compiled_blocks = None
        self._vm_deopts = None

        registry = self.registry
        # cpu layer (sim/cpu.py)
        self.cpu_blocks = registry.counter("cpu.blocks_executed")
        self.cpu_decode_hits = registry.counter("cpu.decode_hits")
        self.cpu_decode_misses = registry.counter("cpu.decode_misses")
        self.cpu_block_size = registry.histogram("cpu.block_size",
                                                 BLOCK_SIZE_EDGES)
        # kernel layer (sim/kernel.py)
        self.kernel_syscalls = registry.counter(
            "kernel.syscalls_intercepted")
        self.kernel_barrier_waits = registry.counter("kernel.barrier_waits")
        self.kernel_kills = registry.counter("kernel.kills")
        self.kernel_epoch_timeouts = registry.counter(
            "kernel.epoch_timeouts")
        self.kernel_fail_closed = registry.counter("kernel.fail_closed")
        self.kernel_restarts = registry.counter("kernel.verifier_restarts")
        self.kernel_barrier_wait_ns = registry.histogram(
            "kernel.barrier_wait_ns", BARRIER_WAIT_NS_EDGES)
        # ipc layer (ipc/base.py, ipc/appendwrite.py; batch counters are
        # emitted at the verifier's receive boundary, which sees every
        # transport — wrapped or not — uniformly)
        self.ipc_batches = registry.counter("ipc.batches")
        self.ipc_messages = registry.counter("ipc.messages_received")
        self.ipc_full_events = registry.counter("ipc.full_events")
        self.ipc_drops = registry.counter("ipc.messages_dropped")
        self.ipc_counter_fallbacks = registry.counter(
            "ipc.counter_fallbacks")
        self.ipc_amr_faults = registry.counter("ipc.amr_faults")
        self.ipc_amr_revalidations = registry.counter(
            "ipc.amr_revalidations")
        self.ipc_batch_size = registry.histogram("ipc.batch_size",
                                                 BATCH_SIZE_EDGES)
        # verifier layer (core/verifier.py)
        self.verifier_polls = registry.counter("verifier.polls")
        self.verifier_dispatch_runs = registry.counter(
            "verifier.dispatch_runs")
        self.verifier_violations = registry.counter("verifier.violations")
        self.verifier_integrity = registry.counter(
            "verifier.integrity_failures")
        self.verifier_validation_lag = registry.histogram(
            "verifier.validation_lag", VALIDATION_LAG_EDGES)

    # -- clock ---------------------------------------------------------------

    def bind_clock(self, process) -> None:
        """Derive timestamps from ``process``'s cycle totals."""
        self._clock_cycles = process.cycles

    def now(self) -> float:
        """Current sim time in nanoseconds (0.0 before a clock binds)."""
        cycles = self._clock_cycles
        if cycles is None:
            return 0.0
        return cycles.total(AccountingMode.MODEL) / CLOCK_GHZ

    # -- cpu emits -----------------------------------------------------------

    def cpu_decode_miss(self, function: str, block: str) -> None:
        self.cpu_decode_misses.value += 1
        self.tracer.instant("cpu", "decode-miss",
                            {"function": function, "block": block})

    def vm_compile(self, function: str, blocks: int) -> None:
        """The VM lowered ``function`` into ``blocks`` flat block bodies
        (lazy; once per function, or per short-call variant, per
        interpreter)."""
        if self._vm_compiled_blocks is None:
            self._vm_compiled_blocks = self.registry.counter(
                "interp.compiled_blocks")
            self._vm_deopts = self.registry.counter("interp.deopt_count")
        self._vm_compiled_blocks.value += blocks
        self.tracer.instant("cpu", "vm-compile",
                            {"function": function, "blocks": blocks})

    def vm_deopt(self) -> None:
        """A compiled frame ran one instruction through its escape
        handler (call, syscall, runtime callout, heap operation,
        longjmp)."""
        if self._vm_deopts is None:
            self._vm_deopts = self.registry.counter("interp.deopt_count")
        self._vm_deopts.value += 1

    # -- kernel emits --------------------------------------------------------

    def kernel_barrier(self, syscall: int, waits: int,
                       waited_ns: float) -> None:
        """A syscall barrier resumed after ``waits`` verifier round trips."""
        self.kernel_barrier_wait_ns.observe(waited_ns)
        if waits:
            self.kernel_barrier_waits.value += 1
            self.tracer.complete("kernel", "barrier-wait",
                                 self.now() - waited_ns, waited_ns,
                                 {"syscall": syscall, "round_trips": waits})

    def kernel_kill(self, pid: int, reason: str) -> None:
        self.kernel_kills.value += 1
        if reason == "synchronization epoch timeout":
            self.kernel_epoch_timeouts.value += 1
        self.tracer.instant("kernel", "kill",
                            {"pid": pid, "reason": reason})

    def kernel_fail_closed_event(self, pid: int, reason: str) -> None:
        self.kernel_fail_closed.value += 1
        self.tracer.instant("kernel", "fail-closed",
                            {"pid": pid, "reason": reason})

    def kernel_verifier_restart(self) -> None:
        self.kernel_restarts.value += 1
        self.tracer.instant("kernel", "verifier-restart", None)

    # -- ipc emits -----------------------------------------------------------

    def ipc_batch(self, messages: int) -> None:
        self.ipc_batches.value += 1
        self.ipc_messages.value += messages
        self.ipc_batch_size.observe(messages)

    def ipc_full(self) -> None:
        self.ipc_full_events.value += 1
        self.tracer.instant("ipc", "channel-full", None)

    def ipc_drop(self) -> None:
        self.ipc_drops.value += 1
        self.tracer.instant("ipc", "message-dropped", None)

    def ipc_counter_fallback(self) -> None:
        self.ipc_counter_fallbacks.value += 1
        self.tracer.instant("ipc", "counter-fallback", None)

    def ipc_amr_fault(self) -> None:
        self.ipc_amr_faults.value += 1
        self.tracer.instant("ipc", "amr-fault", None)

    # -- verifier emits ------------------------------------------------------

    def verifier_poll_event(self, processed: int, start_ns: float) -> None:
        self.verifier_polls.value += 1
        self.verifier_validation_lag.observe(processed)
        if processed:
            now = self.now()
            self.tracer.complete("verifier", "poll", start_ns,
                                 now - start_ns, {"messages": processed})

    def note_backlog(self, size: int) -> None:
        if size > self._backlog_peak:
            self._backlog_peak = size

    def violation(self, pid: int, kind: str) -> None:
        self.verifier_violations.value += 1
        self.tracer.instant("verifier", "violation",
                            {"pid": pid, "kind": kind})

    def integrity_failure(self, detail: str) -> None:
        self.verifier_integrity.value += 1
        self.tracer.instant("verifier", "integrity-failure",
                            {"detail": detail[:120]})

    # -- traffic-tier emits (lazy; only session-churning runs create) --------

    def gc_reclaim(self, pids: int, table_size: int) -> None:
        """Epoch GC reclaimed ``pids`` sessions' verifier state; the
        pid table now holds ``table_size`` entries."""
        if self._gc_reclaimed is None:
            self._gc_reclaimed = self.registry.counter(
                "verifier.gc_reclaimed")
            self._pid_table_size = self.registry.gauge(
                "verifier.pid_table_size")
        self._gc_reclaimed.value += pids
        self._pid_table_size.set(table_size)
        self.tracer.instant("verifier", "gc-reclaim",
                            {"pids": pids, "table_size": table_size})

    def pid_table(self, table_size: int) -> None:
        """Point-in-time pid-table reading (peak tracked by caller)."""
        if self._pid_table_size is None:
            self._pid_table_size = self.registry.gauge(
                "verifier.pid_table_size")
        self._pid_table_size.set(table_size)

    def session_end(self, lifetime_cycles: float) -> None:
        """A session completed after ``lifetime_cycles`` of sim work."""
        if self._session_lifetime is None:
            self._session_lifetime = self.registry.histogram(
                "session.lifetime_cycles", SESSION_LIFETIME_EDGES)
        self._session_lifetime.observe(lifetime_cycles)

    def session_shed(self) -> None:
        """Admission control shed a session at the shed watermark."""
        if self._shed_sessions is None:
            self._shed_sessions = self.registry.counter(
                "kernel.shed_sessions")
        self._shed_sessions.value += 1
        self.tracer.instant("kernel", "session-shed", None)

    # -- shard emits (sharded verifier runtime only) -------------------------

    def _shard_bundle(self, shard_id: int) -> tuple:
        bundle = self._shard_metrics.get(shard_id)
        if bundle is None:
            prefix = f"shard.{shard_id}"
            bundle = (
                self.registry.counter(f"{prefix}.messages_drained"),
                self.registry.histogram(f"{prefix}.ring_occupancy",
                                        BATCH_SIZE_EDGES),
                self.registry.histogram(f"{prefix}.validation_lag",
                                        VALIDATION_LAG_EDGES),
                self.registry.counter(f"{prefix}.kills"),
            )
            self._shard_metrics[shard_id] = bundle
        return bundle

    def shard_drain(self, shard_id: int, drained: int,
                    occupancy: int) -> None:
        """One shard's drain slice: ``occupancy`` messages were waiting
        in its ring, ``drained`` got dispatched this poll (the
        difference, when positive, is that shard's validation lag)."""
        drained_counter, ring_occupancy, validation_lag, _ = \
            self._shard_bundle(shard_id)
        drained_counter.value += drained
        ring_occupancy.observe(occupancy)
        validation_lag.observe(max(0, occupancy - drained))

    def shard_down(self, shard_id: int, pids_condemned: int) -> None:
        """A verifier shard died; its pids are condemned (scoped)."""
        self._shard_bundle(shard_id)[3].value += pids_condemned
        self.tracer.instant("verifier", "shard-down",
                            {"shard": shard_id,
                             "pids_condemned": pids_condemned})

    def shard_idle_polls(self, shard_id: int, polls: int) -> None:
        """Empty consume polls a shard worker performed (reported once
        at worker shutdown) — the adaptive-backoff efficiency signal:
        high counts mean the worker outpaces its producer."""
        counter = self._shard_idle.get(shard_id)
        if counter is None:
            counter = self._shard_idle[shard_id] = \
                self.registry.counter(f"shard.{shard_id}.idle_polls")
        counter.value += polls

    # -- run lifecycle -------------------------------------------------------

    def run_start(self, design: str, channel: Optional[str]) -> None:
        self.tracer.instant("run", "start",
                            {"design": design, "channel": channel})

    def finalize_run(self, *, steps: Optional[int] = None,
                     runtime=None, channel=None, verifier=None,
                     outcome: Optional[str] = None) -> None:
        """Capture end-of-run gauges from the wired components."""
        gauge = self.registry.gauge
        if steps is not None:
            gauge("cpu.steps", steps)
        if runtime is not None:
            gauge("runtime.messages_sent", runtime.messages_sent)
            gauge("runtime.full_retries", runtime.full_retries)
        if channel is not None:
            gauge("ipc.sent_total", channel.sent_total)
            gauge("ipc.dropped_total", channel.dropped_total)
        if verifier is not None:
            gauge("verifier.backlog", verifier.backlog_size())
            gauge("verifier.backlog_peak", self._backlog_peak)
            gauge("verifier.messages_processed",
                  verifier.total_messages())
        if outcome is not None:
            self.meta["outcome"] = outcome
            self.tracer.instant("run", "end", {"outcome": outcome})

    # -- export --------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """The per-run metrics report (JSON-serializable, deterministic)."""
        return {
            "version": REPORT_VERSION,
            "meta": dict(sorted(self.meta.items())),
            "metrics": self.registry.as_dict(),
            "trace": self.tracer.summary(),
        }
