"""The multi-tenant traffic engine: thousands of sessions, one monitor.

This is the production-traffic tier the NGINX case study implies:
instead of one monitored program run end to end (``run_program``), a
single kernel + verifier pair carries a churning population of session
processes — each with its own pid, policy context, and runtime library
instance — all multiplexed over one AppendWrite channel.  The engine
is deliberately built from the *same* components as the single-program
path (``HQRuntime``, ``HQKernelModule``, ``Kernel``, ``Verifier`` /
``ShardedVerifier``), so what it stresses is the real protocol:

* **fork-heavy churn** — sessions fork short-lived workers through the
  kernel's ``SYS_FORK`` path (context clone, independent exit);
* **backpressure** — the verifier gets a bounded dispatch budget per
  poll (the slow-verifier model), so sustained traffic builds a real
  backlog that the kernel's bounded epochs, the runtime's backoff, and
  admission control all react to;
* **admission control** — new sessions pass through
  :class:`repro.sim.kernel.AdmissionController` watermarks and are
  admitted, deferred, or shed;
* **epoch GC** — exited sessions' verifier state is reclaimed on a
  fixed epoch cadence, keeping the pid table bounded;
* **chaos mid-churn** — verifier crashes, shard crashes, and channel
  corruption can be injected at chosen ticks while sessions are in
  flight, and must end in tolerated / detected-kill outcomes.

Time is the *tick*: one engine loop iteration, :data:`TICK_NS` of
simulated time, charged to a dedicated clock process the observer
binds to.  All rates (kills/sec, shed/sec) are per simulated second.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core.runtime import HQRuntime
from repro.core.verifier import Verifier
from repro.ipc.registry import create_channel
from repro.sim.cpu import (ProcessKilledError, SYS_EXIT, SYS_FORK, SYS_WIN)
from repro.sim.cycles import AccountingMode, ns_to_cycles
from repro.sim.kernel import (ADMIT, AdmissionController, DEFER,
                              HQKernelModule, Kernel, shard_scoped_kill)
from repro.sim.process import Process
from repro.traffic.sessions import (DEFAULT_PHASES, Phase, TABLE_SLOTS,
                                    build_session, build_worker_script,
                                    parse_phases)

REPORT_VERSION = 1

#: Simulated duration of one engine tick.
TICK_NS = 10_000.0

#: Unknown opcode injected by the channel-corruption fault; the wire
#: codec cannot decode it, so the verifier must fail closed on it.
_CORRUPT_OPCODE = 0x7FFF_FFFF


class _SessionInterp:
    """Minimal interpreter stand-in a session's :class:`HQRuntime` needs.

    The runtime library reads ``interpreter.process`` on every send and
    ``interpreter.call_stack`` in the retptr helpers (unused here);
    sessions drive the runtime's public entry points directly, so no
    instruction interpreter is involved.
    """

    __slots__ = ("process", "call_stack")

    def __init__(self, process: Process) -> None:
        self.process = process
        self.call_stack: list = []


@dataclass
class TrafficConfig:
    """Knobs for one traffic run (defaults = the CI soak shape)."""

    sessions: int = 500
    phases: str = DEFAULT_PHASES
    shards: Optional[int] = None
    seed: int = 1
    #: Hard tick cap; 0 derives one from the phase list (hang guard).
    duration: int = 0
    channel: str = "model"
    channel_capacity: int = 1 << 14
    #: Messages the verifier may dispatch per engine tick — its
    #: validation capacity, and the quantity overload is measured
    #: against.  Sessions blocked at a barrier wait (without running)
    #: until a tick's budgeted drain reaches their token, so sustained
    #: production above this rate builds a real, persistent backlog.
    poll_budget: int = 192
    #: Barrier epoch budget, in polls, for the *last-chance* burst: a
    #: session blocked longer than ``barrier_timeout_ticks`` gets one
    #: aggressive kernel barrier (``epoch_polls`` budgeted polls) and
    #: is epoch-timeout killed if its token still does not surface.
    epoch_polls: int = 8
    #: Ticks a session may sit blocked at one barrier before the
    #: last-chance burst.  The kill ceiling is therefore roughly
    #: ``(barrier_timeout_ticks + epoch_polls) * poll_budget`` messages
    #: of backlog ahead of the token.
    barrier_timeout_ticks: int = 6
    #: Admission watermarks, in validation-load messages, against the
    #: peak barrier-entry lag observed this tick.  Deferrals begin at
    #: ~1.3x capacity and shedding at ~2.7x, both far below the kill
    #: ceiling: admission reacts to overload well before it turns into
    #: epoch-timeout kills of well-behaved sessions.
    defer_watermark: int = 256
    shed_watermark: int = 512
    max_deferrals: int = 8
    #: Epoch GC: advance every ``gc_interval`` ticks, retain exited
    #: pids' state for ``gc_epochs`` epochs.
    gc_interval: int = 8
    gc_epochs: int = 4
    #: Session events executed per active session per tick.
    events_per_tick: int = 2
    #: Injected faults: (tick, kind) with kind in
    #: {"verifier-crash", "shard-crash", "channel-corrupt"}.
    faults: Tuple[Tuple[int, str], ...] = ()
    restart_budget: int = 4
    observe: bool = True


@dataclass
class _Session:
    process: Process
    runtime: HQRuntime
    script: List[tuple]
    is_attack: bool = False
    is_worker: bool = False
    cursor: int = 0
    outcome: Optional[str] = None   # completed / killed / shed
    kill_reason: Optional[str] = None
    fork_probability: float = 0.0
    #: The barrier event this session is blocked at (syscall / fork /
    #: exit tuple); ``None`` while runnable.  The synchronization
    #: message is already sent — the session waits for the verifier's
    #: token before the kernel lets the call proceed.
    barrier: Optional[tuple] = None
    barrier_ticks: int = 0


class TrafficEngine:
    """Drives one multi-tenant traffic run to completion."""

    def __init__(self, config: TrafficConfig) -> None:
        self.config = config
        self.rng = Random(config.seed)
        self.phases = parse_phases(config.phases)
        self.observer = None
        if config.observe:
            from repro.obs.observer import Observer
            self.observer = Observer()

        #: The clock process: never monitored, charged TICK_NS per
        #: tick; the observer derives sim time from it.
        self.clock = Process(name="traffic-clock")
        if self.observer is not None:
            self.observer.bind_clock(self.clock)

        if config.shards is not None and config.shards > 1:
            from repro.core.shard_verifier import ShardedVerifier
            verifier = ShardedVerifier(HQCFIPolicy, config.shards)
        else:
            verifier = Verifier(HQCFIPolicy)
        verifier.observer = self.observer
        verifier.gc_epochs = config.gc_epochs
        self.verifier = verifier
        self.channel = create_channel(config.channel,
                                      capacity=config.channel_capacity)
        self.channel.observer = self.observer
        self.channel._on_full = lambda ch: self._poll()
        verifier.attach_channel(self.channel)

        # The kernel module polls at barriers and notices verifier
        # death, so it owns both budgets: bounded polls are the
        # slow-verifier model that makes validation lag (and the
        # admission watermarks) real, and each restart after an
        # injected crash condemns the pids whose messages were lost.
        self.hq = HQKernelModule(verifier, epoch_polls=config.epoch_polls,
                                 poll_budget=config.poll_budget,
                                 restart_budget=config.restart_budget)
        self.hq.observer = self.observer
        self.hq.admission = AdmissionController(
            defer_watermark=config.defer_watermark,
            shed_watermark=config.shed_watermark,
            max_deferrals=config.max_deferrals)
        self.kernel = Kernel(self.hq)

        # Run state.
        self.active: List[_Session] = []
        self.deferred: List[Tuple[_Session, int]] = []
        self.tick = 0
        self.offered = 0
        self.counts: Dict[str, int] = {
            "completed": 0, "killed": 0, "shed": 0, "forks": 0,
            "attacks_offered": 0, "attacks_detected": 0,
            "attacks_escaped": 0,
        }
        self.kill_reasons: Dict[str, int] = {}
        self.lag_samples: List[int] = []
        self.wait_samples: List[int] = []
        self.lifetimes: List[float] = []
        self.peak_pid_table = 0
        self.peak_active = 0
        self._faults = sorted(config.faults)
        self._faults_fired: List[str] = []
        self._arrival_debt = 0.0
        #: Peak barrier-entry validation lag seen this tick — the
        #: pressure signal admission decisions are made against.
        #: Barriers drain the whole backlog while waiting for their
        #: token, so an instantaneous load reading between barriers is
        #: always near zero; the lag a session actually experiences is
        #: the backlog it finds when it *enters* a barrier.
        self._tick_peak_lag = 0
        self._closed = False

    # -- session lifecycle ---------------------------------------------------

    def _new_session(self, phase: Phase) -> _Session:
        archetype = phase.archetypes[self.offered % len(phase.archetypes)]
        is_attack = self.rng.random() < phase.attack_fraction
        process = Process(name="session")
        session = _Session(
            process=process,
            runtime=self._make_runtime(process),
            script=build_session(self.rng, archetype, phase.requests,
                                 attack=is_attack),
            is_attack=is_attack,
            fork_probability=phase.fork_probability)
        self.offered += 1
        if is_attack:
            self.counts["attacks_offered"] += 1
        return session

    def _poll(self) -> int:
        """One verifier time slice at the kernel module's poll budget:
        the tick's drain, a runtime's channel-full retry, or a full
        channel making room."""
        return self.verifier.poll(self.hq.poll_budget)

    def _make_runtime(self, process: Process) -> HQRuntime:
        runtime = HQRuntime(self.channel)
        runtime.interpreter = _SessionInterp(process)
        runtime.drain_hook = self._poll
        runtime.on_fail_closed = self.hq.record_fail_closed
        return runtime

    def _admit(self, session: _Session, deferrals: int) -> str:
        verdict = self.hq.try_enable(session.process, deferrals,
                                     load=self._tick_peak_lag)
        if verdict == ADMIT:
            self.kernel.attach(session.process)
            self.active.append(session)
        elif verdict == DEFER:
            self.deferred.append((session, deferrals + 1))
        else:  # SHED
            session.outcome = "shed"
            self.counts["shed"] += 1
        return verdict

    def _finish(self, session: _Session, outcome: str,
                reason: Optional[str] = None) -> None:
        session.outcome = outcome
        session.kill_reason = reason
        pid = session.process.pid
        if outcome == "killed":
            self.counts["killed"] += 1
            self.kill_reasons[reason or "unknown"] = \
                self.kill_reasons.get(reason or "unknown", 0) + 1
            # The kernel reaps a killed process: drop its module
            # context and unregister it so GC can reclaim its state.
            self.hq.on_exit(pid)
        else:
            self.counts["completed"] += 1
            if session.is_attack:
                # An attack session that ran to completion slipped
                # past enforcement — the silent-bypass the fail-closed
                # design forbids.
                self.counts["attacks_escaped"] += 1
        if session.is_attack and outcome == "killed":
            self.counts["attacks_detected"] += 1
        lifetime = session.process.cycles.total(AccountingMode.MODEL)
        self.lifetimes.append(lifetime)
        if self.observer is not None:
            self.observer.session_end(lifetime)
        self.kernel.reap_process(pid)

    # -- event execution -----------------------------------------------------

    def _sample_barrier_lag(self) -> None:
        """Record validation lag as seen entering a syscall barrier.

        This is the latency a session actually pays: the number of
        undispatched messages ahead of its syscall token when the
        kernel starts polling for it.  The per-tick peak doubles as
        the admission controller's pressure signal.
        """
        lag = self.hq.validation_load()
        self.lag_samples.append(lag)
        if lag > self._tick_peak_lag:
            self._tick_peak_lag = lag

    def _step(self, session: _Session) -> None:
        """Execute up to ``events_per_tick`` of one session's script.

        Barrier events (syscall / fork / exit) send their
        synchronization message and *block*: the session stops running
        and waits — across ticks if need be — until the verifier's
        budgeted drain reaches its token (:meth:`_complete_barrier`).
        That wait is where overload becomes visible: the backlog ahead
        of the token is the validation lag the session pays.
        """
        runtime = session.runtime
        try:
            for _ in range(self.config.events_per_tick):
                event = session.script[session.cursor]
                session.cursor += 1
                kind = event[0]
                if kind == "define":
                    runtime.call("hq_pointer_define", [event[1], event[2]])
                elif kind == "check":
                    runtime.call("hq_pointer_check", [event[1], event[2]])
                elif kind == "event":
                    runtime.call("hq_event", [event[1], event[2]])
                else:  # syscall / fork / exit: enter the barrier
                    number = (SYS_FORK if kind == "fork"
                              else SYS_EXIT if kind == "exit" else event[1])
                    runtime.call("hq_syscall", [number])
                    self._sample_barrier_lag()
                    session.barrier = event
                    session.barrier_ticks = 0
                    return
        except ProcessKilledError as error:
            self._finish(session, "killed", error.reason)

    def _complete_barrier(self, session: _Session,
                          last_chance: bool = False) -> None:
        """Run the kernel barrier + system call a session blocked on.

        Called when the session's token is known available (or a
        violation / shard loss / verifier loss awaits it — every
        fail-closed check in ``before_syscall`` still runs).  The
        verifier poll budget is zeroed for the call, so the kernel
        barrier polls nothing and completion never grants extra
        validation capacity beyond the per-tick drain: its checks read
        what that drain produced, and no session sends between the
        drain and here, so the channels are empty.  ``last_chance``
        (timeout or dead verifier) instead lets the kernel poll with
        its full epoch budget before condemning.
        """
        event = session.barrier
        session.barrier = None
        self.wait_samples.append(session.barrier_ticks)
        kind = event[0]
        kernel = self.kernel
        process = session.process
        saved_budget = self.hq.poll_budget
        if not last_chance:
            self.hq.poll_budget = 0
        try:
            if kind == "syscall":
                number, arg = event[1], event[2]
                kernel.syscall(process, number,
                               [1, arg, 8] if number != SYS_WIN else [arg])
                if (session.fork_probability
                        and self.rng.random() < session.fork_probability):
                    session.script.insert(session.cursor, ("fork",))
            elif kind == "fork":
                child_pid = kernel.syscall(process, SYS_FORK, [])
                self._spawn_worker(child_pid)
            else:  # exit
                kernel.syscall(process, SYS_EXIT, [event[1]])
                self._finish(session, "completed")
        except ProcessKilledError as error:
            self._finish(session, "killed", error.reason)
        finally:
            self.hq.poll_budget = saved_budget

    def _spawn_worker(self, child_pid: int) -> None:
        child = self.kernel.processes[child_pid]
        worker = _Session(
            process=child,
            runtime=self._make_runtime(child),
            script=build_worker_script(self.rng, range(TABLE_SLOTS)),
            is_worker=True)
        self.counts["forks"] += 1
        self.active.append(worker)

    # -- fault injection -----------------------------------------------------

    def _inject(self, kind: str) -> None:
        self._faults_fired.append(f"{self.tick}:{kind}")
        if kind == "verifier-crash":
            self.verifier.terminate()
        elif kind == "shard-crash":
            crash = getattr(self.verifier, "crash_shard", None)
            if crash is not None:
                crash(self.rng.randrange(
                    max(1, len(getattr(self.verifier, "shards", [1])))))
        elif kind == "channel-corrupt":
            # An opcode the wire codec does not know: the verifier must
            # treat the stream as corrupt and fail closed on every live
            # pid — never skip it, never crash.
            self.channel.send_raw(self.clock, _CORRUPT_OPCODE, 0, 0, 0)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    # -- the main loop -------------------------------------------------------

    def run(self) -> Dict[str, object]:
        try:
            return self._run_loop()
        finally:
            self.close()

    def _run_loop(self) -> Dict[str, object]:
        config = self.config
        verifier = self.verifier
        phase_schedule: List[Phase] = []
        for phase in self.phases:
            phase_schedule.extend([phase] * phase.ticks)
        duration = config.duration or max(len(phase_schedule) * 4, 400)
        last_arrival_phase = next(
            (p for p in reversed(self.phases) if p.arrivals_per_tick > 0),
            self.phases[-1])

        while self.tick < duration:
            if self.tick < len(phase_schedule):
                phase = phase_schedule[self.tick]
            elif self.offered < config.sessions:
                phase = last_arrival_phase  # keep offering until done
            else:
                phase = self.phases[-1]
            self.tick += 1
            self.clock.cycles.charge_user(ns_to_cycles(TICK_NS),
                                          category="traffic-tick")

            while self._faults and self._faults[0][0] < self.tick:
                self._inject(self._faults.pop(0)[1])

            # Step the runnable population first: barriers record the
            # lag they find on entry, and the tick's peak becomes the
            # pressure admission decisions are made against below.
            self._tick_peak_lag = 0
            for session in list(self.active):
                if session.outcome is None and session.barrier is None:
                    self._step(session)
            self.active = [s for s in self.active if s.outcome is None]

            # Deferred sessions retry before new arrivals (FIFO).
            retries, self.deferred = self.deferred, []
            for session, deferrals in retries:
                self._admit(session, deferrals)
            self._arrival_debt += phase.arrivals_per_tick
            while (self._arrival_debt >= 1.0
                    and self.offered < config.sessions):
                self._arrival_debt -= 1.0
                self._admit(self._new_session(phase), 0)

            # This tick's validation capacity: one budgeted drain.
            self._poll()

            # Barrier resolution: blocked sessions resume once the
            # drain has reached their token; a pending violation, a
            # dead shard, or a dead verifier also wakes them — the
            # kernel barrier re-runs its fail-closed checks either way.
            verifier_down = bool(verifier.terminated)
            for session in list(self.active):
                if session.outcome is not None or session.barrier is None:
                    continue
                pid = session.process.pid
                if (verifier_down
                        or verifier.has_syscall_token(pid)
                        or verifier.has_violation(pid)
                        or shard_scoped_kill(verifier, pid)):
                    self._complete_barrier(session,
                                           last_chance=verifier_down)
                else:
                    session.barrier_ticks += 1
                    if session.barrier_ticks > config.barrier_timeout_ticks:
                        # The hardware epoch timer fires: one aggressive
                        # poll burst, then the epoch-timeout kill.
                        self._complete_barrier(session, last_chance=True)
            self.active = [s for s in self.active if s.outcome is None]

            if len(self.active) > self.peak_active:
                self.peak_active = len(self.active)
            table = verifier.pid_table_size()
            if table > self.peak_pid_table:
                self.peak_pid_table = table
            if self.observer is not None:
                self.observer.pid_table(table)
            if self.tick % config.gc_interval == 0:
                verifier.advance_epoch()

            if (not self.active and not self.deferred
                    and self.offered >= config.sessions
                    and self.tick >= len(phase_schedule)):
                break

        hit_cap = self.tick >= duration and (self.active or self.deferred)
        # Sessions still queued at the duration cap are shed, not lost.
        for session, _ in self.deferred:
            session.outcome = "shed"
            self.counts["shed"] += 1
        self.deferred = []

        # End of run: unbudgeted drain, then enough GC epochs to
        # reclaim every exited pid's surviving state.
        while verifier.poll():
            pass
        for session in list(self.active):
            if session.outcome is None and session.barrier is not None:
                # The flush surfaced every token: resolve the barrier
                # through the kernel so fail-closed checks still run.
                self._complete_barrier(session, last_chance=True)
        for session in self.active:
            if session.outcome is None:
                # Duration cap with live sessions: account them killed
                # by the harness (outcome recorded, state reclaimed).
                self._finish(session, "killed", "traffic-duration-cap")
        self.active = []
        for _ in range(self.config.gc_epochs + 1):
            verifier.advance_epoch()
        return self._report(hit_cap)

    # -- reporting -----------------------------------------------------------

    def _report(self, hit_cap: bool) -> Dict[str, object]:
        config = self.config
        sim_seconds = self.tick * TICK_NS * 1e-9
        admission = self.hq.admission
        kills_per_sec = (self.counts["killed"] / sim_seconds
                         if sim_seconds else 0.0)
        shed_per_sec = (self.counts["shed"] / sim_seconds
                        if sim_seconds else 0.0)
        report: Dict[str, object] = {
            "version": REPORT_VERSION,
            "config": {
                "sessions": config.sessions,
                "phases": config.phases,
                "shards": config.shards or 1,
                "seed": config.seed,
                "poll_budget": config.poll_budget,
                "watermarks": [config.defer_watermark,
                               config.shed_watermark],
                "gc": [config.gc_interval, config.gc_epochs],
                "faults": [f"{tick}:{kind}"
                           for tick, kind in sorted(config.faults)],
            },
            "totals": {
                "offered": self.offered,
                "admitted": admission.admitted,
                "deferred": admission.deferred,
                "shed": self.counts["shed"],
                "completed": self.counts["completed"],
                "killed": self.counts["killed"],
                "kill_reasons": dict(sorted(self.kill_reasons.items())),
                "forks": self.counts["forks"],
                "attacks": {
                    "offered": self.counts["attacks_offered"],
                    "detected": self.counts["attacks_detected"],
                    "escaped": self.counts["attacks_escaped"],
                    "wins": len(self.kernel.win_executed),
                },
                "verifier_restarts": self.hq.verifier_restarts,
                "faults_fired": list(self._faults_fired),
                "duration_capped": bool(hit_cap),
            },
            "slo": {
                "ticks": self.tick,
                "sim_seconds": sim_seconds,
                "validation_lag_p50": _percentile(self.lag_samples, 50),
                "validation_lag_p99": _percentile(self.lag_samples, 99),
                "validation_lag_max": max(self.lag_samples, default=0),
                "barrier_wait_ticks_p50": _percentile(self.wait_samples, 50),
                "barrier_wait_ticks_p99": _percentile(self.wait_samples, 99),
                "kills_per_sec": round(kills_per_sec, 3),
                "shed_per_sec": round(shed_per_sec, 3),
                "session_lifetime_p50":
                    _percentile(self.lifetimes, 50),
                "peak_active_sessions": self.peak_active,
            },
            "gc": {
                "reclaimed_pids": self.verifier.reclaimed_pids,
                "reclaimed_messages": self.verifier.reclaimed_messages,
                "reclaimed_violations": self.verifier.reclaimed_violations,
                "peak_pid_table": self.peak_pid_table,
                "final_pid_table": self.verifier.pid_table_size(),
            },
            "leaks": {
                "pid_entries": self.verifier.pid_table_size(),
                "kernel_processes": len(self.kernel.processes),
            },
        }
        if self.observer is not None:
            # Metrics only: tracer payloads carry raw pids, which vary
            # run to run (pids come from a process-global counter) and
            # would break the report's cross-run determinism.
            report["obs_metrics"] = self.observer.report()["metrics"]
        return report

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.channel.close()
        close = getattr(self.verifier, "close", None)
        if close is not None:
            close()


def _percentile(samples: Sequence[float], pct: float) -> float:
    """Exact nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(pct / 100.0 * (len(ordered) - 1))))
    return float(ordered[int(rank)])


def run_traffic(config: TrafficConfig) -> Dict[str, object]:
    """Build an engine, run it, and return the SLO report."""
    return TrafficEngine(config).run()
