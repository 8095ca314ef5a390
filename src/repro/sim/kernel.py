"""Simulated OS kernel and the HerQules kernel module.

The kernel owns processes and the system-call table; the HQ kernel
module (``hq.ko`` in the artifact) dynamically intercepts system calls
of monitored processes and implements *bounded asynchronous validation*
(section 2.2):

1. The monitored program sends a ``SYSCALL`` message over AppendWrite
   just before each system call (inserted by the compiler), then traps.
2. The kernel pauses the system call and waits for the verifier to
   confirm that all outstanding messages have been processed and no
   policy check failed.  Because the confirmation message was pipelined
   with the trap, a well-behaved program usually does not wait at all.
3. If the verifier reports a violation, the process is killed before
   the system call produces any externally visible effect.  If no
   synchronization message arrives within a configurable *epoch*, the
   kernel treats it as a policy violation too (a compromised program
   cannot simply stop sending messages).

Per-process kernel context is kept in a hash table keyed by pid, copied
on ``fork``/``clone`` and dropped at exit, as described in section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.sim.cpu import (
    ProcessKilledError,
    SYS_EXECVE,
    SYS_EXIT,
    SYS_FORK,
    SYS_GETPID,
    SYS_READ,
    SYS_WIN,
    SYS_WRITE,
)
from repro.sim.cycles import ns_to_cycles
from repro.sim.process import Process


def shard_scoped_kill(verifier, pid: int) -> bool:
    """Should the barrier kill ``pid`` because its verifier shard died?

    The single decision point for scoped shard-death kills: true iff
    the verifier exposes ``shard_down_for`` and reports this pid's
    shard down (a single :class:`~repro.core.verifier.Verifier` always
    answers no).  The barrier consults it below, and the
    model-checking layer's conformance check
    (:func:`repro.mc.shard_model.conformance_check`) drives the same
    function against the abstract lifecycle model — so the decision
    the kernel enforces is the one the checker verified.
    """
    shard_down = getattr(verifier, "shard_down_for", None)
    return shard_down is not None and bool(shard_down(pid))


# Admission verdicts (the distinct outcomes the traffic tier reports).
ADMIT = "admitted"
DEFER = "deferred"
SHED = "shed"


class AdmissionController:
    """Watermark-based admission control for new monitored sessions.

    The monitor-side resource that saturates under sustained traffic is
    validation capacity: channel occupancy plus verifier backlog (the
    *validation load*).  Instead of letting new sessions pile onto a
    full channel and wedge at ``ChannelFullError`` — which kills
    *already-admitted* well-behaved sessions via fail-closed sends —
    the kernel module consults this controller before enabling
    monitoring on a new session:

    * load < ``defer_watermark`` — **admit**: enable monitoring now.
    * ``defer_watermark`` <= load < ``shed_watermark`` — **defer**: the
      session is told to come back after the verifier has had time to
      drain; each deferral is counted, and a session deferred more than
      ``max_deferrals`` times is shed instead of waiting forever.
    * load >= ``shed_watermark`` — **shed**: the session is rejected
      outright with a distinct verdict.

    Shedding is *graceful degradation*, not a security bypass: a shed
    session never executes monitored work at all (the caller must treat
    the verdict as a refusal), while every admitted session keeps the
    full fail-closed validation pipeline.
    """

    DEFAULT_DEFER_WATERMARK = 256
    DEFAULT_SHED_WATERMARK = 1024
    DEFAULT_MAX_DEFERRALS = 8

    def __init__(self, defer_watermark: int = DEFAULT_DEFER_WATERMARK,
                 shed_watermark: int = DEFAULT_SHED_WATERMARK,
                 max_deferrals: int = DEFAULT_MAX_DEFERRALS) -> None:
        if shed_watermark < defer_watermark:
            raise ValueError("shed watermark below defer watermark")
        self.defer_watermark = defer_watermark
        self.shed_watermark = shed_watermark
        self.max_deferrals = max_deferrals
        self.admitted = 0
        self.deferred = 0
        self.shed = 0

    def decide(self, load: int, deferrals: int = 0) -> str:
        """Verdict for one admission attempt at validation ``load``.

        ``deferrals`` is how many times this same session was already
        deferred; past ``max_deferrals`` a congested system sheds it
        rather than starving it indefinitely.
        """
        if load >= self.shed_watermark:
            self.shed += 1
            return SHED
        if load >= self.defer_watermark:
            if deferrals >= self.max_deferrals:
                self.shed += 1
                return SHED
            self.deferred += 1
            return DEFER
        self.admitted += 1
        return ADMIT


@dataclass
class HQContext:
    """Kernel-side state for one monitored process (section 3.3)."""

    pid: int
    #: Set by the verifier upon processing a SYSCALL message; reset by
    #: the kernel module when the system call resumes.
    syscall_ok: bool = False
    #: Statistics kept by the module.
    syscalls_intercepted: int = 0
    syscalls_waited: int = 0
    killed: bool = False
    #: Why the module killed this process: "policy violation",
    #: "synchronization epoch timeout", "verifier-terminated", or a
    #: fail-closed channel reason recorded by the runtime.
    kill_reason: Optional[str] = None

    def clone_for(self, child_pid: int) -> "HQContext":
        """Context for a fork/clone child (fresh synchronization state)."""
        return HQContext(pid=child_pid)


class HQKernelModule:
    """The ``hq.ko`` model: syscall interception + verifier liaison.

    ``verifier`` is a :class:`~repro.core.verifier.Verifier`, a
    :class:`~repro.core.shard_verifier.ShardedVerifier`, or either
    wrapped in a :class:`~repro.faults.verifier.FaultyVerifier`.  The
    module calls this surface of it and nothing else:

    * the barrier: ``poll(max_messages)`` (skipped while
      ``poll_budget`` is 0), ``terminated``, ``has_violation(pid)``,
      ``acknowledge_violation(pid)`` and ``consume_syscall_token(pid)``
      (true if a SYSCALL message from ``pid`` has been processed since
      the last consumption);
    * load and shard state: ``backlog_size()``, ``channels`` and
      ``shard_down_for(pid)``;
    * process events: ``register_process``, ``fork_process``,
      ``unregister_process``, and ``restart(live_pids)`` after a crash;
    * optionally ``maybe_restart(module)``, a restart policy of the
      verifier's own that replaces ``restart_budget``.

    The kernel↔verifier link is the privileged channel of Figure 1 and
    is not reachable from monitored programs.
    """

    #: Verifier polls allowed before the epoch expires and the program
    #: is presumed compromised (it stopped sending sync messages).
    DEFAULT_EPOCH_POLLS = 4
    #: Cost of one kernel↔verifier round trip, charged only when the
    #: kernel actually had to wait (the message usually arrives first).
    ROUND_TRIP_NS = 400.0
    #: Dynamic-interception overhead per monitored system call: the
    #: kprobe/tracepoint dispatch plus the per-process hash-table lookup
    #: (section 3.3; eliminating it is listed as future work in 5.3.3).
    INTERCEPT_NS = 40.0

    #: Observability hook (:class:`repro.obs.Observer`); wired per run
    #: by the framework, None means every emit site is one predicate.
    observer = None

    def __init__(self, verifier=None, epoch_polls: int = DEFAULT_EPOCH_POLLS,
                 kill_on_violation: bool = True,
                 sync_exempt_syscalls: Optional[Set[int]] = None,
                 force_round_trip: bool = False,
                 poll_budget: Optional[int] = None,
                 restart_budget: int = 0) -> None:
        self.verifier = verifier
        self.epoch_polls = epoch_polls
        #: Messages each barrier poll may dispatch; ``None`` dispatches
        #: everything received (a verifier that keeps up).  A bound
        #: models a slow verifier: tokens surface late, and the epoch
        #: budget decides how late is too late.  0 means the barrier
        #: does not poll at all: its checks read only what earlier
        #: polls produced.
        self.poll_budget = poll_budget
        #: Verifier restarts this module may still perform after a
        #: crash (section 3.4); each one condemns the pids whose
        #: in-flight messages were lost.  0 kills on verifier death.
        self.restart_budget = restart_budget
        self.kill_on_violation = kill_on_violation
        #: Ablation: the naive design of section 2.2 — a kernel↔verifier
        #: round trip on *every* system call, instead of pipelining the
        #: synchronization message with the syscall itself.
        self.force_round_trip = force_round_trip
        #: Syscalls exempt from synchronization (the RIPE experiments
        #: disable enforcement for execve, section 5.2).
        self.sync_exempt_syscalls = sync_exempt_syscalls or set()
        self.contexts: Dict[int, HQContext] = {}
        self.violations_seen: List[str] = []
        #: Optional per-barrier perturbation of the epoch budget
        #: (fault-injection hook: scheduling jitter on the epoch timer).
        self.epoch_jitter: Optional[Callable[[], int]] = None
        #: Successful verifier restarts mediated by this module.
        self.verifier_restarts = 0
        #: Optional :class:`AdmissionController`; ``None`` (the
        #: default) admits unconditionally — existing single-program
        #: runs are unaffected.
        self.admission: Optional[AdmissionController] = None

    # -- lifecycle ------------------------------------------------------------

    def validation_load(self) -> int:
        """Current validation load: undispatched messages everywhere.

        Channel occupancy (sent but not yet received by the verifier)
        plus the verifier's own backlog (received but not yet
        dispatched — rings and overflow in the sharded runtime).  The
        quantity the admission watermarks are expressed in.
        """
        verifier = self.verifier
        if verifier is None:
            return 0
        load = verifier.backlog_size()
        for channel in verifier.channels:
            load += channel.pending()
        return load

    def try_enable(self, process: Process, deferrals: int = 0,
                   load: Optional[int] = None) -> str:
        """Admission-controlled :meth:`enable`.

        Returns the verdict (``"admitted"`` / ``"deferred"`` /
        ``"shed"``); monitoring is enabled only on admission.  With no
        controller configured this is plain :meth:`enable` and always
        admits.  ``load`` overrides the instantaneous
        :meth:`validation_load` — callers that observe peak lag over a
        window (the traffic engine samples it at every syscall barrier)
        pass that instead, since an instantaneous reading taken between
        barriers understates pressure.
        """
        if self.admission is None:
            self.enable(process)
            return ADMIT
        if load is None:
            load = self.validation_load()
        verdict = self.admission.decide(load, deferrals)
        if verdict == ADMIT:
            self.enable(process)
        elif verdict == SHED and self.observer is not None:
            self.observer.session_shed()
        return verdict

    def enable(self, process: Process) -> HQContext:
        """A process enabled HerQules (step 1a of Figure 1)."""
        context = HQContext(pid=process.pid)
        self.contexts[process.pid] = context
        if self.verifier is not None:
            self.verifier.register_process(process.pid)
        return context

    def on_fork(self, parent_pid: int, child_pid: int) -> None:
        parent = self.contexts.get(parent_pid)
        if parent is not None:
            self.contexts[child_pid] = parent.clone_for(child_pid)
            if self.verifier is not None:
                self.verifier.fork_process(parent_pid, child_pid)

    def on_exit(self, pid: int) -> None:
        self.contexts.pop(pid, None)
        if self.verifier is not None:
            self.verifier.unregister_process(pid)

    def is_monitored(self, pid: int) -> bool:
        return pid in self.contexts

    # -- the barrier ------------------------------------------------------------

    def before_syscall(self, process: Process, number: int) -> None:
        """Pause the system call until the verifier confirms.

        Raises :class:`ProcessKilledError` on a policy violation or an
        epoch timeout.
        """
        context = self.contexts.get(process.pid)
        if context is None or self.verifier is None:
            return
        obs = self.observer
        if obs is not None:
            obs.kernel_syscalls.value += 1
        context.syscalls_intercepted += 1
        process.cycles.charge_wait(ns_to_cycles(self.INTERCEPT_NS))
        if self.force_round_trip:
            # Naive synchronization: ask the verifier and wait for its
            # answer, on the critical path of every system call.
            context.syscalls_waited += 1
            process.cycles.charge_wait(ns_to_cycles(self.ROUND_TRIP_NS))

        exempt = number in self.sync_exempt_syscalls
        budget = self.poll_budget
        for attempt in range(self._epoch_budget() + 1):
            # A dead verifier can never confirm anything: detect it
            # before *and* after the poll (the poll itself may observe
            # the crash) instead of burning the whole epoch budget and
            # reporting a misleading timeout.
            if self.verifier.terminated:
                self._verifier_down(process, context, number)
            if budget != 0:
                # A zero budget grants the verifier no time slice: the
                # checks below read what earlier slices produced.
                self.verifier.poll(budget)
                if self.verifier.terminated:
                    self._verifier_down(process, context, number)
            if shard_scoped_kill(self.verifier, process.pid):
                # Sharded runtime: *this pid's* verifier shard died.  The
                # kill is scoped — pids on surviving shards keep running —
                # but for the condemned pid the semantics are identical to
                # a whole-verifier loss: nobody can prove it innocent.
                self.violations_seen.append(
                    f"pid {process.pid}: verifier shard down "
                    f"at syscall {number}")
                self._kill(process, context, "verifier-terminated")
            if self.verifier.has_violation(process.pid):
                self.violations_seen.append(
                    f"pid {process.pid}: policy violation at syscall {number}")
                if self.kill_on_violation:
                    self._kill(process, context, "policy violation")
                # Continue-on-violation mode (performance runs): clear
                # the pending flag so execution proceeds.
                self.verifier.acknowledge_violation(process.pid)
            if exempt:
                if obs is not None:
                    obs.kernel_barrier(number, attempt,
                                       attempt * self.ROUND_TRIP_NS)
                return
            if self.verifier.consume_syscall_token(process.pid):
                context.syscall_ok = False  # reset upon resumption
                if obs is not None:
                    # ``attempt`` failed iterations each charged one
                    # round trip before the token arrived: that product
                    # is this barrier's wait time.
                    obs.kernel_barrier(number, attempt,
                                       attempt * self.ROUND_TRIP_NS)
                return
            # The sync message has not been processed yet: wait one
            # round trip and poll again.
            context.syscalls_waited += 1
            process.cycles.charge_wait(ns_to_cycles(self.ROUND_TRIP_NS))
        # Epoch expired without a synchronization message.
        self.violations_seen.append(
            f"pid {process.pid}: epoch timeout at syscall {number}")
        self._kill(process, context, "synchronization epoch timeout")

    def _epoch_budget(self) -> int:
        """Verifier polls granted to this barrier, jitter included."""
        budget = self.epoch_polls
        if self.epoch_jitter is not None:
            budget += int(self.epoch_jitter())
        return max(1, budget)

    def _verifier_down(self, process: Process, context: HQContext,
                       number: int) -> None:
        """The verifier terminated unexpectedly (section 3.4).

        A replacement verifier is brought up if the verifier's own
        restart policy (``maybe_restart``) grants one or, without such a
        policy, while ``restart_budget`` lasts; the restart
        conservatively kills pids whose messages were lost.  Otherwise
        the monitored program dies: a missing verifier must never mean
        unchecked execution.
        """
        maybe_restart = getattr(self.verifier, "maybe_restart", None)
        if maybe_restart is not None:
            restarted = maybe_restart(self)
        else:
            restarted = self.restart_budget > 0
            if restarted:
                self.restart_budget -= 1
                self.verifier.restart(sorted(self.contexts))
        if restarted:
            self.verifier_restarts += 1
            if self.observer is not None:
                self.observer.kernel_verifier_restart()
            return
        self.violations_seen.append(
            f"pid {process.pid}: verifier terminated at syscall {number}")
        self._kill(process, context, "verifier-terminated")

    def record_fail_closed(self, pid: int, reason: str) -> None:
        """Runtime notification: a send path failed closed for ``pid``.

        Mirrors the epoch-timeout bookkeeping so a channel-full kill is
        visible in the module's statistics, not just the exception.
        """
        context = self.contexts.get(pid)
        if context is not None:
            context.killed = True
            context.kill_reason = reason
        if self.observer is not None:
            self.observer.kernel_fail_closed_event(pid, reason)
        self.violations_seen.append(f"pid {pid}: {reason}")

    def _kill(self, process: Process, context: HQContext, reason: str) -> None:
        context.killed = True
        context.kill_reason = reason
        process.exited = True
        process.killed_reason = reason
        if self.observer is not None:
            self.observer.kernel_kill(process.pid, reason)
        raise ProcessKilledError(reason)


class Kernel:
    """The simulated operating system.

    Provides the system-call dispatcher passed to interpreters, process
    bookkeeping, and hosting for the HQ kernel module.
    """

    def __init__(self, hq_module: Optional[HQKernelModule] = None) -> None:
        self.hq = hq_module
        self.processes: Dict[int, Process] = {}
        #: Captured per-pid stdout words (SYS_WRITE payloads).
        self.stdout: Dict[int, List[int]] = {}
        #: Pids that executed the attack-marker syscall uninterrupted.
        self.win_executed: Set[int] = set()

    def attach(self, process: Process) -> None:
        self.processes[process.pid] = process
        self.stdout.setdefault(process.pid, [])

    def reap_process(self, pid: int) -> bool:
        """Drop an *exited* process's kernel bookkeeping.

        The long-churn counterpart of the verifier's epoch GC: a
        single-run experiment reads ``processes``/``stdout`` after the
        run, but a traffic soak cycling thousands of sessions must not
        retain every dead process forever.  ``win_executed`` is
        deliberately kept — it is the security verdict record, and a
        reaped attacker must stay on it.  Returns whether a process
        was reaped (alive pids are refused).
        """
        process = self.processes.get(pid)
        if process is None or not process.exited:
            return False
        del self.processes[pid]
        self.stdout.pop(pid, None)
        return True

    def syscall(self, process: Process, number: int, args: List[int]) -> int:
        """The dispatcher handed to :class:`repro.sim.cpu.Interpreter`."""
        if self.hq is not None and self.hq.is_monitored(process.pid):
            self.hq.before_syscall(process, number)
        return self._do_syscall(process, number, args)

    def _do_syscall(self, process: Process, number: int, args: List[int]) -> int:
        if number == SYS_EXIT:
            process.exited = True
            process.exit_status = args[0] if args else 0
            if self.hq is not None:
                self.hq.on_exit(process.pid)
            return 0
        if number == SYS_WRITE:
            if len(args) >= 2:
                self.stdout.setdefault(process.pid, []).append(args[1])
            return args[2] if len(args) > 2 else 8
        if number == SYS_READ:
            return 0
        if number == SYS_GETPID:
            return process.pid
        if number == SYS_FORK:
            child = Process(name=f"{process.name}-child")
            self.attach(child)
            if self.hq is not None:
                self.hq.on_fork(process.pid, child.pid)
            return child.pid
        if number == SYS_EXECVE:
            # Program replacement: model as success with no effect.
            return 0
        if number == SYS_WIN:
            # The attack suite's externally visible effect: reaching this
            # point means no defense stopped the exploit in time.
            self.win_executed.add(process.pid)
            return 0
        # Unknown syscalls succeed silently (ENOSYS would also be fine;
        # benchmarks only rely on the calls above).
        return 0
