"""The HerQules verifier process (section 3.4).

A user-space process that receives messages from monitored programs via
AppendWrite and is notified of process events by the kernel module over
a privileged channel.  It maintains a policy context per monitored pid,
dispatches each received message to the right context, records
violations, and hands syscall-synchronization tokens back to the kernel
module so paused system calls can resume.

In the real system the verifier runs concurrently on another core; here
the scheduler is cooperative — :meth:`poll` is the verifier's time
slice, invoked by the kernel at synchronization points and periodically
by the framework to model background draining.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.messages import (MESSAGE_WORDS, Message, Op, OP_BY_VALUE,
                                 OP_NAMES)
from repro.core.policy import Policy, PolicyStats, Violation
from repro.ipc.base import Channel, ChannelIntegrityError

_OP_SYSCALL = int(Op.SYSCALL)
_MASK32 = 0xFFFF_FFFF
#: Opcodes the wire codec knows.
_KNOWN_OPS = frozenset(OP_NAMES)
#: Where a word's low (opcode) half sits in a 32-bit view of a batch.
_OPCODE_HALF = 0 if sys.byteorder == "little" else 1


def check_stream(words: array, start: int = 0,
                 stop: Optional[int] = None) -> Tuple[int, Optional[str]]:
    """The stream-integrity rule: how much of ``words[start:stop]``, a
    message-aligned window of a received word batch, may be dispatched.

    Returns ``(end, detail)``: ``words[start:end]`` is whole messages
    with known opcodes, and ``detail`` is None when that is the whole
    window.  Otherwise ``detail`` is the message-integrity evidence
    that stops the window at ``end``:

    * a batch whose length is not a whole number of messages — a
      partial trailing message must be neither skipped nor decoded,
      so nothing of the batch passes (``end == start``);
    * the first message whose opcode the wire codec does not know —
      the messages before it pass, none after it.

    Verifier dispatch and the sharded coordinator's routing both apply
    this one rule.  The opcode scan reads a strided 32-bit view of the
    batch, so a clean window costs one C-level set probe per message.
    """
    n = len(words)
    if n % MESSAGE_WORDS:
        return start, (f"undecodable message stream: truncated message "
                       f"stream: {n} words is not a multiple of "
                       f"{MESSAGE_WORDS}")
    if stop is None:
        stop = n
    ops = memoryview(words).cast("B").cast("I")[
        2 * start + _OPCODE_HALF:2 * stop:2 * MESSAGE_WORDS]
    if not _KNOWN_OPS.issuperset(ops):
        for index, op in enumerate(ops):
            if op not in _KNOWN_OPS:
                return (start + index * MESSAGE_WORDS,
                        f"undecodable message stream: unknown opcode "
                        f"{op:#x}")
    return stop, None


class Verifier:
    """Policy-enforcement verifier.

    ``policy_factory`` creates a fresh policy context when a process
    registers.  The default configuration kills monitored programs on
    violation or unexpected verifier termination (section 3.4); the
    kill is carried out by the kernel module, which polls
    :meth:`has_violation`.

    The sharded coordinator (:mod:`repro.core.shard_verifier`) runs
    one instance per shard and drives it only through public
    operations — ``register_process``, ``condemn_live``,
    ``dispatch_words``, ``terminate`` and ``restart`` — so each
    fail-closed rule has one home, here.
    """

    #: Observability hook (:class:`repro.obs.Observer`); wired per run
    #: by the framework.  Kept on the *inner* verifier so fault-injection
    #: wrappers (which delegate ``poll``) are observed transparently.
    observer = None

    def __init__(self, policy_factory: Callable[[], Policy]) -> None:
        self._policy_factory = policy_factory
        self.channels: List[Channel] = []
        self.contexts: Dict[int, Policy] = {}
        self.stats: Dict[int, PolicyStats] = {}
        self.violations: Dict[int, List[Violation]] = {}
        self._pending_violation: Dict[int, bool] = {}
        self._syscall_tokens: Dict[int, int] = {}
        self.integrity_failures: List[str] = []
        self.terminated = False
        #: Word batches received from channels but not yet fully
        #: dispatched, oldest first; ``_offset`` is the read position in
        #: the first.  Only a :meth:`poll` with a processing limit
        #: (a slow verifier under backpressure) leaves anything here.
        #: ``_backlog_words`` is the total length of the queued batches,
        #: kept current wherever a batch joins or leaves the queue.
        self._backlog: Deque[array] = deque()
        self._backlog_words = 0
        self._offset = 0
        #: Times :meth:`restart` recovered this verifier after a crash.
        self.restarts = 0
        #: Epoch-based GC of per-pid reporting state.  ``None`` (the
        #: default) disables reclamation entirely — single-run
        #: experiments read ``stats``/``violations`` after the run and
        #: expect them to survive process exit.  Long-lived deployments
        #: (the traffic tier) set an integer N: a pid's surviving state
        #: is reclaimed once :meth:`advance_epoch` has been called N
        #: times after the pid unregistered, with its totals folded
        #: into the ``reclaimed_*`` aggregates so run-level reporting
        #: stays exact.
        self.gc_epochs: Optional[int] = None
        #: Current GC epoch (advanced only by :meth:`advance_epoch`).
        self.epoch = 0
        #: pid -> epoch at which it unregistered (GC-enabled only).
        self._exited_at: Dict[int, int] = {}
        #: Aggregates folded out of reclaimed per-pid state.
        self.reclaimed_pids = 0
        self.reclaimed_messages = 0
        self.reclaimed_violations = 0

    # -- channel plumbing -------------------------------------------------------

    def attach_channel(self, channel: Channel) -> None:
        """Start reading a monitored program's AppendWrite channel.

        One reader core iterates over all mapped AMRs (section 2.3.2),
        so a single verifier serves many channels.
        """
        self.channels.append(channel)

    # -- process lifecycle (privileged kernel channel) -----------------------------

    def register_process(self, pid: int,
                         context: Optional[Policy] = None) -> None:
        """Kernel notification: a process enabled HerQules (Figure 1,
        1b).  ``context`` is the policy context it starts with (a
        fork's clone of its parent's); None gives a fresh one."""
        self.contexts[pid] = (context if context is not None
                              else self._policy_factory())
        self.stats[pid] = PolicyStats()
        self.violations[pid] = []
        self._pending_violation[pid] = False
        self._syscall_tokens[pid] = 0
        if self._exited_at:
            # A recycled pid is a fresh process: it must not inherit a
            # pending reclamation from its predecessor's exit.
            self._exited_at.pop(pid, None)

    def fork_process(self, parent_pid: int, child_pid: int) -> None:
        """Kernel notification: copy the parent's policy context."""
        parent = self.contexts.get(parent_pid)
        self.register_process(child_pid,
                              parent.clone() if parent is not None else None)

    def unregister_process(self, pid: int) -> None:
        """Kernel notification: the process terminated.

        Live state — the policy context, the pending-violation flag,
        unconsumed syscall tokens — is dropped with the process;
        fork-heavy sweeps would otherwise grow those maps without
        bound.  Reporting history (``stats``, ``violations``) survives:
        it describes what already happened and is what the framework
        reads after the run.
        """
        self.contexts.pop(pid, None)
        self._pending_violation.pop(pid, None)
        self._syscall_tokens.pop(pid, None)
        if self.gc_epochs is not None:
            self._exited_at[pid] = self.epoch

    # -- epoch-based GC of reporting history --------------------------------

    def advance_epoch(self, observe: bool = True) -> List[int]:
        """Advance the GC epoch; reclaim state of long-exited pids.

        With ``gc_epochs = N``, a pid that unregistered in epoch E is
        reclaimed by the first :meth:`advance_epoch` call that moves the
        clock to E + N or beyond: its ``stats`` and ``violations``
        entries are dropped and their totals folded into the
        ``reclaimed_*`` aggregates (so :meth:`total_messages` and
        fleet-level violation counts remain exact).  The N-epoch grace
        window is what lets late barriers, restarts, and the framework's
        end-of-run reporting still read a recently-exited pid's history.
        Returns the sorted list of reclaimed pids; a no-op (beyond the
        clock tick) when GC is disabled.
        """
        self.epoch += 1
        retain = self.gc_epochs
        if retain is None or not self._exited_at:
            return []
        horizon = self.epoch - retain
        reclaimed = [pid for pid, exited in self._exited_at.items()
                     if exited <= horizon]
        for pid in reclaimed:
            del self._exited_at[pid]
            stats = self.stats.pop(pid, None)
            if stats is not None:
                self.reclaimed_messages += stats.messages_processed
            self.reclaimed_violations += len(self.violations.pop(pid, ()))
            # Live-state maps were already dropped at unregister; pop
            # defensively so a reclaim is total even after a restart
            # resurrected bookkeeping rows.
            self.contexts.pop(pid, None)
            self._pending_violation.pop(pid, None)
            self._syscall_tokens.pop(pid, None)
        if reclaimed:
            self.reclaimed_pids += len(reclaimed)
            if observe and self.observer is not None:
                self.observer.gc_reclaim(len(reclaimed),
                                         self.pid_table_size())
        return sorted(reclaimed)

    def pid_table_size(self) -> int:
        """Distinct pids with any per-pid state still held.

        The growth metric the traffic tier's leak gate watches: without
        GC this is monotone in the number of sessions ever seen; with
        GC it tracks the live working set.
        """
        pids = set(self.contexts)
        pids.update(self.stats)
        pids.update(self.violations)
        return len(pids)

    # -- the main loop --------------------------------------------------------------

    def poll(self, max_messages: Optional[int] = None) -> int:
        """Drain all channels and process pending messages.

        Returns the number of messages processed.  A transport
        integrity failure (dropped/tampered messages) is treated as a
        violation for every process on that channel.

        ``max_messages`` bounds the processing work of this time slice
        (a slow or overloaded verifier): channels are still drained —
        receive is cheap, policy evaluation is the bottleneck — but
        undispatched words stay in the backlog, in order, and are
        processed by later polls.  Syscall tokens therefore arrive late
        under backpressure, which is exactly what the kernel's bounded
        epoch absorbs (section 2.2).  Bounded and unbounded polls take
        the same path: the backlog is worked down first, then each
        channel's batch joins it and is dispatched with the budget left.
        """
        if self.terminated:
            return 0
        obs = self.observer
        poll_start = obs.now() if obs is not None else 0.0
        processed = self._drain(max_messages)
        for channel in self.channels:
            try:
                words = channel.receive_words()
            except ChannelIntegrityError as error:
                self._integrity_violation(str(error))
                continue
            if not words:
                continue
            if obs is not None:
                # The receive boundary sees every transport — wrapped
                # or not — so IPC batch metrics are emitted here.
                obs.ipc_batch(len(words) // MESSAGE_WORDS)
            self._backlog.append(words)
            self._backlog_words += len(words)
            processed += self._drain(None if max_messages is None
                                     else max_messages - processed)
        if obs is not None:
            obs.verifier_poll_event(processed, poll_start)
            obs.note_backlog(self.backlog_size())
        return processed

    def _drain(self, budget: Optional[int]) -> int:
        """Dispatch up to ``budget`` backlog messages (None: all), in
        order; returns how many were dispatched."""
        backlog = self._backlog
        processed = 0
        while backlog and (budget is None or processed < budget):
            words = backlog[0]
            start = self._offset
            stop = len(words) if budget is None else \
                min(len(words), start + (budget - processed) * MESSAGE_WORDS)
            done = self.dispatch_words(words, start, stop)
            processed += done
            start += done * MESSAGE_WORDS
            if start < stop or start == len(words):
                # Abandoned as corrupt, or fully dispatched.
                backlog.popleft()
                self._backlog_words -= len(words)
                start = 0
            self._offset = start
        return processed

    def backlog_size(self) -> int:
        """Messages received but not yet dispatched (backpressure)."""
        return (self._backlog_words - self._offset) // MESSAGE_WORDS

    def _integrity_violation(self, detail: str) -> None:
        """Transport integrity failure: violation for every live pid."""
        if self.observer is not None:
            self.observer.integrity_failure(detail)
        self.integrity_failures.append(detail)
        self.condemn_live("message-integrity", detail)

    def condemn_live(self, kind: str, detail: str) -> None:
        """Record a ``kind`` violation for every live pid (fail closed):
        evidence that indicts the whole stream, not one sender."""
        for pid in self.contexts:
            self._record_violation(Violation(pid, kind, detail))

    def dispatch_words(self, words: array, start: int = 0,
                       stop: Optional[int] = None) -> int:
        """Dispatch the messages in ``words[start:stop]``, one
        message-aligned window of a packed word batch; returns how many
        were dispatched.

        Consecutive same-pid runs share the per-pid lookups (context,
        handler table, stats) — channel streams are single-writer, so
        one resolution usually covers the whole window.  Per message
        the hot path is: opcode name, a call of the policy class's
        handler with the raw payload, inline stats update.  ``Message``
        objects exist only when a violation needs its evidence attached.

        A window that fails :func:`check_stream` — a batch that is not
        whole messages, or a message whose opcode the wire codec does
        not know — is message-integrity evidence: every live pid is
        marked violated (fail closed), exactly as if the transport had
        reported the corruption itself, and the batch is abandoned —
        the messages before the bad opcode are dispatched, none after
        it.  The caller can tell: the dispatched messages then end
        short of ``stop``.

        The per-message stats (processed count, entry high-water mark)
        accumulate in run-local variables and flush into
        :class:`PolicyStats` at run boundaries and on return — final
        stats are identical to per-message updates.
        """
        stop, fault = check_stream(words, start, stop)
        op_names = OP_NAMES
        op_by_value = OP_BY_VALUE
        contexts = self.contexts
        stats = self.stats
        tokens = self._syscall_tokens
        runs = 0          # distinct same-pid runs in this window
        current_pid = -1
        context: Optional[Policy] = None
        handlers = None
        st: Optional[PolicyStats] = None
        by_op = None
        sized = None
        run_mp = 0        # messages processed since the last flush
        run_max = -1      # entry-count high-water mark since the flush
        # One C-level iterator per word column: no index arithmetic or
        # bounds checks in the loop body.
        for w0, arg0, arg1, w3 in zip(words[start:stop:4],
                                      words[start + 1:stop:4],
                                      words[start + 2:stop:4],
                                      words[start + 3:stop:4]):
            pid = w0 >> 32
            if pid != current_pid:
                if run_mp:
                    st.messages_processed += run_mp
                    if run_max > st.max_entries:
                        st.max_entries = run_max
                    run_mp = 0
                    run_max = -1
                runs += 1
                current_pid = pid
                context = contexts.get(pid)
                handlers = context.HANDLERS if context is not None else None
                st = stats.get(pid)
                by_op = st.by_op if st is not None else None
                sized = (context.entries_ref()
                         if context is not None else None)
            op = w0 & _MASK32
            name = op_names[op]
            if op == _OP_SYSCALL:
                # All outstanding messages from this pid have been
                # processed (channel ordering): hand the kernel a
                # resume token.
                tokens[pid] = tokens.get(pid, 0) + 1
                if st is not None:
                    run_mp += 1
                    try:
                        by_op[name] += 1
                    except KeyError:
                        by_op[name] = 1
                    if sized is not None:
                        entries = len(sized)
                    else:
                        entries = (context.entry_count()
                                   if context is not None else 0)
                    if entries > run_max:
                        run_max = entries
                continue
            if context is None:
                # Message from an unregistered pid: ignore (cannot
                # happen with kernel-arbitrated channels).
                continue
            aux = w3 & _MASK32
            malformed = False
            handler = handlers.get(op)
            if handler is None:
                violation = None
            else:
                try:
                    violation = handler(context, arg0, arg1, aux)
                except Exception as error:
                    # A message the policy cannot even parse (corrupted
                    # in transit, or crafted) must not crash the
                    # verifier: a violation of the sender, fail closed.
                    violation = Violation(
                        pid, "malformed-message",
                        f"policy {getattr(context, 'name', '?')} "
                        f"raised {error!r} while handling "
                        f"{op_by_value[op]!r} (fail closed)")
                    malformed = True
            run_mp += 1
            try:
                by_op[name] += 1
            except KeyError:
                by_op[name] = 1
            entries = len(sized) if sized is not None \
                else context.entry_count()
            if entries > run_max:
                run_max = entries
            if violation is not None:
                st.violations += 1
                if not malformed:
                    violation.pid = pid
                    violation.message = Message(op_by_value[op], arg0,
                                                arg1, aux, pid, w3 >> 32)
                self._record_violation(violation)
        if run_mp:
            st.messages_processed += run_mp
            if run_max > st.max_entries:
                st.max_entries = run_max
        if fault is not None:
            # An abandoned batch's runs are not counted as dispatch runs.
            self._integrity_violation(fault)
        elif runs and self.observer is not None:
            self.observer.verifier_dispatch_runs.value += runs
        return (stop - start) // MESSAGE_WORDS

    def _record_violation(self, violation: Violation) -> None:
        if self.observer is not None:
            self.observer.violation(violation.pid, violation.kind)
        self.violations.setdefault(violation.pid, []).append(violation)
        self._pending_violation[violation.pid] = True

    # -- kernel-module interface ------------------------------------------------------

    def has_violation(self, pid: int) -> bool:
        """Whether an unacknowledged violation is pending for ``pid``."""
        return self._pending_violation.get(pid, False)

    def acknowledge_violation(self, pid: int) -> None:
        """Clear the pending flag (continue-on-violation mode)."""
        self._pending_violation[pid] = False

    def consume_syscall_token(self, pid: int) -> bool:
        """Consume one syscall-synchronization token, if available."""
        if self._syscall_tokens.get(pid, 0) > 0:
            self._syscall_tokens[pid] -= 1
            return True
        return False

    def has_syscall_token(self, pid: int) -> bool:
        """Non-consuming probe: would :meth:`consume_syscall_token`
        succeed?  Lets a scheduler decide whether a barrier can resume
        without perturbing the token count."""
        return self._syscall_tokens.get(pid, 0) > 0

    def shard_down_for(self, pid: int) -> bool:
        """One verifier has no shards to lose: never (the sharded
        runtime's answer is per pid, see ``ShardedVerifier``)."""
        return False

    # -- reporting -----------------------------------------------------------------------

    def all_violations(self, pid: int) -> List[Violation]:
        return list(self.violations.get(pid, []))

    def total_messages(self) -> int:
        return (sum(stats.messages_processed
                    for stats in self.stats.values())
                + self.reclaimed_messages)

    def terminate(self) -> None:
        """Unexpected verifier termination: monitored programs die too
        (section 3.4's default behaviour), modelled by the kernel seeing
        ``terminated`` and treating everything as violated."""
        self.terminated = True
        for pid in self._pending_violation:
            self._pending_violation[pid] = True

    # -- crash recovery ----------------------------------------------------------

    def restart(self, live_pids: Iterable[int],
                lost_pids: Iterable[int] = ()) -> List[int]:
        """Recover from an unexpected termination (section 3.4).

        A replacement verifier instance re-registers every pid the
        kernel module still tracks (``live_pids``, from its HQContext
        hash table) with a *fresh* policy context — the crashed
        instance's policy state is gone.  Channels are resynchronized:
        whatever was in flight at the crash is unrecoverable, so every
        pid that loses messages this way (plus any caller-supplied
        ``lost_pids``) is conservatively treated as violated and killed,
        never silently forgiven.  Returns the sorted list of
        conservatively-killed pids.

        Violation and statistics history survives the restart — it
        describes what already happened and is what the framework
        reports at the end of a run.

        Under pid churn, a pid that exited *between* the crash and the
        restart is neither condemned (it is not in ``live_pids``, so
        there is nothing left to kill — condemning it would double-count
        an already-finished session) nor resurrected (no bookkeeping
        rows are recreated for it, so GC reclamation proceeds on
        schedule).  Only pids the kernel still tracks can be killed.
        """
        live = set(live_pids)
        lost = set(lost_pids)
        for channel in self.channels:
            for message in channel.resync():
                lost.add(message.pid)
        start = self._offset
        for words in self._backlog:
            lost.update(w0 >> 32 for w0 in words[start::MESSAGE_WORDS])
            start = 0
        self._backlog.clear()
        self._backlog_words = 0
        self._offset = 0
        self.terminated = False
        self.restarts += 1
        self.contexts.clear()
        self._pending_violation = {}
        self._syscall_tokens = {}
        for pid in sorted(live):
            self.contexts[pid] = self._policy_factory()
            self.stats.setdefault(pid, PolicyStats())
            self.violations.setdefault(pid, [])
            self._pending_violation[pid] = False
            self._syscall_tokens[pid] = 0
        killed = sorted(lost & live)
        for pid in killed:
            self._record_violation(Violation(
                pid, "verifier-restart",
                "in-flight messages lost across verifier restart "
                "(fail closed)"))
        return killed
