"""Sharded verifier runtime: N verifiers behind one liaison surface.

PR 4 flattened the message path into packed 64-bit words so a single
verifier could batch-dispatch them; this module scales that design out.
Monitored pids are partitioned across N *shards* by the consistent-hash
:class:`~repro.core.sharding.ShardMap`; each shard owns a lock-free
:class:`~repro.ipc.spsc_ring.SpscRing` and an ordinary
:class:`~repro.core.verifier.Verifier` that drains it through the
existing batched ``_dispatch_words`` path.  Policy contexts are
per-pid, so per-pid FIFO (guaranteed by sticky routing) is the only
ordering verification needs — shards never talk to each other.

Two execution modes share the ring format and the dispatch path:

* :class:`ShardedVerifier` — the *inline coordinator*, a drop-in for
  :class:`Verifier` behind the kernel module's duck-typed liaison
  interface (``poll`` / ``has_violation`` / ``consume_syscall_token`` /
  ``terminated`` / ``restart``).  It routes each received word batch to
  the owning shard's ring and drains every live shard inside ``poll``,
  keeping runs deterministic (chaos replay, equivalence property
  tests) while exercising the real rings.
* :class:`ShardWorker` / :func:`shard_worker_main` — a real OS worker
  process per shard for the throughput bench and the torn-write tests:
  the parent publishes into the ring, the child free-runs a
  consume→dispatch loop and reports its results over a control pipe.

Failure semantics (the fail-closed story, scoped): a dead shard only
condemns *its own* pids.  :meth:`ShardedVerifier.crash_shard` marks the
shard down and records a ``shard-terminated`` violation for each pid it
owned; the kernel module's barrier asks :meth:`shard_down_for` and
kills exactly those pids with the usual ``verifier-terminated`` reason.
Pids on surviving shards keep running, their acks unaffected — the
barrier's effective epoch position is the minimum over live shards,
which is what :meth:`ack_epoch` reports.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.messages import MESSAGE_WORDS, OP_NAMES
from repro.core.policy import Policy, PolicyStats, Violation
from repro.core.sharding import ShardMap
from repro.core.verifier import Verifier
from repro.ipc.base import Channel, ChannelIntegrityError
from repro.ipc.spsc_ring import SpscRing

_MASK32 = 0xFFFF_FFFF

#: Default per-shard ring size (words; 32k words = 8k messages).
DEFAULT_RING_WORDS = 1 << 15


def resolve_policy(name: str) -> Callable[[], Policy]:
    """Policy factory by name — the spawn-safe currency of worker
    processes (callables don't cross a ``Pipe``; names do)."""
    from repro.cfi.hq_cfi import HQCFIPolicy
    from repro.policies.call_counter import CallCounterPolicy
    from repro.policies.dfi import DFIPolicy
    from repro.policies.memory_safety import MemorySafetyPolicy
    from repro.policies.taint import TaintPolicy
    from repro.policies.watchdog import WatchdogPolicy
    factories: Dict[str, Callable[[], Policy]] = {
        "hq-cfi": HQCFIPolicy,
        "memory-safety": MemorySafetyPolicy,
        "call-counter": CallCounterPolicy,
        "dfi": lambda: DFIPolicy({1: frozenset({0, 5})}),
        "taint": TaintPolicy,
        "watchdog": WatchdogPolicy,
    }
    if name not in factories:
        raise KeyError(f"unknown policy {name!r}; "
                       f"choose from {sorted(factories)}")
    return factories[name]


class ShardEngine:
    """One shard: a ring plus the verifier that drains it (inline mode).

    The ring and ``overflow`` together are this shard's backlog, the
    counterpart of :class:`Verifier`'s queue of received word batches:
    ``overflow`` buffers words that arrive while the ring is full and
    is refilled into the ring *after* the ring's own content, so
    per-pid order is preserved.  :meth:`drain` dispatches through the
    verifier's word path with the same message budget a bounded
    :meth:`Verifier.poll` takes.
    """

    def __init__(self, shard_id: int, verifier: Verifier,
                 ring: SpscRing) -> None:
        self.shard_id = shard_id
        self.verifier = verifier
        self.ring = ring
        self.alive = True
        self.overflow = array("Q")
        self.drained_total = 0

    def enqueue(self, words: array) -> None:
        """Accept a whole-message word batch routed to this shard."""
        if not self.alive:
            return  # a dead shard consumes nothing; its pids die anyway
        if self.overflow:
            self.overflow += words
            return
        published = self.ring.publish_words(words)
        if published < len(words):
            self.overflow += words[published:]

    def drain(self, max_messages: Optional[int] = None) -> int:
        """Consume and dispatch up to ``max_messages`` (None: all)."""
        if not self.alive:
            return 0
        verifier = self.verifier
        ring = self.ring
        processed = 0
        while True:
            budget = None if max_messages is None else \
                (max_messages - processed) * MESSAGE_WORDS
            if budget is not None and budget <= 0:
                break
            words = ring.consume_words(budget)
            if words:
                processed += verifier._dispatch_words(words)
                ring.ack(ring.consumed())
            if self.overflow:
                published = ring.publish_words(self.overflow)
                if published:
                    del self.overflow[:published]
                    continue
            if not words:
                break
        self.drained_total += processed
        return processed

    def backlog_messages(self) -> int:
        return (self.ring.occupancy_words() + len(self.overflow)) \
            // MESSAGE_WORDS


class ShardedVerifier:
    """Inline coordinator: the kernel-facing front of N verifier shards.

    Implements the full duck-typed liaison surface of
    :class:`Verifier` — ``run_program``, the kernel module, the fault
    injector, and the chaos runner all operate on it unchanged.
    Merged read-only views (``contexts`` / ``stats`` / ``violations`` /
    ``_syscall_tokens``) are computed on demand; pids are disjoint
    across shards by construction, so merging is collision-free.
    """

    def __init__(self, policy_factory: Callable[[], Policy],
                 num_shards: int, *,
                 ring_capacity_words: int = DEFAULT_RING_WORDS,
                 vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError("need at least one verifier shard")
        self._policy_factory = policy_factory
        self.shard_map = ShardMap(num_shards, vnodes)
        self.shards: List[ShardEngine] = [
            ShardEngine(i, Verifier(policy_factory),
                        SpscRing.create(capacity_words=ring_capacity_words))
            for i in range(num_shards)
        ]
        self.channels: List[Channel] = []
        self._pid_engine: Dict[int, ShardEngine] = {}
        #: Pids hash into the shard map *relative to the first pid this
        #: coordinator sees*.  Simulator pids are allocated from a
        #: process-global counter, so absolute values differ run to run
        #: while the offsets within one run are deterministic — relative
        #: hashing is what makes shard placement (and therefore chaos
        #: shard-crash verdicts) replayable.
        self._pid_base: Optional[int] = None
        self.integrity_failures: List[str] = []
        #: Integrity evidence found while routing; flushed after the
        #: pre-fault prefix has been dispatched, mirroring the order in
        #: which a single verifier records it.
        self._pending_integrity: List[str] = []
        self.terminated = False
        self.restarts = 0
        self._observer = None
        self._closed = False

    # -- observer propagation -----------------------------------------------

    @property
    def observer(self):
        return self._observer

    @observer.setter
    def observer(self, value) -> None:
        # Shard verifiers emit violations and dispatch runs; the
        # coordinator emits poll/batch/per-shard metrics.  Their polls
        # are never called, so nothing is double-counted.
        self._observer = value
        for engine in self.shards:
            engine.verifier.observer = value

    # -- channel plumbing ----------------------------------------------------

    def attach_channel(self, channel: Channel) -> None:
        self.channels.append(channel)

    # -- process lifecycle ---------------------------------------------------

    def _engine_for(self, pid: int) -> ShardEngine:
        engine = self._pid_engine.get(pid)
        if engine is None:
            if self._pid_base is None:
                self._pid_base = pid
            engine = self.shards[
                self.shard_map.assign(pid - self._pid_base)]
            self._pid_engine[pid] = engine
        return engine

    def shard_of(self, pid: int) -> int:
        """Which shard owns ``pid`` (assigning it if unseen)."""
        return self._engine_for(pid).shard_id

    def register_process(self, pid: int) -> None:
        self._engine_for(pid).verifier.register_process(pid)

    def fork_process(self, parent_pid: int, child_pid: int) -> None:
        """Copy the parent's policy context — possibly across shards.

        The child hashes independently, so its context clone may move
        to a different shard than the parent's; that is the one moment
        state crosses a shard boundary, and it happens in the
        coordinator (kernel-notification path), never between shards.
        """
        child = self._engine_for(child_pid).verifier
        parent_engine = self._pid_engine.get(parent_pid)
        parent_ctx = (parent_engine.verifier.contexts.get(parent_pid)
                      if parent_engine is not None else None)
        child.contexts[child_pid] = (parent_ctx.clone()
                                     if parent_ctx is not None
                                     else child._policy_factory())
        child.stats[child_pid] = PolicyStats()
        child.violations[child_pid] = []
        child._pending_violation[child_pid] = False
        child._syscall_tokens[child_pid] = 0

    def unregister_process(self, pid: int) -> None:
        engine = self._pid_engine.get(pid)
        if engine is not None:
            engine.verifier.unregister_process(pid)
        if self._pid_base is not None:
            self.shard_map.forget(pid - self._pid_base)

    # -- epoch-based GC ------------------------------------------------------

    @property
    def gc_epochs(self) -> Optional[int]:
        """Retention window, mirrored onto every shard verifier (see
        :attr:`Verifier.gc_epochs`).  ``None`` disables reclamation."""
        return self.shards[0].verifier.gc_epochs

    @gc_epochs.setter
    def gc_epochs(self, value: Optional[int]) -> None:
        for engine in self.shards:
            engine.verifier.gc_epochs = value

    @property
    def reclaimed_pids(self) -> int:
        return sum(e.verifier.reclaimed_pids for e in self.shards)

    @property
    def reclaimed_messages(self) -> int:
        return sum(e.verifier.reclaimed_messages for e in self.shards)

    @property
    def reclaimed_violations(self) -> int:
        return sum(e.verifier.reclaimed_violations for e in self.shards)

    def advance_epoch(self) -> List[int]:
        """Advance every shard's GC epoch in lockstep.

        Reclaimed pids also drop their routing entry in
        ``_pid_engine`` — the coordinator-side table that would
        otherwise grow monotonically under session churn.  Emits one
        aggregate ``gc_reclaim`` observation (shard emits suppressed)
        so the ``verifier.pid_table_size`` gauge reflects the whole
        coordinator.
        """
        reclaimed: List[int] = []
        for engine in self.shards:
            reclaimed.extend(engine.verifier.advance_epoch(observe=False))
        for pid in reclaimed:
            self._pid_engine.pop(pid, None)
        if reclaimed and self._observer is not None:
            self._observer.gc_reclaim(len(reclaimed),
                                      self.pid_table_size())
        return sorted(reclaimed)

    def pid_table_size(self) -> int:
        """Distinct pids with state on any shard (disjoint by routing)."""
        return sum(engine.verifier.pid_table_size()
                   for engine in self.shards)

    # -- the main loop -------------------------------------------------------

    def poll(self, max_messages: Optional[int] = None) -> int:
        """Route channel traffic to shard rings, then drain the shards.

        ``max_messages`` bounds total dispatch work across shards (the
        slow-verifier model); undrained words simply stay in the rings,
        which *are* the backlog here.
        """
        if self.terminated:
            return 0
        obs = self._observer
        start = obs.now() if obs is not None else 0.0
        for channel in self.channels:
            try:
                words = channel.receive_words()
            except ChannelIntegrityError as error:
                self._pending_integrity.append(str(error))
                continue
            if words:
                if obs is not None:
                    obs.ipc_batch(len(words) // MESSAGE_WORDS)
                self._route(words)
        processed = 0
        for engine in self.shards:
            if not engine.alive:
                continue
            remaining = None if max_messages is None \
                else max_messages - processed
            if remaining is not None and remaining <= 0:
                break
            occupancy = engine.ring.occupancy_words() // MESSAGE_WORDS
            drained = engine.drain(remaining)
            processed += drained
            if obs is not None and (drained or occupancy):
                obs.shard_drain(engine.shard_id, drained, occupancy)
        if self._pending_integrity:
            details, self._pending_integrity = self._pending_integrity, []
            for detail in details:
                self._integrity_violation(detail)
        if obs is not None:
            obs.verifier_poll_event(processed, start)
            obs.note_backlog(self.backlog_size())
        return processed

    def _route(self, words: array) -> None:
        """Split one word batch into per-pid runs and enqueue each.

        Fail-closed exactly like ``Verifier._dispatch_words``: a
        truncated batch dispatches nothing; an unknown opcode lets the
        pre-fault prefix through, then abandons the rest and (via the
        pending-integrity queue) condemns every live pid.
        """
        n = len(words)
        if n & (MESSAGE_WORDS - 1):
            self._pending_integrity.append(
                f"undecodable message stream: truncated message stream: "
                f"{n} words is not a multiple of 4")
            return
        op_names = OP_NAMES
        current_pid = -1
        engine: Optional[ShardEngine] = None
        run_start = 0
        for base in range(0, n, MESSAGE_WORDS):
            w0 = words[base]
            if (w0 & _MASK32) not in op_names:
                if engine is not None and base > run_start:
                    engine.enqueue(words[run_start:base])
                self._pending_integrity.append(
                    f"undecodable message stream: "
                    f"unknown opcode {w0 & _MASK32:#x}")
                return
            pid = w0 >> 32
            if pid != current_pid:
                if engine is not None and base > run_start:
                    engine.enqueue(words[run_start:base])
                run_start = base
                current_pid = pid
                engine = self._engine_for(pid)
        if engine is not None and n > run_start:
            engine.enqueue(words[run_start:n])

    def _integrity_violation(self, detail: str) -> None:
        """Transport integrity failure: violation for every live pid,
        on every shard — corruption on the shared channel indicts the
        whole stream, not one shard's slice of it."""
        if self._observer is not None:
            self._observer.integrity_failure(detail)
        self.integrity_failures.append(detail)
        for engine in self.shards:
            verifier = engine.verifier
            for pid in list(verifier.contexts):
                verifier._record_violation(
                    Violation(pid, "message-integrity", detail))

    # -- scoped shard failure ------------------------------------------------

    def crash_shard(self, pick: int) -> int:
        """Kill one shard (fault injection); returns its id.

        Only the dead shard's pids are condemned: each gets a
        ``shard-terminated`` violation on the record, and
        :meth:`shard_down_for` steers the kernel barrier to kill them
        with the standard ``verifier-terminated`` reason.  No pending
        flag is raised — surviving shards' pids are untouched.
        """
        engine = self.shards[pick % len(self.shards)]
        if not engine.alive:
            return engine.shard_id
        engine.alive = False
        pids = sorted(engine.verifier.contexts)
        for pid in pids:
            engine.verifier.violations.setdefault(pid, []).append(
                Violation(pid, "shard-terminated",
                          f"verifier shard {engine.shard_id} died; pid "
                          f"{pid} fail-closed (kill scoped to its shard)"))
        if self._observer is not None:
            self._observer.shard_down(engine.shard_id, len(pids))
        return engine.shard_id

    def shard_down_for(self, pid: int) -> bool:
        """Kernel-barrier query: is ``pid``'s shard dead?"""
        engine = self._pid_engine.get(pid)
        return engine is not None and not engine.alive

    def ack_epoch(self) -> int:
        """Aggregate ack position: min over live shards' acked words.

        A shard that lags holds the epoch back for everyone (the
        barrier cannot prove the laggard's pids innocent), which is the
        cost of the min-aggregation the kernel relies on.
        """
        live = [engine.ring.acked() for engine in self.shards
                if engine.alive]
        return min(live) if live else 0

    # -- kernel-module interface ---------------------------------------------

    def has_violation(self, pid: int) -> bool:
        engine = self._pid_engine.get(pid)
        return engine is not None and engine.verifier.has_violation(pid)

    def acknowledge_violation(self, pid: int) -> None:
        engine = self._pid_engine.get(pid)
        if engine is not None:
            engine.verifier.acknowledge_violation(pid)

    def consume_syscall_token(self, pid: int) -> bool:
        engine = self._pid_engine.get(pid)
        return (engine is not None
                and engine.verifier.consume_syscall_token(pid))

    def has_syscall_token(self, pid: int) -> bool:
        engine = self._pid_engine.get(pid)
        return (engine is not None
                and engine.verifier.has_syscall_token(pid))

    # -- merged views ---------------------------------------------------------

    @property
    def contexts(self) -> Dict[int, Policy]:
        merged: Dict[int, Policy] = {}
        for engine in self.shards:
            merged.update(engine.verifier.contexts)
        return merged

    @property
    def stats(self) -> Dict[int, PolicyStats]:
        merged: Dict[int, PolicyStats] = {}
        for engine in self.shards:
            merged.update(engine.verifier.stats)
        return merged

    @property
    def violations(self) -> Dict[int, List[Violation]]:
        merged: Dict[int, List[Violation]] = {}
        for engine in self.shards:
            merged.update(engine.verifier.violations)
        return merged

    @property
    def _syscall_tokens(self) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for engine in self.shards:
            merged.update(engine.verifier._syscall_tokens)
        return merged

    # -- reporting -------------------------------------------------------------

    def all_violations(self, pid: int) -> List[Violation]:
        engine = self._pid_engine.get(pid)
        if engine is not None:
            return engine.verifier.all_violations(pid)
        out: List[Violation] = []
        for shard in self.shards:
            out.extend(shard.verifier.all_violations(pid))
        return out

    def total_messages(self) -> int:
        return sum(engine.verifier.total_messages()
                   for engine in self.shards)

    def backlog_size(self) -> int:
        return sum(engine.backlog_messages() for engine in self.shards)

    def terminate(self) -> None:
        """Whole-coordinator termination (all shards at once)."""
        self.terminated = True
        for engine in self.shards:
            verifier = engine.verifier
            for pid in verifier._pending_violation:
                verifier._pending_violation[pid] = True

    # -- crash recovery --------------------------------------------------------

    def restart(self, live_pids: Iterable[int],
                lost_pids: Iterable[int] = ()) -> List[int]:
        """Replacement-coordinator bring-up, mirroring
        :meth:`Verifier.restart`: in-flight words (channel, rings,
        overflow) are unrecoverable and condemn their senders; live
        pids re-register with fresh policy contexts; stats and
        violation history survive.

        Like :meth:`Verifier.restart`, only pids still tracked by the
        kernel (``live_pids``) can be condemned: a pid that exited
        between crash and restart has in-flight words discarded with
        the rest, but no violation is recorded for it and — crucially
        here — no routing entry or bookkeeping row is resurrected for
        it, so epoch GC is not re-armed for a dead session."""
        live = set(live_pids)
        lost = set(lost_pids)
        for channel in self.channels:
            for message in channel.resync():
                lost.add(message.pid)
        for engine in self.shards:
            words = engine.ring.consume_words()
            for base in range(0, len(words), MESSAGE_WORDS):
                lost.add(words[base] >> 32)
            for base in range(0, len(engine.overflow), MESSAGE_WORDS):
                lost.add(engine.overflow[base] >> 32)
            del engine.overflow[:]
            engine.ring.ack(engine.ring.consumed())
            engine.alive = True
            verifier = engine.verifier
            verifier.terminated = False
            verifier.contexts.clear()
            verifier._pending_violation = {}
            verifier._syscall_tokens = {}
        self._pending_integrity = []
        self.terminated = False
        self.restarts += 1
        self._pid_engine = {}
        for pid in sorted(live):
            engine = self._engine_for(pid)
            verifier = engine.verifier
            verifier.contexts[pid] = verifier._policy_factory()
            verifier.stats.setdefault(pid, PolicyStats())
            verifier.violations.setdefault(pid, [])
            verifier._pending_violation[pid] = False
            verifier._syscall_tokens[pid] = 0
        killed = sorted(lost & live)
        for pid in killed:
            self._engine_for(pid).verifier._record_violation(Violation(
                pid, "verifier-restart",
                "in-flight messages lost across verifier restart "
                "(fail closed)"))
        return killed

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release every shard's ring segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for engine in self.shards:
            engine.ring.close()


# ---------------------------------------------------------------------------
# Real-process shard workers (the bench / torn-write test machinery)
# ---------------------------------------------------------------------------

#: Idle-loop backoff: spin this many empty polls (a fresh batch
#: usually lands within microseconds at bench rates), then sleep with
#: exponential backoff between these bounds.  The cap keeps worst-case
#: shutdown latency (stop flag observed) at ~2ms while an idle shard
#: costs ~500 wakeups/s instead of the old fixed 5000.
SPIN_POLLS = 64
SLEEP_MIN_S = 50e-6
SLEEP_MAX_S = 0.002


def shard_worker_main(ring_name: str, capacity_words: int,
                      policy_name: str, conn,
                      race: bool = False) -> None:
    """Worker-process entry: free-running consume→dispatch loop.

    Drains the ring through the standard ``Verifier._dispatch_words``
    path until the producer raises the stop flag and the ring is empty,
    then reports results over ``conn``.  ``busy_s`` accumulates
    ``time.process_time()`` only around non-empty consume+dispatch
    sections — the per-shard busy CPU time the bench's
    dedicated-core-per-shard throughput model is built on (idle spins
    and sleeps are the other core's problem, not this shard's).

    An empty poll spins (:data:`SPIN_POLLS` iterations), then backs off
    exponentially between :data:`SLEEP_MIN_S` and :data:`SLEEP_MAX_S`;
    any drained batch resets the backoff.  ``idle_polls`` in the report
    counts every empty poll, feeding the ``shard.{id}.idle_polls``
    observability counter parent-side.

    With ``race=True`` the consumer endpoint records its shared
    accesses through a :class:`~repro.mc.race.RingProbe` and ships the
    event log home in the report as ``race_events``, where the parent
    merges it with its producer-side log for happens-before checking.
    """
    ring = SpscRing.attach(ring_name, capacity_words)
    probe = None
    if race:
        from repro.mc.race import RingProbe
        probe = RingProbe()
        ring.attach_probe(probe)
    verifier = Verifier(resolve_policy(policy_name))
    busy_s = 0.0
    drained = 0
    batches = 0
    idle_polls = 0
    idle_streak = 0
    delay = 0.0

    def drain_once() -> bool:
        nonlocal busy_s, drained, batches
        t0 = time.process_time()
        words = ring.consume_words()
        if not words:
            return False
        verifier._dispatch_words(words)
        ring.ack(ring.consumed())
        busy_s += time.process_time() - t0
        drained += len(words) // MESSAGE_WORDS
        batches += 1
        return True

    try:
        while True:
            while conn.poll(0):
                command = conn.recv()
                kind = command[0]
                if kind == "register":
                    verifier.register_process(command[1])
                elif kind == "fork":
                    verifier.fork_process(command[1], command[2])
                elif kind == "unregister":
                    verifier.unregister_process(command[1])
            if drain_once():
                idle_streak = 0
                delay = 0.0
                continue
            if ring.stop_requested():
                # The stop flag was stored after the final publish, so
                # one more drain pass observes everything in flight.
                while drain_once():
                    pass
                break
            idle_polls += 1
            idle_streak += 1
            if idle_streak > SPIN_POLLS:
                delay = min(delay * 2 if delay else SLEEP_MIN_S,
                            SLEEP_MAX_S)
                time.sleep(delay)
        conn.send({
            "drained": drained,
            "batches": batches,
            "busy_s": busy_s,
            "idle_polls": idle_polls,
            "race_events": list(probe.events) if probe is not None else [],
            "violations": {pid: [(v.kind, v.detail) for v in violations]
                           for pid, violations in
                           verifier.violations.items() if violations},
            "stats": {pid: (s.messages_processed, s.violations,
                            s.max_entries, dict(s.by_op))
                      for pid, s in verifier.stats.items()},
            "tokens": dict(verifier._syscall_tokens),
            "entries": {pid: context.entry_count()
                        for pid, context in verifier.contexts.items()},
            "integrity": list(verifier.integrity_failures),
        })
    finally:
        ring.close()
        conn.close()


class ShardWorker:
    """Parent-side handle on one real shard worker process."""

    def __init__(self, shard_id: int, policy_name: str,
                 capacity_words: int = 1 << 16,
                 race: bool = False) -> None:
        import multiprocessing
        self.shard_id = shard_id
        self.capacity_words = capacity_words
        self.ring = SpscRing.create(capacity_words=capacity_words)
        #: Optional Observer; when set, ``stop()`` emits the worker's
        #: ``shard.{id}.idle_polls`` counter.
        self.observer = None
        self._probe = None
        if race:
            from repro.mc.race import RingProbe
            self._probe = RingProbe()
            self.ring.attach_probe(self._probe)
        self._conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=shard_worker_main,
            args=(self.ring.name, capacity_words, policy_name, child_conn,
                  race),
            daemon=True)
        self.process.start()
        child_conn.close()

    def register(self, pid: int) -> None:
        self._conn.send(("register", pid))

    def publish(self, words, start: int = 0) -> int:
        return self.ring.publish_words(words, start)

    def stop(self, timeout: float = 120.0) -> Optional[dict]:
        """Signal shutdown and collect the worker's report (None on
        timeout — the caller decides whether that is a test failure)."""
        self.ring.request_stop()
        report = self._conn.recv() if self._conn.poll(timeout) else None
        self.process.join(timeout=10.0)
        if report is not None and self.observer is not None:
            self.observer.shard_idle_polls(self.shard_id,
                                           report.get("idle_polls", 0))
        return report

    def check_races(self, report: Optional[dict]) -> List[str]:
        """Merge this side's producer log with the worker's consumer
        log (``race_events`` in the report) and run happens-before
        checking; returns the flagged races (empty = provably clean
        *for this execution*)."""
        if self._probe is None or report is None:
            return []
        from repro.mc.race import RaceDetector
        detector = RaceDetector()
        detector.feed_logs({"producer": list(self._probe.events),
                            "consumer": list(report.get("race_events", []))})
        return [str(race) for race in detector.races]

    def kill(self) -> None:
        """SIGKILL the worker mid-drain (chaos / leak regression tests)."""
        self.process.kill()
        self.process.join(timeout=10.0)

    def close(self) -> None:
        if self.process.is_alive():
            self.kill()
        self.ring.close()
        self._conn.close()
