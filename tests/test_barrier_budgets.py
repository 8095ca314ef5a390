"""The kernel module's poll and restart budgets, and the verifier's
running backlog count (repro.sim.kernel, repro.core.verifier).

The traffic engine hands ``HQKernelModule`` the real verifier; the
module bounds every barrier poll by ``poll_budget`` (a budget of 0
means no poll at all) and spends ``restart_budget`` on verifier
crashes.  ``Verifier.backlog_size`` reads a word count kept current
wherever a batch joins or leaves the backlog, and so does the sharded
coordinator's, from one such count per shard engine; the property
below compares each with a recount over the queued words, kept in this
file as the reference the counts replaced.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core import messages as msg
from repro.core.messages import MESSAGE_WORDS
from repro.core.shard_verifier import ShardedVerifier
from repro.core.verifier import Verifier
from repro.faults import FaultKind, FaultPlan, FaultyVerifier
from repro.ipc.appendwrite import AppendWriteUArch
from repro.ipc.registry import create_channel
from repro.sim.cpu import ProcessKilledError, SYS_EXECVE, SYS_WRITE
from repro.sim.kernel import HQKernelModule, Kernel, shard_scoped_kill
from repro.sim.process import Process
from repro.traffic import TrafficConfig, run_traffic
from repro.traffic.engine import TrafficEngine

#: An opcode the wire codec does not know: dispatch abandons its batch.
UNKNOWN_OPCODE = 0x7FFF_FFFF


def recount(verifier):
    """The brute-force reference: undispatched messages in the queued
    batches, past the read offset into the first — or, on the sharded
    coordinator, in every shard's ring and overflow."""
    if isinstance(verifier, ShardedVerifier):
        return sum(engine.ring.occupancy_words() + len(engine.overflow)
                   for engine in verifier.shards) // MESSAGE_WORDS
    return (sum(len(words) for words in verifier._backlog)
            - verifier._offset) // MESSAGE_WORDS


_OPS = st.one_of(
    st.tuples(st.just("send"), st.integers(min_value=1, max_value=6),
              st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("corrupt"), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("poll"),
              st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
              st.just(0)),
    st.tuples(st.just("crash"), st.integers(min_value=0, max_value=1),
              st.just(0)),
    st.tuples(st.just("restart"), st.just(0), st.just(0)),
)


_STALE_TAIL = [("send", 6, 0), ("poll", 1, 0), ("restart", 0, 0)]


@settings(max_examples=450, deadline=None)
@given(shards=st.sampled_from([None, 1, 2]),
       ops=st.lists(_OPS, max_size=30))
# A bounded drain refills the ring from the overflow after the
# consumer's last tail refresh; restart must discard those words too.
@example(shards=1, ops=_STALE_TAIL)
@example(shards=2, ops=_STALE_TAIL)
def test_backlog_count_matches_a_recount(shards, ops):
    """``shards`` picks the runtime: the plain verifier (None) or the
    sharded coordinator with small rings.  Each op's second field is a
    count, a budget or a shard; the third picks the sending process.
    A crash kills one shard of the coordinator, or the whole plain
    verifier; a restart must leave no backlog behind."""
    verifier = (Verifier(HQCFIPolicy) if shards is None else
                ShardedVerifier(HQCFIPolicy, shards, ring_capacity_words=16))
    channel = create_channel("model", capacity=1 << 12)
    verifier.attach_channel(channel)
    processes = [Process(), Process()]
    for process in processes:
        verifier.register_process(process.pid)
    try:
        for kind, arg, sender in ops:
            process = processes[sender]
            if kind == "send":
                for i in range(arg):
                    channel.send(process, msg.pointer_define(0x100 + i, i))
            elif kind == "corrupt":
                # ``arg`` valid messages ahead of the bad opcode in the
                # same batch: dispatch stops at it and drops the rest.
                for i in range(arg):
                    channel.send(process, msg.pointer_check(0x100 + i, i))
                channel.send_raw(process, UNKNOWN_OPCODE, 0, 0, 0)
                channel.send(process, msg.pointer_define(0x200, 1))
            elif kind == "poll":
                verifier.poll(arg)
            elif kind == "crash":
                if shards is None:
                    verifier.terminate()
                else:
                    verifier.crash_shard(arg)
            else:
                verifier.terminate()
                verifier.restart([process.pid for process in processes])
                assert verifier.backlog_size() == 0
            assert verifier.backlog_size() == recount(verifier)
        verifier.poll()
        if not verifier.terminated and not any(
                verifier.shard_down_for(process.pid)
                for process in processes):
            assert verifier.backlog_size() == 0
        assert verifier.backlog_size() == recount(verifier)
    finally:
        if shards is not None:
            verifier.close()


def _count_polls(verifier):
    """Spy on ``verifier.poll``: the returned list gains each call's
    budget (an instance attribute shadows the method)."""
    polls = []
    poll = verifier.poll

    def spy(max_messages=None):
        polls.append(max_messages)
        return poll(max_messages)

    verifier.poll = spy
    return polls


def _stack(verifier=None, **module_kwargs):
    verifier = verifier or Verifier(HQCFIPolicy)
    channel = AppendWriteUArch()
    verifier.attach_channel(channel)
    hq = HQKernelModule(verifier, **module_kwargs)
    kernel = Kernel(hq)
    process = Process()
    kernel.attach(process)
    hq.enable(process)
    return kernel, hq, verifier, channel, process


class TestPollBudget:
    def test_zero_budget_barrier_dispatches_nothing_and_times_out(self):
        kernel, hq, verifier, channel, process = _stack(poll_budget=0)
        polls = _count_polls(verifier)
        channel.send(process, msg.syscall_message(SYS_WRITE))
        with pytest.raises(ProcessKilledError):
            kernel.syscall(process, SYS_WRITE, [1, 2, 8])
        assert process.killed_reason == "synchronization epoch timeout"
        # A zero budget polls nothing: the sync message was never even
        # received, yet it still counts as validation load.
        assert polls == []
        assert channel.pending() == 1
        assert verifier.backlog_size() == 0
        assert hq.validation_load() == 1
        assert verifier.total_messages() == 0

    def test_unbounded_budget_resumes(self):
        kernel, hq, verifier, channel, process = _stack()
        assert hq.poll_budget is None
        channel.send(process, msg.syscall_message(SYS_WRITE))
        assert kernel.syscall(process, SYS_WRITE, [1, 2, 8]) == 8
        assert not process.exited
        assert verifier.backlog_size() == 0

    def test_budget_bounds_each_barrier_poll(self):
        kernel, hq, verifier, channel, process = _stack(poll_budget=2,
                                                        epoch_polls=8)
        for i in range(5):
            channel.send(process, msg.pointer_define(0x10 + i, i))
        channel.send(process, msg.syscall_message(SYS_WRITE))
        kernel.syscall(process, SYS_WRITE, [1, 2, 8])
        # Six messages at two per poll: the token surfaced on the third
        # poll, after two round-trip waits.
        assert hq.contexts[process.pid].syscalls_waited == 2
        assert verifier.total_messages() == 6


class TestRestartBudget:
    def test_budget_buys_exactly_k_restarts_then_kills(self):
        kernel, hq, verifier, channel, process = _stack(
            restart_budget=2, sync_exempt_syscalls={SYS_EXECVE})
        for _ in range(2):
            verifier.terminate()
            kernel.syscall(process, SYS_EXECVE, [])
        assert hq.verifier_restarts == verifier.restarts == 2
        assert hq.restart_budget == 0
        verifier.terminate()
        with pytest.raises(ProcessKilledError):
            kernel.syscall(process, SYS_EXECVE, [])
        assert process.killed_reason == "verifier-terminated"
        assert hq.verifier_restarts == verifier.restarts == 2

    def test_default_budget_kills_on_first_crash(self):
        kernel, hq, verifier, channel, process = _stack()
        verifier.terminate()
        channel.send(process, msg.syscall_message(SYS_WRITE))
        with pytest.raises(ProcessKilledError):
            kernel.syscall(process, SYS_WRITE, [1, 2, 8])
        assert process.killed_reason == "verifier-terminated"
        assert verifier.restarts == 0

    @pytest.mark.parametrize("kind", [FaultKind.VERIFIER_CRASH,
                                      FaultKind.VERIFIER_CRASH_RESTART])
    def test_faulty_verifier_policy_overrides_the_budget(self, kind):
        inner = Verifier(HQCFIPolicy)
        faulty = FaultyVerifier(inner, FaultPlan(
            7, [kind], scope="test", crash_poll_range=(1, 1)))
        kernel, hq, _, channel, process = _stack(
            faulty, restart_budget=3, sync_exempt_syscalls={SYS_EXECVE})
        granted = kind is FaultKind.VERIFIER_CRASH_RESTART
        if granted:
            kernel.syscall(process, SYS_EXECVE, [])   # crash, restarted
            inner.terminated = True                   # a second crash
        with pytest.raises(ProcessKilledError):
            kernel.syscall(process, SYS_EXECVE, [])
        assert process.killed_reason == "verifier-terminated"
        assert hq.verifier_restarts == inner.restarts == int(granted)
        assert hq.restart_budget == 3


@pytest.mark.parametrize("shards", [None, 4])
def test_traffic_soak_spends_the_restart_budget(shards):
    """Six crashes against a budget of four: four restarts, then the
    verifier stays down and live sessions die fail-closed."""
    crashes = tuple((10 * tick, "verifier-crash") for tick in range(2, 8))
    report = run_traffic(TrafficConfig(
        sessions=200, phases="warmup:20,steady:60,surge:80,drain:40",
        shards=shards, restart_budget=4, faults=crashes))
    totals = report["totals"]
    assert len(totals["faults_fired"]) == 6
    assert totals["verifier_restarts"] == 4
    assert totals["kill_reasons"].get("verifier-terminated", 0) > 0
    assert totals["attacks"]["escaped"] == totals["attacks"]["wins"] == 0
    assert report["leaks"] == {"pid_entries": 0, "kernel_processes": 0}


@pytest.mark.parametrize("shards", [None, 4])
def test_soak_resumes_barriers_with_empty_channels_and_no_poll(shards):
    """The invariant that makes the zero-budget skip verdict-neutral.

    A barrier the engine resumes after the tick's drain (not a
    last-chance one) runs at budget 0, so the kernel polls nothing.
    That poll could only have received channel words, and every channel
    is empty there: the drain received them all and no session sends
    before barrier resolution.  Faults make the resumed barriers include
    pending violations and post-restart ones.
    """
    engine = TrafficEngine(TrafficConfig(
        sessions=300, phases="warmup:20,steady:60,surge:80,drain:40",
        shards=shards, seed=3,
        faults=((60, "verifier-crash"), (120, "channel-corrupt"))))
    polls = _count_polls(engine.verifier)
    complete = engine._complete_barrier
    resumed = []

    def checked(session, last_chance=False):
        if not last_chance:
            assert [ch.pending() for ch in engine.verifier.channels] \
                == [0] * len(engine.verifier.channels)
            before = len(polls)
            complete(session)
            assert len(polls) == before, "a zero-budget barrier polled"
            resumed.append(session.outcome)
        else:
            complete(session, last_chance=True)

    engine._complete_barrier = checked
    report = engine.run()
    totals = report["totals"]
    assert len(totals["faults_fired"]) == 2
    assert totals["verifier_restarts"] >= 1
    assert totals["kill_reasons"].get("policy violation", 0) > 0
    assert len(resumed) > 1000 and "killed" in resumed
    assert totals["attacks"]["escaped"] == totals["attacks"]["wins"] == 0


def test_single_verifier_never_reports_a_shard_down():
    verifier = Verifier(HQCFIPolicy)
    verifier.register_process(41)
    verifier.terminate()
    assert verifier.shard_down_for(41) is False
    assert shard_scoped_kill(verifier, 41) is False
