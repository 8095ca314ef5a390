"""Sharded verifier runtime tests: consistent-hash shard map,
coordinator equivalence with the single verifier (all six policies),
scoped shard-death semantics, chaos coverage, restart fail-closed, and
per-shard observability.

The load-bearing invariant is that sharding is a *throughput*
structure, not a semantic one: for any message stream, the merged
outcome of N shards must be indistinguishable from one verifier
dispatching the same words.
"""

import json
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import chaos
from repro.bench.msgpath import _cfi_stream, _policy_factories
from repro.bench.sharding import pack_stream
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.chaos import OK_VERDICTS, run_case
from repro.core.framework import run_program
from repro.core.messages import MESSAGE_WORDS, Op
from repro.core.shard_verifier import ShardedVerifier, resolve_policy
from repro.core.sharding import ShardMap, movement_fraction
from repro.core.verifier import Verifier
from repro.faults import FaultKind
from repro.workloads import webserver

_EMPTY = array("Q")


class _StubChannel:
    """Minimal channel surface the coordinator's poll/restart touch."""

    def __init__(self):
        self._batches = []

    def push(self, words) -> None:
        self._batches.append(array("Q", words))

    def receive_words(self) -> array:
        if self._batches:
            return self._batches.pop(0)
        return _EMPTY[:]

    def resync(self):
        return []


# ---------------------------------------------------------------------------
# ShardMap: the consistent-hash pid partition
# ---------------------------------------------------------------------------

class TestShardMap:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        with pytest.raises(ValueError):
            ShardMap(2, vnodes=0)

    def test_assignment_is_deterministic_across_instances(self):
        first = ShardMap(4)
        second = ShardMap(4)
        assert [first.assign(pid) for pid in range(256)] == \
            [second.assign(pid) for pid in range(256)]

    def test_assignment_is_sticky(self):
        shard_map = ShardMap(8)
        assigned = {pid: shard_map.assign(pid) for pid in range(64)}
        for pid, shard in assigned.items():
            assert shard_map.assign(pid) == shard

    def test_forget_drops_the_affinity(self):
        shard_map = ShardMap(4)
        shard = shard_map.assign(7)
        assert 7 in shard_map.pids_on(shard)
        shard_map.forget(7)
        assert 7 not in shard_map.pids_on(shard)
        shard_map.forget(7)  # idempotent

    def test_pids_on_partitions_the_assigned_pids(self):
        shard_map = ShardMap(4)
        pids = list(range(100))
        for pid in pids:
            shard_map.assign(pid)
        seen = []
        for shard in range(len(shard_map)):
            seen.extend(shard_map.pids_on(shard))
        assert sorted(seen) == pids

    def test_balance_with_many_pids(self):
        """No shard hogs the pid space (the bench's scaling ceiling)."""
        for shards in (2, 4, 8):
            shard_map = ShardMap(shards)
            counts = [0] * shards
            for pid in range(512):
                counts[shard_map.assign(pid)] += 1
            assert min(counts) > 0
            # 64 vnodes keeps the worst shard well under twice its
            # fair share for a realistic pid population.
            assert max(counts) / 512 < 2.0 / shards

    def test_resize_moves_a_minority_of_pids(self):
        """N -> N+1 shards relocates roughly 1/(N+1) of the pid space,
        never a wholesale reshuffle (the consistent-hashing point)."""
        pids = range(500)
        before = ShardMap(4)
        after = ShardMap(5)
        moved = sum(1 for pid in pids
                    if before.assign(pid) != after.assign(pid))
        assert moved / 500 < 0.40
        assert moved > 0  # the new shard did take ownership of some

    @settings(max_examples=30, deadline=None)
    @given(num_shards=st.integers(min_value=2, max_value=12),
           pid_base=st.integers(min_value=0, max_value=1 << 30))
    def test_resize_movement_bound_property(self, num_shards, pid_base):
        """The ~1/(N+1) movement promise, pinned as a property: for any
        fleet size and any pid population, growing N -> N+1 moves a
        fraction of pids near 1/(N+1) — bounded by 3x to absorb vnode
        placement variance — and shrinking is symmetric."""
        pids = range(pid_base, pid_base + 400)
        expected = 1 / (num_shards + 1)
        grow = movement_fraction(num_shards, num_shards + 1, pids)
        assert 0 < grow < min(1.0, 3.0 * expected)
        assert movement_fraction(num_shards + 1, num_shards, pids) == grow

    def test_movement_fraction_identity_and_empty(self):
        assert movement_fraction(4, 4, range(100)) == 0.0
        assert movement_fraction(4, 5, []) == 0.0


# ---------------------------------------------------------------------------
# Coordinator equivalence: N shards == one verifier, every policy
# ---------------------------------------------------------------------------

POLICY_NAMES = sorted(_policy_factories())


def _owner(verifier, pid):
    """The ``Verifier`` that holds ``pid``'s state: ``verifier`` itself,
    or the coordinator's shard that owns ``pid``."""
    if isinstance(verifier, ShardedVerifier):
        return verifier.shards[verifier.shard_of(pid)].verifier
    return verifier


def _fingerprint(verifier, pid):
    stats = verifier.stats[pid]
    context = verifier.contexts.get(pid)
    return (
        [(v.kind, v.detail) for v in verifier.violations.get(pid, [])],
        stats.messages_processed, stats.violations, stats.max_entries,
        dict(stats.by_op),
        _owner(verifier, pid)._syscall_tokens.get(pid, 0),
        context.entry_count() if context is not None else None,
        list(verifier.integrity_failures),
    )


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sharded_poll_equivalent_to_single_dispatch(policy_name, data):
    """Interleaved multi-pid traffic through the sharded coordinator
    must leave every pid in exactly the state one verifier reaches."""
    factory, stream_fn = _policy_factories()[policy_name]
    pids = [50, 51, 52]
    streams = {}
    for pid in pids:
        messages = data.draw(st.integers(min_value=1, max_value=60))
        events = stream_fn(messages)
        if data.draw(st.booleans()):
            index = data.draw(st.integers(0, len(events) - 1))
            op, arg0, arg1, aux = events[index]
            events[index] = (op, arg0, arg1 ^ 0xFFF, aux)
        streams[pid] = pack_stream(pid, events)

    # Interleave per-pid chunks into shared batches (per-pid order is
    # preserved; cross-pid order is arbitrary, as on a real channel).
    cursors = {pid: 0 for pid in pids}
    batches = []
    while any(cursors[pid] < len(streams[pid]) for pid in pids):
        batch = array("Q")
        for pid in pids:
            start = cursors[pid]
            if start >= len(streams[pid]):
                continue
            take = data.draw(st.integers(min_value=1, max_value=8)) \
                * MESSAGE_WORDS
            end = min(len(streams[pid]), start + take)
            batch += streams[pid][start:end]
            cursors[pid] = end
        batches.append(batch)

    single = Verifier(factory)
    for pid in pids:
        single.register_process(pid)
    for batch in batches:
        single.dispatch_words(batch)

    sharded = ShardedVerifier(factory, 3, ring_capacity_words=64)
    channel = _StubChannel()
    sharded.attach_channel(channel)
    try:
        for pid in pids:
            sharded.register_process(pid)
        for batch in batches:
            channel.push(batch)
            sharded.poll()
        sharded.poll()  # drain any ring/overflow residue
        assert sharded.backlog_size() == 0
        for pid in pids:
            assert _fingerprint(sharded, pid) == _fingerprint(single, pid)
        assert sharded.total_messages() == single.total_messages()
    finally:
        sharded.close()


def test_unknown_opcode_fails_closed_identically():
    """A batch with an undecodable message condemns every live pid on
    both runtimes, with the same integrity detail."""
    pids = [10, 11]
    good = pack_stream(10, _cfi_stream(5))
    poison = pack_stream(11, _cfi_stream(3))
    poison[1 * MESSAGE_WORDS] = 0xDEAD | (11 << 32)  # unknown opcode
    batch = good + poison

    single = Verifier(HQCFIPolicy)
    for pid in pids:
        single.register_process(pid)
    single.dispatch_words(batch)

    sharded = ShardedVerifier(HQCFIPolicy, 3, ring_capacity_words=64)
    channel = _StubChannel()
    sharded.attach_channel(channel)
    try:
        for pid in pids:
            sharded.register_process(pid)
        channel.push(batch)
        sharded.poll()
        assert sharded.integrity_failures == single.integrity_failures
        assert "unknown opcode" in sharded.integrity_failures[0]
        for pid in pids:
            assert _fingerprint(sharded, pid) == _fingerprint(single, pid)
            assert sharded.has_violation(pid)
    finally:
        sharded.close()


def test_truncated_batch_fails_closed_identically():
    batch = pack_stream(10, _cfi_stream(4))[:-1]  # not a multiple of 4

    single = Verifier(HQCFIPolicy)
    single.register_process(10)
    single.dispatch_words(batch)

    sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=64)
    channel = _StubChannel()
    sharded.attach_channel(channel)
    try:
        sharded.register_process(10)
        channel.push(batch)
        sharded.poll()
        assert sharded.integrity_failures == single.integrity_failures
        assert "truncated" in sharded.integrity_failures[0]
        assert _fingerprint(sharded, 10) == _fingerprint(single, 10)
        # Nothing was dispatched: truncation is detected before routing.
        assert sharded.total_messages() == single.total_messages() == 0
    finally:
        sharded.close()


def _runtimes(shards=2, ring_capacity_words=64):
    """The two verifier runtimes a test may run a script on: a plain
    ``Verifier`` and the sharded coordinator."""
    return [
        pytest.param(lambda: Verifier(HQCFIPolicy), id="verifier"),
        pytest.param(lambda: ShardedVerifier(
            HQCFIPolicy, shards, ring_capacity_words=ring_capacity_words),
            id="sharded"),
    ]


def _close(verifier):
    close = getattr(verifier, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("make", _runtimes())
def test_pointer_block_move_dispatch(make):
    """Pointer-Block-Move moves the tracked pointer: a check at the
    destination passes, a check at the vacated source fails."""
    verifier = make()
    channel = _StubChannel()
    verifier.attach_channel(channel)
    try:
        verifier.register_process(40)
        channel.push(pack_stream(40, [
            (int(Op.POINTER_DEFINE), 0x100, 7, 0),
            (int(Op.POINTER_BLOCK_MOVE), 0x100, 0x200, 8),
            (int(Op.POINTER_CHECK), 0x200, 7, 0),
            (int(Op.POINTER_CHECK), 0x100, 7, 0),
        ]))
        assert verifier.poll() == 4
        violations = verifier.violations[40]
        assert [v.kind for v in violations] == ["cfi-pointer-integrity"]
        assert violations[0].message.op == Op.POINTER_CHECK
        assert violations[0].message.arg0 == 0x100
        assert violations[0].message.counter == 4
        assert verifier.stats[40].by_op["POINTER_BLOCK_MOVE"] == 1
    finally:
        _close(verifier)


# ---------------------------------------------------------------------------
# End-to-end identity: run_program(shards=N) == run_program()
# ---------------------------------------------------------------------------

class TestRunProgramIdentity:
    @pytest.mark.parametrize("workload", ["webserver", "forker"])
    def test_sharded_run_matches_single_verifier(self, workload):
        factory, pre_run = chaos.WORKLOADS[workload]
        plain = run_program(factory(), channel="model", pre_run=pre_run)
        sharded = run_program(factory(), channel="model", pre_run=pre_run,
                              shards=3)
        assert sharded.outcome == plain.outcome
        assert sharded.exit_status == plain.exit_status
        assert sharded.detail == plain.detail
        assert sharded.output == plain.output
        assert sharded.messages_sent == plain.messages_sent
        assert sharded.max_entries == plain.max_entries
        assert [(v.pid, v.kind) for v in sharded.violations] == \
            [(v.pid, v.kind) for v in plain.violations]

    def test_continue_mode_matches_single_verifier(self):
        """Continue-after-violation over two shards: each violation is
        acknowledged on the sender's shard and the run goes on exactly
        as it does on one verifier."""
        trace = webserver.exploit_trace(8)

        def serve(shards):
            return run_program(
                webserver.build_server(max_requests=len(trace)),
                channel="model", kill_on_violation=False, shards=shards,
                pre_run=lambda image, interp: webserver.plant_trace(
                    image, trace))

        plain, sharded = serve(None), serve(2)
        assert plain.violations
        assert (sharded.outcome, sharded.exit_status, sharded.output,
                sharded.messages_sent) == \
            (plain.outcome, plain.exit_status, plain.output,
             plain.messages_sent)
        assert [(v.kind, v.detail) for v in sharded.violations] == \
            [(v.kind, v.detail) for v in plain.violations]

    def test_shards_one_is_the_plain_verifier(self):
        factory, pre_run = chaos.WORKLOADS["webserver"]
        result = run_program(factory(), channel="model", pre_run=pre_run,
                             shards=1)
        assert result.ok


class TestVerifierInterface:
    """A ShardedVerifier stands in for a Verifier: the knobs set on it
    read back, and reach every shard."""

    def test_observer_and_gc_window_read_back(self):
        from repro.obs.observer import Observer
        sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=64)
        try:
            observer = Observer()
            sharded.observer = observer
            sharded.gc_epochs = 3
            assert sharded.observer is observer
            assert sharded.gc_epochs == 3
            assert [e.verifier.gc_epochs for e in sharded.shards] == [3, 3]
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Scoped shard death
# ---------------------------------------------------------------------------

def _pids_on_two_shards(sharded, start=100):
    """First two registered pids that land on different shards."""
    pid = start
    sharded.register_process(pid)
    first = (pid, sharded.shard_of(pid))
    while True:
        pid += 1
        sharded.register_process(pid)
        if sharded.shard_of(pid) != first[1]:
            return first, (pid, sharded.shard_of(pid))


class TestShardDeath:
    def test_crash_condemns_only_the_dead_shards_pids(self):
        sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=64)
        try:
            (pid_a, shard_a), (pid_b, shard_b) = \
                _pids_on_two_shards(sharded)
            dead = sharded.crash_shard(shard_a)
            assert dead == shard_a
            assert sharded.shard_down_for(pid_a)
            assert not sharded.shard_down_for(pid_b)
            kinds_a = [v.kind for v in sharded.violations[pid_a]]
            assert "shard-terminated" in kinds_a
            assert sharded.violations[pid_b] == []
            # The condemned pid is flagged via the shard-down barrier
            # query, not the pending-violation path: the kernel kills
            # it with the standard verifier-terminated reason.
            assert not sharded.has_violation(pid_a)
        finally:
            sharded.close()

    def test_crash_is_idempotent(self):
        sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=64)
        try:
            sharded.register_process(100)
            shard = sharded.shard_of(100)
            assert sharded.crash_shard(shard) == shard
            before = list(sharded.violations.get(100, []))
            assert sharded.crash_shard(shard) == shard
            assert list(sharded.violations.get(100, [])) == before
        finally:
            sharded.close()

    def test_surviving_shard_keeps_draining_after_crash(self):
        sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=256)
        channel = _StubChannel()
        sharded.attach_channel(channel)
        try:
            (pid_a, shard_a), (pid_b, _) = _pids_on_two_shards(sharded)
            sharded.crash_shard(shard_a)
            channel.push(pack_stream(pid_b, _cfi_stream(6)))
            sharded.poll()
            assert sharded.stats[pid_b].messages_processed == 6
            assert not sharded.has_violation(pid_b)
        finally:
            sharded.close()

    def test_ack_epoch_is_min_over_live_shards(self):
        sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=256)
        channel = _StubChannel()
        sharded.attach_channel(channel)
        try:
            (pid_a, shard_a), (pid_b, shard_b) = \
                _pids_on_two_shards(sharded)
            # Traffic on shard_b only: the idle shard pins the epoch.
            channel.push(pack_stream(pid_b, _cfi_stream(4)))
            sharded.poll()
            acked_b = sharded.shards[shard_b].ring.acked()
            assert acked_b > 0
            assert sharded.ack_epoch() == 0
            # Once the laggard dies, the epoch is the survivor's.
            sharded.crash_shard(shard_a)
            assert sharded.ack_epoch() == acked_b
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Restart: ring-resident words condemn their senders
# ---------------------------------------------------------------------------

class TestRestart:
    def test_restart_condemns_ring_resident_senders(self):
        sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=256)
        channel = _StubChannel()
        sharded.attach_channel(channel)
        try:
            (pid_a, _), (pid_b, _) = _pids_on_two_shards(sharded)
            channel.push(pack_stream(pid_a, _cfi_stream(3)))
            # poll(0) routes channel words into the rings but drains
            # nothing: the replacement coordinator finds them in flight.
            sharded.poll(max_messages=0)
            assert sharded.backlog_size() > 0
            killed = sharded.restart(live_pids=[pid_a, pid_b])
            assert killed == [pid_a]
            kinds = [v.kind for v in sharded.violations[pid_a]]
            assert "verifier-restart" in kinds
            assert sharded.backlog_size() == 0
            assert sharded.restarts == 1
            # Both live pids run again with fresh contexts.
            channel.push(pack_stream(pid_b, _cfi_stream(2)))
            sharded.poll()
            assert sharded.stats[pid_b].messages_processed == 2
        finally:
            sharded.close()

    def test_restart_revives_crashed_shards(self):
        sharded = ShardedVerifier(HQCFIPolicy, 2, ring_capacity_words=64)
        try:
            sharded.register_process(100)
            shard = sharded.shard_of(100)
            sharded.crash_shard(shard)
            assert sharded.shard_down_for(100)
            sharded.restart(live_pids=[100])
            assert not sharded.shard_down_for(100)
            assert all(engine.alive for engine in sharded.shards)
        finally:
            sharded.close()

    @pytest.mark.parametrize("make", _runtimes(shards=1,
                                               ring_capacity_words=256))
    def test_restart_condemns_words_past_a_stale_cached_tail(self, make):
        """Words published to a ring after the consumer last refreshed
        its cached tail are in flight too: restart condemns their
        sender and leaves nothing for the fresh contexts to dispatch."""
        verifier = make()
        channel = _StubChannel()
        verifier.attach_channel(channel)
        try:
            for pid in (100, 101):
                verifier.register_process(pid)
            channel.push(pack_stream(100, _cfi_stream(4)))
            verifier.poll(1)
            channel.push(pack_stream(101, _cfi_stream(3)))
            verifier.poll(0)
            assert verifier.restart([100, 101]) == [100, 101]
            assert verifier.backlog_size() == 0
            assert verifier.poll() == 0
        finally:
            _close(verifier)

    @pytest.mark.parametrize("make", _runtimes())
    def test_fork_into_a_recycled_pid_cancels_its_reclamation(self, make):
        """A fork that reuses an exited pid is a live process: epoch GC
        must not reclaim it on the predecessor's schedule."""
        verifier = make()
        try:
            verifier.gc_epochs = 1
            verifier.register_process(100)
            verifier.register_process(200)
            verifier.unregister_process(100)
            verifier.fork_process(200, 100)
            verifier.advance_epoch()
            verifier.advance_epoch()
            assert 100 in verifier.contexts
            assert verifier.reclaimed_pids == 0
        finally:
            _close(verifier)


# ---------------------------------------------------------------------------
# Chaos: the shard-crash fault stays scoped and never hangs
# ---------------------------------------------------------------------------

class TestChaosShardCrash:
    def test_shard_crash_sweep_is_scoped_and_fail_closed(self):
        records = [run_case("webserver", "model", FaultKind.SHARD_CRASH,
                            seed) for seed in range(3)]
        for record in records:
            assert record.verdict in OK_VERDICTS, record
            assert record.mis_scoped_kills == 0, record
        # The fault actually fired somewhere in the sweep.
        assert any(record.shard_crashes for record in records)

    def test_shard_crash_with_forked_children(self):
        record = run_case("forker", "model", FaultKind.SHARD_CRASH, 0)
        assert record.verdict in OK_VERDICTS, record
        assert record.mis_scoped_kills == 0


# ---------------------------------------------------------------------------
# Observability: per-shard metrics appear only on sharded runs
# ---------------------------------------------------------------------------

class TestShardObservability:
    def test_sharded_run_reports_per_shard_metrics(self):
        factory, pre_run = chaos.WORKLOADS["webserver"]
        result = run_program(factory(), channel="model", pre_run=pre_run,
                             shards=2, observe=True)
        assert result.ok
        metrics = result.obs_report["metrics"]
        shard_counters = [name for name in metrics["counters"]
                          if name.startswith("shard.")]
        assert shard_counters, "sharded run emitted no shard.* counters"
        drained = sum(metrics["counters"][name]
                      for name in shard_counters
                      if name.endswith(".messages_drained"))
        assert drained == result.messages_sent
        assert any(name.startswith("shard.")
                   for name in metrics["histograms"])

    def test_unsharded_run_reports_no_shard_metrics(self):
        factory, pre_run = chaos.WORKLOADS["webserver"]
        result = run_program(factory(), channel="model", pre_run=pre_run,
                             observe=True)
        metrics = result.obs_report["metrics"]
        assert not any(name.startswith("shard.")
                       for name in metrics["counters"])


# ---------------------------------------------------------------------------
# Policy factory registry (worker-process currency)
# ---------------------------------------------------------------------------

class TestResolvePolicy:
    def test_resolves_every_bench_policy(self):
        for name in POLICY_NAMES:
            policy = resolve_policy(name)()
            assert hasattr(policy, "handle")

    def test_unknown_name_is_an_error(self):
        with pytest.raises(KeyError):
            resolve_policy("no-such-policy")


class TestScalingFloor:
    """``python -m repro.bench.sharding --min-scaling`` asserts the
    median per-round ratio of interleaved rounds (bench_point stubbed:
    no worker processes)."""

    @staticmethod
    def _stub(monkeypatch, ratios):
        """2-shard throughput of round ``r`` is ``ratios[r]`` times the
        1-shard throughput; returns the shard counts in call order."""
        from repro.bench import sharding
        calls = []

        def bench_point(num_shards, total_messages):
            calls.append(num_shards)
            ratio = ratios[(len(calls) - 1) // 2]
            return {"msgs_per_sec": 1e6 * (ratio if num_shards == 2 else 1),
                    "busy_s_max": 0.03, "wall_s": 0.05,
                    "per_shard": [{"drained": 100}] * num_shards}

        monkeypatch.setattr(sharding, "bench_point", bench_point)
        return calls

    @staticmethod
    def _main(*argv):
        from repro.bench import sharding
        return sharding.main(["--quick", "--shards", "1,2", *argv])

    def test_rounds_interleave_the_points(self, monkeypatch):
        from repro.bench.sharding import ROUNDS
        calls = self._stub(monkeypatch, [1.9] * ROUNDS)
        assert self._main() == 0
        assert calls == [1, 2] * ROUNDS

    @pytest.mark.parametrize("outlier", [1.0, 2.9])
    def test_one_outlier_round_cannot_fail_the_floor(self, monkeypatch,
                                                     capsys, outlier):
        from repro.bench.sharding import ROUNDS
        ratios = [1.9] * ROUNDS
        ratios[1] = outlier
        self._stub(monkeypatch, ratios)
        assert self._main("--min-scaling", "1.4", "--json") == 0
        report = json.loads(capsys.readouterr().out.split("\n\n")[0])
        assert report["scaling"]["shards:2"] == 1.9

    def test_a_lost_speedup_fails_the_floor(self, monkeypatch):
        from repro.bench.sharding import ROUNDS
        ratios = [1.2] * ROUNDS
        ratios[0] = 2.0
        self._stub(monkeypatch, ratios)
        assert self._main("--min-scaling", "1.4") == 2


class TestShardingReport:
    """The report of interleaved rounds, and where it goes."""

    def test_default_flags_write_no_file(self, monkeypatch, tmp_path):
        from repro.bench.sharding import ROUNDS
        TestScalingFloor._stub(monkeypatch, [1.9] * ROUNDS)
        monkeypatch.chdir(tmp_path)
        assert TestScalingFloor._main() == 0
        assert list(tmp_path.iterdir()) == []

    def test_out_keeps_every_round(self, monkeypatch, tmp_path):
        from repro.bench.sharding import ROUNDS
        ratios = [1.5 + 0.1 * index for index in range(ROUNDS)]
        TestScalingFloor._stub(monkeypatch, ratios)
        out = tmp_path / "sharding.json"
        assert TestScalingFloor._main("--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["rounds"] == ROUNDS
        two = report["benchmarks"]["shards:2"]
        assert two["round_msgs_per_sec"] == [1e6 * ratio
                                             for ratio in ratios]
        assert two["msgs_per_sec"] == 1e6 * ratios[ROUNDS // 2]
        assert report["scaling"] == {"shards:1": 1.0,
                                     "shards:2": round(ratios[ROUNDS // 2],
                                                       3)}
