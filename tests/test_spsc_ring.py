"""SPSC ring tests: wrap-around, backpressure, real-process torn-write
detection, segment lifecycle, and publish/consume equivalence with the
in-process word stream for every policy.

The ring is the sharded verifier's transport, so its contract is
stronger than "bytes arrive": whole messages only (no torn 4-word
frames), FIFO order, and consume-side behaviour identical to handing
the same words to ``Verifier.dispatch_words`` directly.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.msgpath import _policy_factories
from repro.bench.sharding import pack_stream
from repro.core.messages import MESSAGE_WORDS, Message, Op
from repro.core.verifier import Verifier
from repro.ipc.base import ChannelFullError
from repro.ipc.registry import create_channel
from repro.ipc.shared_memory import owned_segment_names
from repro.ipc.spsc_ring import SpscRing
from repro.sim.process import Process


def _segment_path(name: str) -> str:
    return f"/dev/shm/{name}"


def _message_words(op: int, pid: int, counter: int,
                   arg0: int = 0, arg1: int = 0) -> array:
    return array("Q", [(op & 0xFFFF_FFFF) | ((pid & 0xFFFF_FFFF) << 32),
                       arg0, arg1, (counter & 0xFFFF_FFFF) << 32])


# ---------------------------------------------------------------------------
# Ring mechanics
# ---------------------------------------------------------------------------

class TestSpscRing:
    def test_capacity_must_be_power_of_two(self):
        ring = SpscRing.create(capacity_words=16)
        ring.close()
        with pytest.raises(ValueError):
            SpscRing.create(capacity_words=24)

    def test_publish_consume_roundtrip(self):
        ring = SpscRing.create(capacity_words=64)
        try:
            words = _message_words(int(Op.EVENT), pid=7, counter=1,
                                   arg0=11, arg1=22)
            assert ring.publish_words(words) == MESSAGE_WORDS
            assert ring.occupancy_words() == MESSAGE_WORDS
            out = ring.consume_words()
            assert list(out) == list(words)
            assert ring.occupancy_words() == 0
        finally:
            ring.close()

    def test_partial_message_rounds_down(self):
        ring = SpscRing.create(capacity_words=64)
        try:
            # Six words: only the first whole message may publish.
            words = array("Q", range(6))
            assert ring.publish_words(words) == MESSAGE_WORDS
            assert list(ring.consume_words()) == [0, 1, 2, 3]
        finally:
            ring.close()

    def test_wrap_around_preserves_order_and_content(self):
        capacity = 32   # 8 messages
        ring = SpscRing.create(capacity_words=capacity)
        try:
            sent = []
            consumed = []
            counter = 0
            # Push far more than capacity in uneven bursts, draining as
            # we go, so head/tail lap the buffer many times and both
            # copy paths (contiguous and split) execute.
            for burst in (3, 5, 7, 2, 8, 6, 4, 8, 1, 5) * 4:
                batch = array("Q")
                for _ in range(burst):
                    counter += 1
                    batch += _message_words(int(Op.EVENT), pid=1,
                                            counter=counter,
                                            arg0=counter * 3,
                                            arg1=counter ^ 0xABCD)
                start = 0
                while start < len(batch):
                    published = ring.publish_words(batch, start)
                    if published == 0:
                        consumed.extend(ring.consume_words())
                    start += published
                sent.extend(batch)
                if burst % 3 == 0:
                    consumed.extend(ring.consume_words())
            consumed.extend(ring.consume_words())
            assert consumed == list(array("Q", sent))
            assert ring.published() == ring.consumed() == len(sent)
        finally:
            ring.close()

    def test_full_ring_backpressure(self):
        capacity = 16   # 4 messages
        ring = SpscRing.create(capacity_words=capacity)
        try:
            for i in range(4):
                assert ring.publish_words(
                    _message_words(int(Op.EVENT), 1, i + 1)) == 4
            # Full: publish refuses, content intact.
            assert ring.publish_words(
                _message_words(int(Op.EVENT), 1, 99)) == 0
            assert ring.occupancy_words() == capacity
            # Draining one message frees exactly one slot.
            first = ring.consume_words(MESSAGE_WORDS)
            assert len(first) == MESSAGE_WORDS
            assert ring.publish_words(
                _message_words(int(Op.EVENT), 1, 5)) == MESSAGE_WORDS
            # Lazy cached tail: one consume drains the cached view, the
            # next refreshes it — loop until empty like real consumers.
            remaining = array("Q")
            while True:
                chunk = ring.consume_words()
                if not chunk:
                    break
                remaining += chunk
            assert len(remaining) == 4 * MESSAGE_WORDS
            # FIFO across the backpressure episode: counters 2,3,4,5.
            counters = [remaining[base + 3] >> 32
                        for base in range(0, len(remaining), 4)]
            assert counters == [2, 3, 4, 5]
        finally:
            ring.close()

    def test_bounded_consume_respects_message_granularity(self):
        ring = SpscRing.create(capacity_words=64)
        try:
            for i in range(5):
                ring.publish_words(_message_words(int(Op.EVENT), 1, i + 1))
            assert len(ring.consume_words(max_words=6)) == 4
            assert len(ring.consume_words(max_words=3)) == 0
            assert len(ring.consume_words()) == 16
        finally:
            ring.close()

    def test_ack_and_stop_flags(self):
        ring = SpscRing.create(capacity_words=64)
        try:
            ring.publish_words(_message_words(int(Op.EVENT), 1, 1))
            ring.consume_words()
            ring.ack(ring.consumed())
            assert ring.acked() == MESSAGE_WORDS
            assert not ring.stop_requested()
            ring.request_stop()
            assert ring.stop_requested()
        finally:
            ring.close()

    def test_close_is_idempotent_and_unlinks(self):
        ring = SpscRing.create(capacity_words=64)
        name = ring.name
        assert os.path.exists(_segment_path(name))
        ring.close()
        ring.close()
        assert not os.path.exists(_segment_path(name))
        assert name not in owned_segment_names()


# ---------------------------------------------------------------------------
# Real producer process: no torn messages, exact content
# ---------------------------------------------------------------------------

def _producer_main(ring_name: str, capacity_words: int,
                   messages: int) -> None:
    ring = SpscRing.attach(ring_name, capacity_words)
    try:
        batch = array("Q", bytes(8 * MESSAGE_WORDS * 8))
        counter = 0
        sent = 0
        while sent < messages:
            burst = min(8, messages - sent)
            for i in range(burst):
                counter += 1
                base = i * MESSAGE_WORDS
                batch[base] = (int(Op.EVENT) & 0xFFFF_FFFF) | (9 << 32)
                batch[base + 1] = counter * 3
                batch[base + 2] = counter ^ 0xDEAD_BEEF
                batch[base + 3] = (counter & 0xFFFF_FFFF) << 32
            view = memoryview(batch)[:burst * MESSAGE_WORDS]
            start = 0
            while start < len(view):
                published = ring.publish_words(view, start)
                if published == 0:
                    time.sleep(0.0002)
                start += published
            sent += burst
    finally:
        ring.close()


class TestRealProducer:
    def test_no_torn_messages_under_concurrent_producer(self):
        """A separate OS process hammers a tiny ring; every message the
        consumer observes must be internally consistent (all four words
        derived from the same counter) and in FIFO order — a torn or
        reordered frame fails loudly."""
        messages = 4000
        capacity = 64   # tiny: constant wrap-around + backpressure
        ring = SpscRing.create(capacity_words=capacity)
        producer = multiprocessing.Process(
            target=_producer_main, args=(ring.name, capacity, messages),
            daemon=True)
        producer.start()
        try:
            seen = 0
            expected_counter = 0
            deadline = time.monotonic() + 60
            while seen < messages:
                words = ring.consume_words()
                if not words:
                    assert time.monotonic() < deadline, \
                        f"stalled after {seen} messages"
                    time.sleep(0.0002)
                    continue
                assert len(words) % MESSAGE_WORDS == 0
                for base in range(0, len(words), MESSAGE_WORDS):
                    expected_counter += 1
                    counter = words[base + 3] >> 32
                    assert counter == expected_counter, "reordered frame"
                    assert words[base] >> 32 == 9
                    assert words[base + 1] == counter * 3, "torn frame"
                    assert words[base + 2] == counter ^ 0xDEAD_BEEF, \
                        "torn frame"
                seen += len(words) // MESSAGE_WORDS
            producer.join(timeout=30)
            assert producer.exitcode == 0
        finally:
            if producer.is_alive():
                producer.kill()
                producer.join()
            ring.close()


# ---------------------------------------------------------------------------
# Segment lifecycle: killed attachers must not leak or unlink
# ---------------------------------------------------------------------------

class TestSegmentLifecycle:
    def test_killed_forked_attacher_leaves_creator_segment_alone(self):
        ring = SpscRing.create(capacity_words=64)
        try:
            def attach_and_hang(name, capacity):
                attached = SpscRing.attach(name, capacity)
                attached.consume_words()
                time.sleep(60)

            child = multiprocessing.Process(
                target=attach_and_hang, args=(ring.name, 64), daemon=True)
            child.start()
            time.sleep(0.2)
            child.kill()
            child.join(timeout=10)
            # The creator's mapping must have survived the kill intact.
            assert os.path.exists(_segment_path(ring.name))
            ring.publish_words(_message_words(int(Op.EVENT), 1, 1))
            assert len(ring.consume_words()) == MESSAGE_WORDS
        finally:
            ring.close()
        assert not os.path.exists(_segment_path(ring.name))

    def test_chaos_kill_emits_no_tracker_warnings(self):
        """Regression: killing a shard worker mid-drain used to leave
        resource-tracker state pointing at the creator's segment —
        KeyError tracebacks and "leaked shared_memory" warnings at
        interpreter shutdown.  Run the whole scenario in a fresh
        interpreter and require clean stderr."""
        script = r"""
import time
from array import array
from repro.core.shard_verifier import ShardWorker
from repro.bench.msgpath import _cfi_stream
from repro.bench.sharding import pack_stream

worker = ShardWorker(0, "hq-cfi")
worker.register(42)
words = pack_stream(42, _cfi_stream(2000))
view = memoryview(words)
start = 0
while start < len(view):
    published = worker.publish(view[start:start + 512])
    if not published:
        time.sleep(0.0002)
    start += published
worker.kill()          # mid-drain, no farewell
worker.close()
print("DONE")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                cwd=os.path.dirname(os.path.dirname(
                                    os.path.abspath(__file__))),
                                env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "DONE" in result.stdout
        assert "leaked shared_memory" not in result.stderr
        assert "Traceback" not in result.stderr
        assert "KeyError" not in result.stderr

    def test_foreign_process_attacher_exit_is_silent(self):
        """An attacher with its *own* resource tracker (a fresh
        interpreter, not a forked child) must neither warn nor unlink
        the creator's segment when it exits without closing."""
        ring = SpscRing.create(capacity_words=64)
        try:
            script = (
                "from repro.ipc.spsc_ring import SpscRing\n"
                f"ring = SpscRing.attach({ring.name!r}, 64)\n"
                "ring.consume_words()\n"
                "print('ATTACHED')\n"   # exit without close()
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = "src"
            result = subprocess.run([sys.executable, "-c", script],
                                    capture_output=True, text=True,
                                    cwd=os.path.dirname(os.path.dirname(
                                        os.path.abspath(__file__))),
                                    env=env, timeout=60)
            assert result.returncode == 0, result.stderr
            assert "ATTACHED" in result.stdout
            assert "leaked shared_memory" not in result.stderr
            assert "Traceback" not in result.stderr
            assert os.path.exists(_segment_path(ring.name)), \
                "attacher's tracker unlinked the creator's segment"
        finally:
            ring.close()


# ---------------------------------------------------------------------------
# The ring as a channel primitive
# ---------------------------------------------------------------------------

class TestSpscRingChannel:
    def test_send_receive_roundtrip(self):
        channel = create_channel("spsc", capacity=16)
        try:
            process = Process(name="spsc-test")
            channel.send(process, Message(Op.POINTER_DEFINE, 0x10, 0x20))
            channel.send(process, Message(Op.POINTER_CHECK, 0x10, 0x20))
            messages = channel.receive_all()
            assert [m.op for m in messages] == [Op.POINTER_DEFINE,
                                                Op.POINTER_CHECK]
            assert [m.counter for m in messages] == [1, 2]
            assert all(m.pid == process.pid for m in messages)
        finally:
            channel.close()

    def test_pending_counts_in_flight_messages(self):
        channel = create_channel("spsc", capacity=16)
        try:
            process = Process(name="spsc-pending")
            for _ in range(3):
                channel.send(process, Message(Op.EVENT, 1, 1))
            assert channel.pending() == 3
            channel.receive_words()
            assert channel.pending() == 0
        finally:
            channel.close()

    def test_full_channel_fails_closed_without_drain_hook(self):
        channel = create_channel("spsc", capacity=4)
        try:
            process = Process(name="spsc-full")
            for _ in range(4):
                channel.send(process, Message(Op.EVENT, 1, 1))
            with pytest.raises(ChannelFullError):
                channel.send(process, Message(Op.EVENT, 1, 1))
        finally:
            channel.close()

    def test_full_channel_drain_hook_allows_retry(self):
        channel = create_channel("spsc", capacity=4)
        try:
            process = Process(name="spsc-hook")
            drained = []
            channel._on_full = lambda ch: drained.append(
                len(ch.receive_words()) // MESSAGE_WORDS)
            for _ in range(9):
                channel.send(process, Message(Op.EVENT, 1, 1))
            assert sum(drained) >= 4
            assert channel.sent_total == 9
        finally:
            channel.close()

    def test_corrupt_and_erase_attack_surface(self):
        channel = create_channel("spsc", capacity=16)
        try:
            process = Process(name="spsc-attack")
            for i in range(4):
                channel.send(process, Message(Op.POINTER_DEFINE,
                                              0x100 + i, i))
            channel.corrupt(2, Message(Op.POINTER_CHECK, 0xBAD, 0xBAD))
            channel.erase(1)
            messages = channel.receive_all()
            assert len(messages) == 3
            assert messages[2].op == Op.POINTER_CHECK
            assert messages[2].arg0 == 0xBAD
            # Counter continuity preserved — the tampering is invisible
            # to transport-level validation, exactly like raw shm.
            assert [m.counter for m in messages] == [1, 2, 3]
            # Erase rewound the producer counter: the next send reuses 4.
            channel.send(process, Message(Op.EVENT, 1, 1))
            assert channel.receive_all()[0].counter == 4
        finally:
            channel.close()


# ---------------------------------------------------------------------------
# Equivalence: ring transport vs in-process word stream, all policies
# ---------------------------------------------------------------------------

POLICY_NAMES = sorted(_policy_factories())


def _verifier_fingerprint(verifier: Verifier, pid: int):
    stats = verifier.stats[pid]
    context = verifier.contexts.get(pid)
    return (
        [(v.kind, v.detail) for v in verifier.violations.get(pid, [])],
        stats.messages_processed, stats.violations, stats.max_entries,
        dict(stats.by_op),
        verifier._syscall_tokens.get(pid, 0),
        context.entry_count() if context is not None else None,
        list(verifier.integrity_failures),
    )


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ring_transport_equivalent_to_direct_dispatch(policy_name, data):
    """Chunking a word stream arbitrarily through a (small) ring must
    yield exactly the verifier outcome of one direct dispatch."""
    factory, stream_fn = _policy_factories()[policy_name]
    pid = 77
    messages = data.draw(st.integers(min_value=1, max_value=120))
    events = stream_fn(messages)
    if data.draw(st.booleans()):
        # Tamper with one event so violating streams are covered too;
        # both sides see the identical tampered stream.
        index = data.draw(st.integers(0, len(events) - 1))
        op, arg0, arg1, aux = events[index]
        events[index] = (op, arg0, arg1 ^ 0xFFF, aux)
    words = pack_stream(pid, events)

    direct = Verifier(factory)
    direct.register_process(pid)
    direct.dispatch_words(words)

    ringed = Verifier(factory)
    ringed.register_process(pid)
    ring = SpscRing.create(capacity_words=64)
    try:
        view = memoryview(words)
        start = 0
        while start < len(view):
            chunk = data.draw(st.integers(min_value=1, max_value=12)) \
                * MESSAGE_WORDS
            end = min(len(view), start + chunk)
            published = ring.publish_words(view[start:end])
            if published:
                start += published
            consumed = ring.consume_words()
            if consumed:
                ringed.dispatch_words(consumed)
                ring.ack(ring.consumed())
        leftover = ring.consume_words()
        if leftover:
            ringed.dispatch_words(leftover)
    finally:
        ring.close()

    assert _verifier_fingerprint(ringed, pid) == \
        _verifier_fingerprint(direct, pid)
