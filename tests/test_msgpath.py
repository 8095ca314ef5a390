"""Tests for the flat packed word-stream message path: wire codec,
word-native channels, bulk memory accessors, batched verifier dispatch,
and the fail-closed handling of undecodable streams."""

import pytest
from array import array

from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core.messages import (
    MESSAGE_WORDS,
    Message,
    MessageDecodeError,
    Op,
    decode_batch,
    encode_batch,
)
from repro.core.trace import RecordingChannel
from repro.core.verifier import Verifier
from repro.faults import FaultPlan, FaultyChannel
from repro.ipc.base import ChannelIntegrityError
from repro.ipc.registry import create_channel
from repro.sim.memory import (
    AMRWriteFault,
    Memory,
    PAGE_SIZE,
    PROT_AMR,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
)
from repro.sim.process import Process

ALL_PRIMITIVES = ("mq", "pipe", "socket", "shm", "lwc", "fpga", "uarch",
                  "model")


@pytest.fixture
def process():
    return Process(name="msgpath-test")


class TestWireCodec:
    def test_encode_decode_batch_roundtrip(self):
        stream = [
            Message(Op.POINTER_DEFINE, 0x1000, 0xdead, 0, 7, 1),
            Message(Op.SYSCALL, 1, 0, 0, 7, 2),
            Message(Op.EVENT, 2, 3, 9, 7, 3),
        ]
        words = encode_batch(stream)
        assert isinstance(words, array) and words.typecode == "Q"
        assert len(words) == len(stream) * MESSAGE_WORDS
        assert decode_batch(words) == stream

    def test_decode_batch_rejects_truncated_stream(self):
        words = encode_batch([Message(Op.EVENT, 1, 2, 3, 5, 1)])[:-1]
        with pytest.raises(MessageDecodeError, match="truncated"):
            decode_batch(words)

    def test_decode_batch_rejects_unknown_opcode(self):
        words = encode_batch([Message(Op.EVENT, 1, 2, 3, 5, 1)])
        words[0] = (words[0] & ~0xFFFF_FFFF) | 0x7777
        with pytest.raises(MessageDecodeError, match="unknown opcode"):
            decode_batch(words)


class TestWordRoundtrip:
    @pytest.mark.parametrize("primitive", ALL_PRIMITIVES)
    def test_send_raw_receive_words_roundtrip(self, primitive, process):
        channel = create_channel(primitive)
        sent = [(int(Op.POINTER_DEFINE), 0x1000 + i, 0x2000 + i, 0)
                for i in range(5)]
        for op, arg0, arg1, aux in sent:
            channel.send_raw(process, op, arg0, arg1, aux)
        assert channel.pending() == 5
        messages = decode_batch(channel.receive_words())
        assert [(int(m.op), m.arg0, m.arg1, m.aux) for m in messages] == sent
        assert all(m.pid == process.pid for m in messages)
        assert [m.counter for m in messages] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("primitive", ALL_PRIMITIVES)
    def test_message_send_still_works(self, primitive, process):
        # The dual-surface bridge: Message sends land on the word path.
        channel = create_channel(primitive)
        channel.send(process, Message(Op.EVENT, 4, 5, 6))
        (received,) = channel.receive_all()
        assert (received.op, received.arg0, received.arg1,
                received.aux) == (Op.EVENT, 4, 5, 6)

    def test_word_values_are_masked(self, process):
        # Out-of-range payloads must not corrupt neighbouring fields.
        channel = create_channel("shm")
        channel.send_raw(process, int(Op.EVENT), 2 ** 64 + 5, -1, 2 ** 40)
        (received,) = channel.receive_all()
        assert received.arg0 == 5
        assert received.arg1 == 2 ** 64 - 1
        assert received.aux == (2 ** 40) & 0xFFFF_FFFF


class TestCounterRangeCheck:
    def test_gap_in_middle_reports_legacy_error(self, process):
        channel = create_channel("fpga")
        for i in range(4):
            channel.send_raw(process, int(Op.EVENT), i, 0, 0)
        # Excise message #2 (words 4..8) to leave a counter gap.
        ring = channel._ring
        channel._ring = ring[:4] + ring[8:]
        with pytest.raises(ChannelIntegrityError,
                           match=r"counter gap: expected 2, got 3 "
                                 r"\(messages dropped or tampered\)"):
            channel.receive_words()

    def test_tampered_last_counter_detected(self, process):
        # The range check compares first and last counters; a forged
        # last counter must still be caught by the fallback.
        channel = create_channel("fpga")
        for i in range(3):
            channel.send_raw(process, int(Op.EVENT), i, 0, 0)
        ring = channel._ring
        # Swap counters of messages 2 and 3: endpoints 1..3 intact.
        c2, c3 = ring[7], ring[11]
        ring[7], ring[11] = c3, c2
        with pytest.raises(ChannelIntegrityError, match="counter gap"):
            channel.receive_words()

    def test_truncated_ring_fails_closed(self, process):
        channel = create_channel("fpga")
        channel.send_raw(process, int(Op.EVENT), 1, 0, 0)
        del channel._ring[-1]
        with pytest.raises(ChannelIntegrityError,
                           match="truncated message stream"):
            channel.receive_words()


class TestBulkMemoryOps:
    def test_load_words_reads_back_stores(self):
        mem = Memory()
        mem.map_region(0x1000, PAGE_SIZE, PROT_READ | PROT_WRITE, "rw")
        mem.store_words(0x1000, [10, 20, 30])
        assert list(mem.load_words(0x1000, 3)) == [10, 20, 30]
        # Holes read as zero.
        assert list(mem.load_words(0x1000, 5)) == [10, 20, 30, 0, 0]

    def test_store_words_rejects_amr_pages(self):
        mem = Memory()
        mem.map_region(0x2000, PAGE_SIZE, PROT_READ | PROT_AMR, "amr")
        with pytest.raises(AMRWriteFault):
            mem.store_words(0x2000, [1, 2])

    def test_append_store_words_requires_amr(self):
        mem = Memory()
        mem.map_region(0x3000, PAGE_SIZE, PROT_READ | PROT_WRITE, "rw")
        with pytest.raises(SegmentationFault):
            mem.append_store_words(0x3000, [1, 2])

    def test_prot_epoch_bumps_on_protection_changes(self):
        # The accesses between the steps fill the page-protection cache
        # on demand; a fill is not a protection change and must not
        # bump the epoch.
        mem = Memory()
        before = mem.prot_epoch
        mem.map_region(0x4000, PAGE_SIZE, PROT_READ | PROT_WRITE, "rw")
        assert mem.prot_epoch == before + 1
        mem.store(0x4000, 7)
        assert mem.load(0x4000) == 7
        assert mem.prot_epoch == before + 1
        mem.protect_region(0x4000, PAGE_SIZE, PROT_READ)
        assert mem.prot_epoch == before + 2
        assert mem.load(0x4008) == 0
        with pytest.raises(SegmentationFault):
            mem.store(0x4000, 1)
        assert mem.prot_epoch == before + 2
        mem.unmap_region(0x4000)
        assert mem.prot_epoch == before + 3
        with pytest.raises(SegmentationFault):
            mem.load(0x4000)
        assert mem.prot_epoch == before + 3


class TestUArchFastPath:
    def test_sends_land_in_simulated_memory(self, process):
        channel = create_channel("uarch")
        channel.send_raw(process, int(Op.EVENT), 0xAB, 0xCD, 1)
        assert channel.memory.load_physical(channel.base + 8) == 0xAB
        assert channel.memory.load_physical(channel.base + 16) == 0xCD

    def test_reprotected_amr_faults_sends(self, process):
        # Revoking AMR from the region must fault the datapath store,
        # fast path or not.
        channel = create_channel("uarch", capacity=8)
        channel.send_raw(process, int(Op.EVENT), 1, 0, 0)
        channel.memory.protect_region(channel.base, PAGE_SIZE,
                                      PROT_READ | PROT_WRITE)
        with pytest.raises(SegmentationFault):
            channel.send_raw(process, int(Op.EVENT), 2, 0, 0)
        # Restoring AMR revalidates and sends flow again.
        channel.memory.protect_region(channel.base, PAGE_SIZE,
                                      PROT_READ | PROT_AMR)
        channel.send_raw(process, int(Op.EVENT), 3, 0, 0)
        # The faulted send burned counter 2 (counters advance before the
        # store, same as the legacy path), so the receiver sees a gap
        # and fails closed rather than silently skipping the loss.
        with pytest.raises(ChannelIntegrityError, match="counter gap"):
            channel.receive_words()
        # After an explicit resync, fresh sends validate cleanly.
        channel.resync()
        channel.send_raw(process, int(Op.EVENT), 4, 0, 0)
        messages = decode_batch(channel.receive_words())
        assert [m.arg0 for m in messages] == [4]

    def test_failed_reprotect_leaves_amr_intact(self, process):
        # A range that runs past the one-page AMR fails before changing
        # any page and leaves prot_epoch alone, so the fast path keeps
        # appending to a page that is still AMR, never to a page that
        # silently became read-only.
        channel = create_channel("uarch", capacity=8)
        channel.send_raw(process, int(Op.EVENT), 1, 0, 0)
        with pytest.raises(SegmentationFault, match="mprotect"):
            channel.memory.protect_region(channel.base, 2 * PAGE_SIZE,
                                          PROT_READ)
        assert channel.memory.prot_of(channel.base) == PROT_READ | PROT_AMR
        channel.send_raw(process, int(Op.EVENT), 2, 0, 0)
        messages = decode_batch(channel.receive_words())
        assert [m.arg0 for m in messages] == [1, 2]


class TestUndecodableStreams:
    def _verifier_over(self, channel, pid):
        verifier = Verifier(HQCFIPolicy)
        verifier.attach_channel(channel)
        verifier.register_process(pid)
        return verifier

    def test_unknown_opcode_on_wire_records_integrity_violation(
            self, process):
        # Satellite: a word stream that decodes to no known opcode must
        # fail closed as a message-integrity violation, not crash.
        channel = create_channel("uarch")
        verifier = self._verifier_over(channel, process.pid)
        channel.send_raw(process, int(Op.EVENT), 1, 0, 0)
        # Forge the opcode in the AMR itself (a DMA-style attack the
        # verifier must survive).
        word = channel.memory.load_physical(channel.base)
        channel.memory.store_physical(
            channel.base, (word & ~0xFFFF_FFFF) | 0xBEEF)
        verifier.poll()
        assert verifier.integrity_failures
        assert any("unknown opcode" in detail
                   for detail in verifier.integrity_failures)
        violations = verifier.all_violations(process.pid)
        assert any(v.kind == "message-integrity" for v in violations)

    def test_unknown_opcode_through_faulty_channel(self, process):
        # Satellite: same corruption, but delivered through the fault
        # wrapper: FaultyChannel decodes per message, so the failure is
        # caught at the channel and reported per the integrity contract.
        inner = create_channel("shm")
        channel = FaultyChannel(inner, FaultPlan(3, [], scope="t"))
        verifier = self._verifier_over(channel, process.pid)
        channel.send(process, Message(Op.EVENT, 1, 0, 0))
        inner._ring[0] = (inner._ring[0] & ~0xFFFF_FFFF) | 0x4242
        verifier.poll()
        assert any("unknown opcode" in detail
                   for detail in verifier.integrity_failures)
        assert any(v.kind == "message-integrity"
                   for v in verifier.all_violations(process.pid))

    def test_truncated_word_batch_dispatch_fails_closed(self, process):
        verifier = self._verifier_over(create_channel("shm"), process.pid)
        processed = verifier.dispatch_words(array("Q", [1, 2, 3]))
        assert processed == 0
        assert any("truncated" in detail
                   for detail in verifier.integrity_failures)


class TestRecordingChannelLazyTrace:
    def test_raw_and_object_sends_both_recorded(self, process):
        channel = RecordingChannel(create_channel("shm"))
        channel.send_raw(process, int(Op.POINTER_DEFINE), 0x10, 0x20, 0)
        channel.send(process, Message(Op.EVENT, 1, 2, 3))
        assert channel._raw_trace == [
            (int(Op.POINTER_DEFINE), 0x10, 0x20, 0),
            (int(Op.EVENT), 1, 2, 3),
        ]
        trace = channel.trace
        assert [m.op for m in trace] == [Op.POINTER_DEFINE, Op.EVENT]
        # The stream the verifier sees is unchanged.
        assert len(channel.receive_all()) == 2

    def test_trace_materializes_fresh_objects(self, process):
        channel = RecordingChannel(create_channel("shm"))
        channel.send_raw(process, int(Op.EVENT), 1, 0, 0)
        assert channel.trace == channel.trace
        assert channel.trace is not channel.trace


class TestUnregisterProcess:
    def test_unregister_drops_live_state_keeps_history(self, process):
        # Satellite: per-pid live state must not leak after process
        # exit, while reporting history survives for the framework.
        verifier = Verifier(HQCFIPolicy)
        channel = create_channel("uarch")
        verifier.attach_channel(channel)
        verifier.register_process(process.pid)
        channel.send_raw(process, int(Op.POINTER_DEFINE), 0x10, 0x99, 0)
        channel.send_raw(process, int(Op.POINTER_CHECK), 0x10, 0x00, 0)
        channel.send_raw(process, int(Op.SYSCALL), 1, 0, 0)
        verifier.poll()
        pid = process.pid
        assert pid in verifier.contexts
        assert verifier._syscall_tokens.get(pid)
        assert verifier._pending_violation.get(pid)

        verifier.unregister_process(pid)

        assert pid not in verifier.contexts
        assert pid not in verifier._syscall_tokens
        assert pid not in verifier._pending_violation
        # History: stats and the recorded violation survive.
        assert verifier.stats[pid].messages_processed == 3
        assert verifier.all_violations(pid)

    def test_unregister_unknown_pid_is_noop(self):
        verifier = Verifier(HQCFIPolicy)
        verifier.unregister_process(424242)
