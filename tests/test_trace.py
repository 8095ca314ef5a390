"""Tests for trace recording/replay and redundant fault detection
(repro.core.trace, repro.policies.redundancy)."""


from repro.cfi.hq_cfi import HQCFIPolicy
from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.types import I64, func, ptr
from repro.core import messages as msg
from repro.core.trace import (
    RecordingChannel,
    compare_traces,
    replay,
    semantic,
)
from repro.ipc.appendwrite import AppendWriteUArch
from repro.policies.redundancy import (
    flip_bit_in_global,
    run_redundant,
)
from repro.sim.process import Process


class TestRecordingChannel:
    def test_records_and_delivers(self):
        channel = RecordingChannel(AppendWriteUArch())
        process = Process()
        channel.send(process, msg.pointer_define(1, 2))
        channel.send(process, msg.pointer_check(1, 2))
        assert len(channel.trace) == 2
        assert len(channel.receive_all()) == 2

    def test_properties_mirror_inner(self):
        inner = AppendWriteUArch()
        channel = RecordingChannel(inner)
        assert channel.primitive == inner.primitive
        assert channel.append_only == inner.append_only

    def test_resync_realigns_the_inner_counters(self):
        """The verifier-restart path: in-flight messages are handed back
        for killing their senders, and later traffic validates."""
        channel = RecordingChannel(AppendWriteUArch())
        process = Process()
        channel.send(process, msg.pointer_define(1, 2))
        channel.send(process, msg.pointer_check(1, 2))
        assert channel.pending() == 2
        assert [m.op for m in channel.resync()] == \
            [msg.Op.POINTER_DEFINE, msg.Op.POINTER_CHECK]
        assert channel.pending() == 0
        channel.send(process, msg.pointer_check(1, 2))
        assert len(channel.receive_all()) == 1
        assert len(channel.trace) == 3

    def test_semantic_strips_transport_fields(self):
        a = msg.pointer_check(1, 2).with_transport(5, 10)
        b = msg.pointer_check(1, 2).with_transport(9, 99)
        assert semantic(a) == semantic(b)


class TestCompare:
    def test_identical_traces(self):
        trace = [msg.pointer_define(1, 2), msg.pointer_check(1, 2)]
        assert compare_traces(trace, list(trace)) is None

    def test_value_divergence_located(self):
        left = [msg.pointer_define(1, 2), msg.pointer_check(1, 2)]
        right = [msg.pointer_define(1, 2), msg.pointer_check(1, 3)]
        divergence = compare_traces(left, right)
        assert divergence is not None and divergence.index == 1
        assert "diverge at message 1" in str(divergence)

    def test_length_divergence_located(self):
        left = [msg.pointer_define(1, 2)]
        right = [msg.pointer_define(1, 2), msg.syscall_message(1)]
        divergence = compare_traces(left, right)
        assert divergence is not None
        assert divergence.left is None

    def test_transport_fields_ignored(self):
        left = [msg.pointer_check(1, 2).with_transport(1, 1)]
        right = [msg.pointer_check(1, 2).with_transport(2, 9)]
        assert compare_traces(left, right) is None


class TestReplay:
    def test_replay_reproduces_verdicts(self):
        trace = [msg.pointer_define(0x10, 0x20),
                 msg.pointer_check(0x10, 0x20),
                 msg.pointer_check(0x10, 0x99),
                 msg.syscall_message(1)]
        violations = replay(trace, HQCFIPolicy())
        assert len(violations) == 1
        assert violations[0].kind == "cfi-pointer-integrity"

    def test_replay_is_deterministic(self):
        trace = [msg.pointer_define(0x10, 0x20),
                 msg.pointer_block_invalidate(0x10, 8),
                 msg.pointer_check(0x10, 0x20)]
        first = replay(trace, HQCFIPolicy())
        second = replay(trace, HQCFIPolicy())
        assert [v.detail for v in first] == [v.detail for v in second]


def counting_module():
    """A program whose message stream depends on a data global."""
    module = ir.Module("redundant")
    sig = func(I64, [I64])
    handler = module.add_function("handler", sig)
    b = IRBuilder(handler.add_block("entry"))
    b.ret(b.mul(handler.params[0], b.const(2)))
    knob = module.add_global("knob", I64, initializer=[ir.Constant(2)])
    slot = module.add_global("slot", ptr(sig),
                             initializer=[ir.FunctionRef(handler)])
    mainf = module.add_function("main", func(I64, []))
    entry = mainf.add_block("entry")
    loop = mainf.add_block("loop")
    done = mainf.add_block("done")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i = ir.Phi(I64, "i")
    loop.append(i)
    i.add_incoming(b.const(0), entry)
    target = b.load(slot, "t")
    result = b.icall(target, [i], sig, "r")
    b.syscall(1, [b.const(1), result, b.const(8)])
    i2 = b.add(i, b.const(1), "i2")
    i.add_incoming(i2, loop)
    limit = b.load(knob, "limit")
    b.cond_br(b.cmp("lt", i2, limit), loop, done)
    b.position_at_end(done)
    b.ret(b.const(0))
    return module


class TestRedundantFaultDetection:
    def test_clean_duplicate_runs_agree(self):
        outcome = run_redundant(counting_module)
        assert outcome.first.ok and outcome.second.ok
        assert not outcome.fault_detected

    def test_bit_flip_in_data_detected(self):
        """A soft error in the loop-bound global changes the message
        stream (different iteration count): divergence detected."""
        outcome = run_redundant(counting_module,
                                fault=flip_bit_in_global("knob", bit=2))
        assert outcome.fault_detected
        assert outcome.divergence is not None

    def test_bit_flip_in_code_pointer_detected_twice_over(self):
        """Flipping a bit in the handler pointer diverges the stream
        AND trips the CFI policy in the faulted run."""
        outcome = run_redundant(counting_module,
                                fault=flip_bit_in_global("slot", bit=3))
        assert outcome.fault_detected
        assert outcome.second.violations  # CFI caught it independently
