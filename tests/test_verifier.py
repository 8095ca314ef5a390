"""Tests for the verifier process model (repro.core.verifier)."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

import repro
from repro.bench.msgpath import _policy_factories
from repro.bench.sharding import pack_stream
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core import messages as msg
from repro.core import verifier as verifier_module
from repro.core.verifier import Verifier
from repro.ipc.appendwrite import AppendWriteFPGA, AppendWriteUArch
from repro.sim.process import Process


@pytest.fixture
def setup():
    verifier = Verifier(HQCFIPolicy)
    channel = AppendWriteUArch()
    verifier.attach_channel(channel)
    process = Process()
    verifier.register_process(process.pid)
    return verifier, channel, process


class TestLifecycle:
    def test_register_creates_context(self, setup):
        verifier, _, process = setup
        assert process.pid in verifier.contexts
        assert not verifier.has_violation(process.pid)

    def test_unregister_drops_context(self, setup):
        verifier, _, process = setup
        verifier.unregister_process(process.pid)
        assert process.pid not in verifier.contexts

    def test_fork_copies_policy_context(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        verifier.poll()
        verifier.fork_process(process.pid, 4242)
        # The child's context knows the parent's pointers.
        child = verifier.contexts[4242]
        assert child.table.check(0x10, 0x20) is None

    def test_fork_of_unknown_parent_gets_fresh_context(self):
        verifier = Verifier(HQCFIPolicy)
        verifier.fork_process(999, 1000)
        assert 1000 in verifier.contexts

    @pytest.mark.parametrize("policy_name", sorted(_policy_factories()))
    def test_unregistered_context_is_freed_without_cyclic_gc(
            self, policy_name):
        """A policy context holds no reference cycle, so it dies with
        its pid's unregistration, not at the next cyclic GC pass."""
        factory, stream = _policy_factories()[policy_name]
        verifier = Verifier(factory)
        verifier.register_process(7)
        verifier.dispatch_words(pack_stream(7, stream(40)))
        context = weakref.ref(verifier.contexts[7])
        gc.disable()
        try:
            verifier.unregister_process(7)
            assert context() is None
        finally:
            gc.enable()


class TestDispatch:
    def test_poll_processes_messages(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        channel.send(process, msg.pointer_check(0x10, 0x20))
        assert verifier.poll() == 2
        assert not verifier.has_violation(process.pid)

    def test_violation_recorded_and_flagged(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_check(0x10, 0x999))
        verifier.poll()
        assert verifier.has_violation(process.pid)
        assert len(verifier.all_violations(process.pid)) == 1

    def test_acknowledge_clears_pending_flag(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_check(0x10, 0x999))
        verifier.poll()
        verifier.acknowledge_violation(process.pid)
        assert not verifier.has_violation(process.pid)
        # The historical record stays.
        assert verifier.all_violations(process.pid)

    def test_unknown_pid_messages_ignored(self, setup):
        verifier, channel, _ = setup
        stranger = Process()
        channel.send(stranger, msg.pointer_check(0x10, 0x20))
        verifier.poll()  # must not raise
        assert verifier.total_messages() == 0

    def test_multiple_channels_drained(self):
        verifier = Verifier(HQCFIPolicy)
        first, second = AppendWriteUArch(), AppendWriteUArch()
        verifier.attach_channel(first)
        verifier.attach_channel(second)
        p1, p2 = Process(), Process()
        verifier.register_process(p1.pid)
        verifier.register_process(p2.pid)
        first.send(p1, msg.pointer_define(1, 2))
        second.send(p2, msg.pointer_define(3, 4))
        assert verifier.poll() == 2

    def test_stats_track_messages_and_entries(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        channel.send(process, msg.pointer_define(0x18, 0x20))
        verifier.poll()
        stats = verifier.stats[process.pid]
        assert stats.messages_processed == 2
        assert stats.max_entries == 2


class TestSyscallTokens:
    def test_syscall_message_yields_token(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.syscall_message(1))
        verifier.poll()
        assert verifier.consume_syscall_token(process.pid)
        assert not verifier.consume_syscall_token(process.pid)

    def test_tokens_accumulate(self, setup):
        verifier, channel, process = setup
        channel.send(process, msg.syscall_message(1))
        channel.send(process, msg.syscall_message(2))
        verifier.poll()
        assert verifier.consume_syscall_token(process.pid)
        assert verifier.consume_syscall_token(process.pid)
        assert not verifier.consume_syscall_token(process.pid)

    def test_ordering_guarantee(self, setup):
        """A SYSCALL token implies all earlier messages were processed
        (channel FIFO + single poll loop)."""
        verifier, channel, process = setup
        channel.send(process, msg.pointer_define(0x10, 0x20))
        channel.send(process, msg.syscall_message(1))
        verifier.poll()
        assert verifier.consume_syscall_token(process.pid)
        context = verifier.contexts[process.pid]
        assert context.table.check(0x10, 0x20) is None


class TestIntegrity:
    def test_dropped_messages_flag_every_process(self):
        verifier = Verifier(HQCFIPolicy)
        channel = AppendWriteFPGA(capacity=1)
        verifier.attach_channel(channel)
        process = Process()
        verifier.register_process(process.pid)
        channel.send(process, msg.pointer_define(1, 2))
        channel.send(process, msg.pointer_define(3, 4))  # dropped
        verifier.poll()
        channel.send(process, msg.pointer_define(5, 6))  # exposes gap
        verifier.poll()
        assert verifier.has_violation(process.pid)
        assert verifier.integrity_failures

    def test_terminated_verifier_flags_everything(self, setup):
        verifier, channel, process = setup
        verifier.terminate()
        assert verifier.has_violation(process.pid)
        assert verifier.poll() == 0


# ---------------------------------------------------------------------------
# One home for verifier state
# ---------------------------------------------------------------------------

def _private_verifier_names():
    """Single-underscore names of ``Verifier``'s methods and of the
    attributes it sets on ``self``."""
    tree = ast.parse(Path(verifier_module.__file__).read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Verifier")
    names = {node.name for node in cls.body
             if isinstance(node, ast.FunctionDef)}
    names.update(node.attr for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "self")
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_no_code_outside_the_verifier_touches_its_private_state():
    """Each fail-closed rule lives once, in ``Verifier``: other modules
    (the sharded coordinator and its workers included) use only its
    public operations.  Flags ``<expr>._name`` for any ``expr`` but
    ``self`` and any ``_name`` that ``Verifier`` defines."""
    private = _private_verifier_names()
    assert {"_syscall_tokens", "_pending_violation", "_record_violation",
            "_policy_factory"} <= private
    root = Path(repro.__file__).parent
    own = Path(verifier_module.__file__).resolve()
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.resolve() == own:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in private
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                found.append(f"{path.relative_to(root)}:{node.lineno}: "
                             f".{node.attr}")
    assert found == []
