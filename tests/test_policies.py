"""Tests for the non-CFI execution policies: memory safety, the toy
call counter, and the watchdog (repro.policies.*)."""


from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.passes.memsafety import MemorySafetyPass
from repro.compiler.types import ArrayType, I64, func, ptr
from repro.core import messages as msg
from repro.core.framework import run_program
from repro.policies.call_counter import (
    CallCounterPass,
    CallCounterPolicy,
    EVENT_CALL,
)
from repro.policies.memory_safety import AllocationMap, MemorySafetyPolicy
from repro.policies.watchdog import WatchdogPass, WatchdogPolicy


class TestAllocationMap:
    def test_create_and_contain(self):
        alloc_map = AllocationMap()
        assert alloc_map.create(0x100, 32) is None
        assert alloc_map.containing(0x100) == (0x100, 32)
        assert alloc_map.containing(0x11F) == (0x100, 32)
        assert alloc_map.containing(0x120) is None

    def test_overlap_rejected(self):
        alloc_map = AllocationMap()
        alloc_map.create(0x100, 32)
        assert alloc_map.create(0x110, 32) is not None
        assert alloc_map.create(0x0F0, 32) is not None

    def test_adjacent_allocations_allowed(self):
        alloc_map = AllocationMap()
        alloc_map.create(0x100, 32)
        assert alloc_map.create(0x120, 32) is None

    def test_nonpositive_size_rejected(self):
        assert AllocationMap().create(0x100, 0) is not None

    def test_destroy(self):
        alloc_map = AllocationMap()
        alloc_map.create(0x100, 32)
        assert alloc_map.destroy(0x100) is None
        assert alloc_map.destroy(0x100) is not None  # double free

    def test_destroy_all_range(self):
        alloc_map = AllocationMap()
        alloc_map.create(0x100, 8)
        alloc_map.create(0x108, 8)
        alloc_map.create(0x200, 8)
        assert alloc_map.destroy_all(0x100, 16) is None
        assert len(alloc_map) == 1

    def test_destroy_all_empty_range_is_invalid(self):
        assert AllocationMap().destroy_all(0x100, 16) is not None

    def test_extend(self):
        alloc_map = AllocationMap()
        alloc_map.create(0x100, 16)
        assert alloc_map.extend(0x100, 0x300, 64) is None
        assert alloc_map.containing(0x330) == (0x300, 64)
        assert alloc_map.containing(0x100) is None

    def test_extend_unknown_source(self):
        assert AllocationMap().extend(0x100, 0x200, 8) is not None


class TestMemorySafetyPolicy:
    def test_in_bounds_access_passes(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        assert policy.handle(msg.allocation_check(0x110)) is None

    def test_out_of_bounds_detected(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        violation = policy.handle(msg.allocation_check(0x120))
        assert violation is not None and "out-of-bounds" in violation.detail

    def test_use_after_free_detected(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        policy.handle(msg.allocation_destroy(0x100))
        assert policy.handle(msg.allocation_check(0x100)) is not None

    def test_double_free_detected(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        policy.handle(msg.allocation_destroy(0x100))
        assert policy.handle(msg.allocation_destroy(0x100)) is not None

    def test_check_base_same_allocation(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        policy.handle(msg.allocation_create(0x200, 32))
        assert policy.handle(msg.allocation_check_base(0x100, 0x118)) is None
        assert policy.handle(
            msg.allocation_check_base(0x100, 0x200)) is not None

    def test_extend_moves_the_allocation(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        assert policy.handle(msg.allocation_extend(0x100, 0x400, 64)) is None
        assert policy.handle(msg.allocation_check(0x430)) is None
        assert policy.handle(msg.allocation_check(0x100)) is not None
        violation = policy.handle(msg.allocation_extend(0x100, 0x800, 8))
        assert violation is not None and "non-allocated" in violation.detail

    def test_destroy_all_frees_a_frame(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 8))
        policy.handle(msg.allocation_create(0x110, 8))
        policy.handle(msg.allocation_create(0x200, 8))
        assert policy.handle(msg.allocation_destroy_all(0x100, 0x20)) is None
        assert policy.entry_count() == 1
        violation = policy.handle(msg.allocation_destroy_all(0x100, 0x20))
        assert violation is not None and "found nothing" in violation.detail

    def test_clone_copies_state(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        child = policy.clone()
        child.handle(msg.allocation_destroy(0x100))
        assert policy.handle(msg.allocation_check(0x100)) is None

    def test_entry_count(self):
        policy = MemorySafetyPolicy()
        policy.handle(msg.allocation_create(0x100, 32))
        assert policy.entry_count() == 1


class TestMemorySafetyEndToEnd:
    def _heap_overflow_program(self, overflow: bool):
        module = ir.Module("memsafety")
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        block = b.malloc(b.const(16))
        index = 2 if overflow else 1  # 16 bytes = words 0..1
        b.gep_index(b.cast(block, ptr(ArrayType(I64, 4))), b.const(0))
        word = b.cast(block, ptr(I64))
        address = b.add(b.cast(word, I64), b.const(index * 8))
        b.store(b.const(7), b.cast(address, ptr(I64)))
        b.syscall(1, [b.const(1), b.const(1), b.const(8)])
        b.free(block)
        b.ret(b.const(0))
        return module

    def _run(self, overflow):
        from repro.compiler.passes.base import PassManager
        from repro.compiler.passes.syscall_sync import SyscallSyncPass
        module = self._heap_overflow_program(overflow)
        PassManager([MemorySafetyPass(check_all_accesses=True),
                     SyscallSyncPass()]).run(module)
        # Reuse the framework plumbing with the memory-safety policy by
        # running under the monitored design but a custom policy.
        return run_program(module, design="baseline", channel="model",
                           policy_factory=MemorySafetyPolicy)

    def test_pass_instruments_heap_and_accesses(self):
        module = self._heap_overflow_program(False)
        pass_ = MemorySafetyPass(check_all_accesses=True)
        pass_.run(module)
        assert pass_.stats["heap-creates"] == 1
        assert pass_.stats["heap-destroys"] == 1
        assert pass_.stats["access-checks"] >= 1

    def test_overflow_detected_by_policy(self):
        """Full pipeline: instrument, run monitored, verifier flags the
        out-of-bounds store."""
        from repro.compiler.passes.base import PassManager
        from repro.compiler.passes.syscall_sync import SyscallSyncPass
        from repro.core.framework import run_program

        module = self._heap_overflow_program(overflow=True)
        # Instrument by hand, then run under the HQ plumbing with the
        # memory-safety policy (design passes already applied).
        PassManager([MemorySafetyPass(check_all_accesses=True),
                     SyscallSyncPass()]).run(module)
        result = run_program(
            module, design="hq-sfestk", channel="model",
            policy_factory=MemorySafetyPolicy,
            kill_on_violation=False)
        # The design's own passes ran too, but the policy only reads
        # ALLOCATION_* messages; the overflow is reported.
        assert any("out-of-bounds" in v.detail for v in result.violations)

    def test_in_bounds_program_clean(self):
        from repro.compiler.passes.base import PassManager
        from repro.compiler.passes.syscall_sync import SyscallSyncPass
        from repro.core.framework import run_program
        module = self._heap_overflow_program(overflow=False)
        PassManager([MemorySafetyPass(check_all_accesses=True),
                     SyscallSyncPass()]).run(module)
        result = run_program(module, design="hq-sfestk", channel="model",
                             policy_factory=MemorySafetyPolicy,
                             kill_on_violation=False)
        assert result.ok
        assert not [v for v in result.violations
                    if "out-of-bounds" in v.detail]


class TestCallCounter:
    def test_pass_inserts_event_per_call(self):
        module = ir.Module()
        callee = module.add_function("callee", func(I64, []))
        IRBuilder(callee.add_block("entry")).ret(ir.Constant(0))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.call(callee, [])
        b.call(callee, [])
        b.ret(b.const(0))
        pass_ = CallCounterPass()
        pass_.run(module)
        assert pass_.stats["events"] == 2

    def test_policy_counts(self):
        policy = CallCounterPolicy()
        for _ in range(5):
            policy.handle(msg.event(EVENT_CALL, 1))
        assert policy.count == 5

    def test_limit_enforced(self):
        policy = CallCounterPolicy(limit=2)
        policy.handle(msg.event(EVENT_CALL, 1))
        policy.handle(msg.event(EVENT_CALL, 1))
        assert policy.handle(msg.event(EVENT_CALL, 1)) is not None

    def test_unrelated_events_ignored(self):
        policy = CallCounterPolicy()
        policy.handle(msg.event(99, 1))
        assert policy.count == 0

    def test_end_to_end_count_survives_compromise(self):
        """The toy example of section 2: counts already sent cannot be
        retracted even if the program is later corrupted."""
        module = ir.Module("counter")
        callee = module.add_function("callee", func(I64, []))
        IRBuilder(callee.add_block("entry")).ret(ir.Constant(0))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        for _ in range(3):
            b.call(callee, [])
        b.ret(b.binop("div", b.const(1), b.const(0)))  # then it crashes
        CallCounterPass().run(module)
        result = run_program(module, design="hq-sfestk",
                             policy_factory=CallCounterPolicy,
                             kill_on_violation=False)
        assert result.outcome == "crash"
        # Messages were delivered despite the crash; count the events.
        # (messages_sent includes them.)
        assert result.messages_sent >= 3

    def test_fork_child_inherits_count_then_diverges(self):
        parent = CallCounterPolicy(limit=3)
        parent.handle(msg.event(EVENT_CALL, 2))
        child = parent.clone()
        assert (child.count, child.limit) == (2, 3)
        # The child's next call crosses the inherited limit ...
        assert child.handle(msg.event(EVENT_CALL, 2)) is not None
        # ... while the parent's own count never moved.
        assert parent.count == 2
        assert parent.handle(msg.event(EVENT_CALL, 1)) is None
        assert child.count == 4


class TestWatchdog:
    def test_pass_finds_loop_headers(self):
        module = ir.Module()
        f = module.add_function("f", func(I64, [I64]))
        entry = f.add_block("entry")
        head = f.add_block("head")
        done = f.add_block("done")
        b = IRBuilder(entry)
        b.br(head)
        b.position_at_end(head)
        b.cond_br(f.params[0], head, done)
        b.position_at_end(done)
        b.ret(b.const(0))
        pass_ = WatchdogPass()
        pass_.run(module)
        assert pass_.stats["heartbeats"] == 1

    def test_straightline_code_gets_no_heartbeat(self):
        module = ir.Module()
        f = module.add_function("f", func(I64, []))
        IRBuilder(f.add_block("entry")).ret(ir.Constant(0))
        pass_ = WatchdogPass()
        pass_.run(module)
        assert pass_.stats.get("heartbeats", 0) == 0

    def test_policy_accepts_monotonic_sequence(self):
        policy = WatchdogPolicy()
        from repro.policies.watchdog import EVENT_HEARTBEAT
        for sequence in (1, 2, 5):
            assert policy.handle(msg.event(EVENT_HEARTBEAT, sequence)) is None
        assert policy.beats == 3

    def test_policy_rejects_replay(self):
        from repro.policies.watchdog import EVENT_HEARTBEAT
        policy = WatchdogPolicy()
        policy.handle(msg.event(EVENT_HEARTBEAT, 5))
        violation = policy.handle(msg.event(EVENT_HEARTBEAT, 3))
        assert violation is not None and "replay" in violation.detail

    def test_fork_child_inherits_last_heartbeat(self):
        """A forked child cannot replay a heartbeat its parent sent
        before the fork; afterwards the two advance independently."""
        from repro.policies.watchdog import EVENT_HEARTBEAT
        parent = WatchdogPolicy()
        parent.handle(msg.event(EVENT_HEARTBEAT, 4))
        child = parent.clone()
        assert (child.last_sequence, child.beats) == (4, 1)
        violation = child.handle(msg.event(EVENT_HEARTBEAT, 4))
        assert violation is not None and "replay" in violation.detail
        assert child.handle(msg.event(EVENT_HEARTBEAT, 9)) is None
        assert parent.handle(msg.event(EVENT_HEARTBEAT, 5)) is None
        assert (parent.last_sequence, parent.beats) == (5, 2)
        assert (child.last_sequence, child.beats) == (9, 3)
