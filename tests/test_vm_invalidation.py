"""Compile-cache invalidation: ``(process, prot_epoch)`` keying.

The interpreter's compile cache (lowered VM code) is a pure function of
the IR *plus* the execution environment it was built against.  Two
environment changes can strand stale entries:

* **mprotect mid-run** — ``Memory.protect_region`` / ``map_region`` /
  ``unmap_region`` bump ``Memory.prot_epoch``; compiled escape bridges
  and resolved global addresses must be rebuilt against the new layout;
* **fork-child divergence** — a harness rebinding ``interp.process``
  to a different process (the traffic engine's worker pattern) must
  not reuse caches charged against the parent's memory.

Both are validated on every ``_exec_function`` entry and flushed by
``Interpreter.invalidate_caches``.  The heap is pre-mapped at process
creation, so ``malloc`` does *not* bump the epoch — invalidation stays
rare and the cache stays hot on the common path.

Two checks compare against snapshots the deleted closure tier recorded
(``tests/vm_goldens.json``).
"""

from repro.chaos import _build_forker
from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.core.framework import run_program
from repro.sim.cpu import ExecOptions, Interpreter, default_syscall_dispatcher
from repro.sim.loader import Image
from repro.sim.memory import PROT_READ, PROT_WRITE
from repro.sim.process import Process
from tests.test_vm_equivalence import GOLDENS, as_json

SYS_MPROTECT_TEST = 777


def _helper_module():
    """main: helper(5) ; syscall 777 ; helper(9) — the syscall escapes
    to a dispatcher that remaps memory between the two helper calls."""
    from repro.compiler.types import I64, func

    module = ir.Module()
    sig = func(I64, [I64])
    helper = module.add_function("helper", sig)
    hb = IRBuilder(helper.add_block("entry"))
    hb.ret(hb.add(hb.mul(helper.params[0], hb.const(3)), hb.const(1)))

    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    first = b.call(helper, [b.const(5)])
    b.syscall(SYS_MPROTECT_TEST, [])
    second = b.call(helper, [b.const(9)])
    b.ret(b.add(first, second))
    module.verify()
    return module


def _mprotecting_dispatcher():
    def dispatcher(process, number, args):
        if number == SYS_MPROTECT_TEST:
            base = process.mmap_anonymous(4096, PROT_READ | PROT_WRITE,
                                          "scratch")
            process.memory.protect_region(base, 4096, PROT_READ)
            return 0
        return default_syscall_dispatcher(process, number, args)
    return dispatcher


def _run_mprotecting():
    process = Process(name="inval-vm")
    image = Image(_helper_module(), process)
    interp = Interpreter(image, options=ExecOptions(),
                         syscall_dispatcher=_mprotecting_dispatcher())
    result = interp.run("main")
    return result, interp, process


class TestMprotectMidRun:
    def test_epoch_bump_flushes_and_recompiles(self):
        result, interp, process = _run_mprotecting()
        assert result == (5 * 3 + 1) + (9 * 3 + 1)
        # main, helper, then helper again after the mid-run epoch bump
        # invalidated the compile cache.
        assert interp.compiled_functions == 3
        assert interp._cache_epoch == process.memory.prot_epoch
        assert set(interp._vm_cache) == \
            {id(image_fn) for image_fn in
             [interp.image.module.functions["helper"]]}

    def test_closure_tier_matches(self):
        """Result and steps match the closure tier's recorded run."""
        result, interp, _ = _run_mprotecting()
        assert {"result": result, "steps": interp.steps} == \
            GOLDENS["invalidation"]["mprotect_mid_run"]

    def test_no_epoch_change_keeps_cache_hot(self):
        """Re-running without an mprotect must not recompile: the heap
        is pre-mapped, so plain execution never bumps the epoch."""
        process = Process(name="inval-hot")
        module = _helper_module()
        image = Image(module, process)
        interp = Interpreter(image, options=ExecOptions())
        interp.run("helper", [5])
        compiled_once = interp.compiled_functions
        interp.run("helper", [6])
        assert interp.compiled_functions == compiled_once


class TestForkChildDivergence:
    def test_process_rebind_flushes_caches(self):
        """The traffic engine's worker pattern: an interpreter pointed
        at a different process must rebuild every cache."""
        process = Process(name="parent")
        image = Image(_helper_module(), process)
        interp = Interpreter(image, options=ExecOptions())
        parent_result = interp.run("helper", [5])
        compiled_before = interp.compiled_functions

        child = Process(name="child")
        interp.process = child
        child_result = interp.run("helper", [5])
        assert child_result == parent_result
        assert interp._cache_process is child
        assert interp._cache_epoch == child.memory.prot_epoch
        assert interp.compiled_functions == compiled_before + 1

    def test_fork_mid_block_identical_across_tiers(self):
        """SYS_FORK lands mid-block between fused groups; the fork, the
        child registration, and the post-fork icalls must be
        step-identical to the closure tier's recorded run."""
        result = run_program(_build_forker(), design="hq-sfestk",
                             channel="model")
        snapshot = (result.outcome, result.exit_status, result.steps,
                    result.cycles, tuple(result.output),
                    result.messages_sent,
                    tuple((v.kind, v.detail) for v in result.violations))
        assert as_json(snapshot) == \
            GOLDENS["invalidation"]["fork_mid_block"]
