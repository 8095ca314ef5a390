"""Tests for the IR interpreter (repro.sim.cpu)."""

import pytest

from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.types import ArrayType, I64, StructType, func, ptr
from repro.sim.cpu import (
    ExecOptions,
    ExecutionLimitExceeded,
    Interpreter,
    ProgramCrash,
    SYS_WRITE,
)
from repro.sim.loader import Image
from repro.sim.memory import SegmentationFault, WORD_SIZE
from repro.sim.process import Process

FP_ONE = 1 << 16


def simple_main():
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    return module, mainf, IRBuilder(mainf.add_block("entry"))


class RunsPrograms:
    """Builds an interpreter for a module and runs its ``main``."""

    def options(self, **knobs):
        return ExecOptions(**knobs)

    def run_main(self, module, options=None):
        module.verify()
        image = Image(module, Process())
        interpreter = Interpreter(image, options=options or self.options())
        result = interpreter.run("main", [])
        return result, interpreter


class TestArithmetic(RunsPrograms):
    @pytest.mark.parametrize("op,lhs,rhs,expected", [
        ("add", 3, 4, 7), ("sub", 9, 4, 5), ("mul", 6, 7, 42),
        ("div", 17, 5, 3), ("rem", 17, 5, 2), ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110), ("xor", 0b1100, 0b1010, 0b0110),
        ("shl", 1, 4, 16), ("shr", 32, 2, 8),
    ])
    def test_binops(self, op, lhs, rhs, expected):
        module, mainf, b = simple_main()
        b.ret(b.binop(op, b.const(lhs), b.const(rhs)))
        result, _ = self.run_main(module)
        assert result == expected

    def test_division_by_zero_crashes(self):
        module, mainf, b = simple_main()
        b.ret(b.binop("div", b.const(1), b.const(0)))
        with pytest.raises(ProgramCrash):
            self.run_main(module)

    @pytest.mark.parametrize("op,lhs,rhs,expected", [
        ("eq", 3, 3, 1), ("ne", 3, 3, 0), ("lt", 2, 3, 1),
        ("le", 3, 3, 1), ("gt", 3, 2, 1), ("ge", 2, 3, 0),
    ])
    def test_comparisons(self, op, lhs, rhs, expected):
        module, mainf, b = simple_main()
        b.ret(b.cmp(op, b.const(lhs), b.const(rhs)))
        result, _ = self.run_main(module)
        assert result == expected

    def test_select(self):
        module, mainf, b = simple_main()
        b.ret(b.select(b.const(0), b.const(10), b.const(20)))
        result, _ = self.run_main(module)
        assert result == 20

    def test_fixed_point_float_ops(self):
        module, mainf, b = simple_main()
        product = b.binop("fmul", b.const(2 * FP_ONE), b.const(3 * FP_ONE))
        b.ret(product)
        result, _ = self.run_main(module)
        assert result == 6 * FP_ONE

    def test_precision_loss_truncates_float_results(self):
        def build():
            module, mainf, b = simple_main()
            b.ret(b.binop("fmul", b.const(123457), b.const(78901)))
            return module
        exact, _ = self.run_main(build())
        lossy, _ = self.run_main(build(),
                                 self.options(fp_precision_loss=True))
        assert lossy == exact & ~0xFF
        assert lossy != exact


class TestControlFlow(RunsPrograms):
    def test_loop_with_phis(self):
        module, mainf, b = simple_main()
        entry = mainf.entry
        loop = mainf.add_block("loop")
        done = mainf.add_block("done")
        b.br(loop)
        b.position_at_end(loop)
        i = ir.Phi(I64, "i")
        loop.append(i)
        total = ir.Phi(I64, "total")
        loop.append(total)
        i.add_incoming(b.const(0), entry)
        total.add_incoming(b.const(0), entry)
        total2 = b.add(total, i)
        i2 = b.add(i, b.const(1))
        i.add_incoming(i2, loop)
        total.add_incoming(total2, loop)
        b.cond_br(b.cmp("lt", i2, b.const(10)), loop, done)
        b.position_at_end(done)
        b.ret(total2)
        result, _ = self.run_main(module)
        assert result == sum(range(10))

    def test_step_limit_detects_hangs(self):
        module, mainf, b = simple_main()
        loop = mainf.add_block("loop")
        b.br(loop)
        IRBuilder(loop).br(loop)
        with pytest.raises(ExecutionLimitExceeded):
            self.run_main(module, self.options(max_steps=100))

    def test_fallthrough_block_crashes(self):
        module, mainf, _ = simple_main()
        # Bypass the builder to create an unterminated block.
        bad = ir.BinOp("add", ir.Constant(1), ir.Constant(2))
        mainf.entry.instructions.append(bad)
        process = Process()
        image = Image(module, process)
        with pytest.raises(ProgramCrash):
            Interpreter(image, options=self.options()).run("main")

    def test_unknown_instruction_crashes(self):
        class Bogus(ir.Instruction):
            opname = "bogus"

        module, mainf, b = simple_main()
        b._emit(Bogus())
        b.ret(b.const(0))
        image = Image(module, Process())
        with pytest.raises(ProgramCrash, match="unknown instruction bogus"):
            Interpreter(image, options=self.options()).run("main")


class TestCallsAndMemory(RunsPrograms):
    def test_direct_call_passes_args(self):
        module = ir.Module()
        callee = module.add_function("callee", func(I64, [I64, I64]))
        cb = IRBuilder(callee.add_block("entry"))
        cb.ret(cb.sub(callee.params[0], callee.params[1]))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.call(callee, [b.const(10), b.const(4)]))
        result, _ = self.run_main(module)
        assert result == 6

    def test_recursion(self):
        module = ir.Module()
        fact = module.add_function("fact", func(I64, [I64]))
        entry = fact.add_block("entry")
        rec = fact.add_block("rec")
        base = fact.add_block("base")
        b = IRBuilder(entry)
        b.cond_br(b.cmp("le", fact.params[0], b.const(1)), base, rec)
        b.position_at_end(base)
        b.ret(b.const(1))
        b.position_at_end(rec)
        n1 = b.sub(fact.params[0], b.const(1))
        b.ret(b.mul(fact.params[0], b.call(fact, [n1])))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.call(fact, [b.const(6)]))
        result, _ = self.run_main(module)
        assert result == 720

    def test_indirect_call_through_memory(self):
        module = ir.Module()
        sig = func(I64, [I64])
        target = module.add_function("target", sig)
        tb = IRBuilder(target.add_block("entry"))
        tb.ret(tb.mul(target.params[0], tb.const(3)))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        slot = b.alloca(ptr(sig))
        b.store(ir.FunctionRef(target), slot)
        b.ret(b.icall(b.load(slot), [b.const(5)], sig))
        result, _ = self.run_main(module)
        assert result == 15

    def test_icall_to_garbage_crashes(self):
        module, mainf, b = simple_main()
        fake = b.cast(b.const(0xDEAD_0000), ptr(func(I64, [])))
        b.ret(b.icall(fake, [], func(I64, [])))
        with pytest.raises(ProgramCrash):
            self.run_main(module)

    @staticmethod
    def _short_call_module(body):
        """main calls ``callee(a, b)`` with only ``a`` = 10."""
        module = ir.Module()
        callee = module.add_function("callee", func(I64, [I64, I64]))
        cb = IRBuilder(callee.add_block("entry"))
        cb.ret(body(cb, *callee.params))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.call(callee, [b.const(10)]))
        return module

    def test_missing_argument_call_runs_on_the_vm(self):
        module = self._short_call_module(
            lambda b, a, _: b.add(a, b.const(1)))
        result, interpreter = self.run_main(module)
        assert result == 11
        callee = module.functions["callee"]
        # The short call ran a variant lowered for one argument.
        assert (id(callee), 1) in interpreter._vm_cache
        assert id(callee) not in interpreter._vm_cache

    def test_reading_a_missing_parameter_raises(self):
        module = self._short_call_module(lambda b, a, missing: b.add(
            b.mul(a, b.const(2)), missing))
        missing = module.functions["callee"].params[1].name
        with pytest.raises(ProgramCrash,
                           match=f"^use of undefined value {missing}$"):
            self.run_main(module)

    def test_short_call_after_a_full_call_reads_undefined(self):
        """The full call's lowering must not serve the short call."""
        module = ir.Module()
        callee = module.add_function("callee", func(I64, [I64, I64]))
        cb = IRBuilder(callee.add_block("entry"))
        cb.ret(cb.add(*callee.params))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        full = b.call(callee, [b.const(10), b.const(5)])
        b.ret(b.add(full, b.call(callee, [b.const(10)])))
        missing = callee.params[1].name
        with pytest.raises(ProgramCrash,
                           match=f"^use of undefined value {missing}$"):
            self.run_main(module)

    def test_call_to_declaration_crashes(self):
        module = ir.Module()
        external = module.add_function("external", func(I64, []))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.call(external, []))
        with pytest.raises(ProgramCrash):
            self.run_main(module)

    def test_struct_field_access(self):
        record = StructType("Pair", [("a", I64), ("b", I64)])
        module, mainf, b = simple_main()
        pair = b.alloca(record)
        b.store(b.const(11), b.gep_field(pair, "a"))
        b.store(b.const(22), b.gep_field(pair, "b"))
        b.ret(b.load(b.gep_field(pair, "b")))
        result, _ = self.run_main(module)
        assert result == 22

    def test_gep_to_a_missing_field_raises_when_run(self):
        record = StructType("Pair", [("a", I64), ("b", I64)])
        module, mainf, b = simple_main()
        gep = b.gep_field(b.alloca(record), "a")
        gep.field = "c"  # malformed after construction
        b.ret(b.load(gep))
        with pytest.raises(KeyError, match="no field 'c'"):
            self.run_main(module)

    def test_array_indexing(self):
        module, mainf, b = simple_main()
        arr = b.alloca(ArrayType(I64, 4))
        for i in range(4):
            b.store(b.const(i * i), b.gep_index(arr, b.const(i)))
        b.ret(b.load(b.gep_index(arr, b.const(3))))
        result, _ = self.run_main(module)
        assert result == 9

    def test_heap_intrinsics(self):
        module, mainf, b = simple_main()
        block = b.malloc(b.const(16))
        b.store(b.const(55), block)
        value = b.load(block)
        b.free(block)
        b.ret(value)
        result, _ = self.run_main(module)
        assert result == 55

    def test_realloc_preserves_contents(self):
        module, mainf, b = simple_main()
        block = b.malloc(b.const(16))
        b.store(b.const(99), block)
        bigger = b.realloc(block, b.const(128))
        b.ret(b.load(bigger))
        result, _ = self.run_main(module)
        assert result == 99

    def test_memcpy_moves_words(self):
        module, mainf, b = simple_main()
        src = b.alloca(ArrayType(I64, 2))
        dst = b.alloca(ArrayType(I64, 2))
        b.store(b.const(7), b.gep_index(src, b.const(1)))
        b.memcpy(dst, src, b.const(16))
        b.ret(b.load(b.gep_index(dst, b.const(1))))
        result, _ = self.run_main(module)
        assert result == 7

    def test_syscall_write_captured(self):
        module, mainf, b = simple_main()
        b.syscall(SYS_WRITE, [b.const(1), b.const(1234), b.const(8)])
        b.ret(b.const(0))
        _, interpreter = self.run_main(module)
        assert interpreter.output == [1234]


class TestSetjmpLongjmp(RunsPrograms):
    def _build(self):
        """main: if setjmp(buf) == 0: helper(buf) else: return 42."""
        module = ir.Module()
        helper = module.add_function("helper", func(I64, [ptr(I64)]))
        hb = IRBuilder(helper.add_block("entry"))
        hb.longjmp(helper.params[0], hb.const(1))
        mainf = module.add_function("main", func(I64, []))
        entry = mainf.add_block("entry")
        first = mainf.add_block("first")
        second = mainf.add_block("second")
        b = IRBuilder(entry)
        buf = b.alloca(ArrayType(I64, 2), "jmpbuf")
        token = b.setjmp(buf)
        b.cond_br(b.cmp("eq", token, b.const(0)), first, second)
        b.position_at_end(first)
        b.call(helper, [b.cast(buf, ptr(I64))])
        b.ret(b.const(-1))
        b.position_at_end(second)
        b.ret(b.const(42))
        return module, buf

    def test_longjmp_resumes_at_setjmp(self):
        module, _ = self._build()
        result, _ = self.run_main(module)
        assert result == 42

    def test_longjmp_lands_in_the_activation_that_ran_the_setjmp(self):
        """f's outer activation runs setjmp; its recursive inner
        activation calls g, which longjmps.  Control must land in the
        outer activation (105), not in the nearest activation of f
        (whose result the outer one would return minus one: 104)."""
        module = ir.Module()
        g = module.add_function("g", func(I64, [ptr(I64)]))
        gb = IRBuilder(g.add_block("entry"))
        gb.longjmp(g.params[0], gb.const(5))
        f = module.add_function("f", func(I64, [I64, ptr(I64)]))
        entry, outer, first, landed, inner = (
            f.add_block(name)
            for name in ("entry", "outer", "first", "landed", "inner"))
        b = IRBuilder(entry)
        buf = b.alloca(ArrayType(I64, 2), "jmpbuf")
        b.cond_br(b.cmp("eq", f.params[0], b.const(0)), outer, inner)
        b.position_at_end(outer)
        token = b.setjmp(buf)
        b.cond_br(b.cmp("eq", token, b.const(0)), first, landed)
        b.position_at_end(first)
        nested = b.call(f, [b.const(1), b.cast(buf, ptr(I64))])
        b.ret(b.sub(nested, b.const(1)))
        b.position_at_end(landed)
        b.ret(b.add(token, b.const(100)))
        b.position_at_end(inner)
        b.call(g, [f.params[1]])
        b.ret(b.const(-1))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.call(f, [b.const(0), b.cast(b.const(0), ptr(I64))]))
        result, interpreter = self.run_main(module)
        assert result == 105
        assert interpreter.call_stack == []

    def test_longjmp_in_the_setjmp_activation_resumes_there(self):
        module, mainf, b = simple_main()
        first = mainf.add_block("first")
        landed = mainf.add_block("landed")
        buf = b.alloca(ArrayType(I64, 2), "jmpbuf")
        token = b.setjmp(buf)
        b.cond_br(b.cmp("eq", token, b.const(0)), first, landed)
        b.position_at_end(first)
        b.longjmp(b.cast(buf, ptr(I64)), b.const(7))
        b.position_at_end(landed)
        b.ret(b.add(token, b.const(100)))
        result, _ = self.run_main(module)
        assert result == 107

    def test_longjmp_to_a_returned_activation_crashes(self):
        """The setjmp's activation has returned, so no live activation
        can take the longjmp: the run fails closed."""
        module = ir.Module()
        arm = module.add_function("arm", func(I64, [ptr(I64)]))
        ab = IRBuilder(arm.add_block("entry"))
        ab.ret(ab.setjmp(arm.params[0]))
        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        buf = b.cast(b.alloca(ArrayType(I64, 2), "jmpbuf"), ptr(I64))
        b.call(arm, [buf])
        b.longjmp(buf, b.const(1))
        with pytest.raises(ProgramCrash, match="activation has returned"):
            self.run_main(module)

    def test_corrupted_jmpbuf_hijacks(self):
        """Overwriting the jmp_buf internal pointer redirects the
        longjmp to the attacker's target (section 4.1.3 protects it)."""
        module = ir.Module()
        evil = module.add_function("evil", func(I64, []))
        IRBuilder(evil.add_block("entry")).ret(ir.Constant(666))
        helper = module.add_function("helper", func(I64, [ptr(I64)]))
        hb = IRBuilder(helper.add_block("entry"))
        hb.longjmp(helper.params[0], hb.const(1))
        mainf = module.add_function("main", func(I64, []))
        entry = mainf.add_block("entry")
        first = mainf.add_block("first")
        second = mainf.add_block("second")
        b = IRBuilder(entry)
        buf = b.alloca(ArrayType(I64, 2), "jmpbuf")
        token = b.setjmp(buf)
        b.cond_br(b.cmp("eq", token, b.const(0)), first, second)
        b.position_at_end(first)
        # The corruption: an attacker write lands on the jmp_buf slot
        # between setjmp and longjmp.
        b.store(b.cast(ir.FunctionRef(evil), I64), b.cast(buf, ptr(I64)))
        b.call(helper, [b.cast(buf, ptr(I64))])
        b.ret(b.const(-1))
        b.position_at_end(second)
        b.ret(b.const(42))
        module.verify()
        process = Process()
        image = Image(module, process)
        interpreter = Interpreter(image, options=self.options())
        try:
            interpreter.run("main")
        except ProgramCrash:
            pass
        assert any(h.kind == "longjmp" for h in interpreter.hijacks)


class TestReturnAddressMechanics(RunsPrograms):
    def _overflow_module(self, overflow_words):
        """vuln() copies attacker words over its frame, then returns."""
        module = ir.Module()
        evil = module.add_function("evil", func(I64, []))
        IRBuilder(evil.add_block("entry")).ret(ir.Constant(666))

        inp = module.add_global("inp", ArrayType(I64, 8),
                                initializer=[ir.Constant(0)] * 8)
        vuln = module.add_function("vuln", func(I64, []))
        b = IRBuilder(vuln.add_block("entry"))
        buf = b.alloca(ArrayType(I64, 2), "buf")
        b.memcpy(buf, inp, b.const(overflow_words * WORD_SIZE))
        b.ret(b.const(0))

        mainf = module.add_function("main", func(I64, []))
        b = IRBuilder(mainf.add_block("entry"))
        b.call(vuln, [])
        b.ret(b.const(1))
        return module, inp

    def _run(self, overflow_words, options=None):
        module, inp = self._overflow_module(overflow_words)
        module.verify()
        process = Process()
        image = Image(module, process)
        interpreter = Interpreter(image, options=options or self.options())
        evil_address = image.function_address["evil"]
        base = image.global_address["inp"]
        for i in range(8):
            process.memory.store_physical(base + i * WORD_SIZE,
                                          evil_address)
        try:
            interpreter.run("main")
        except (ProgramCrash, SegmentationFault):
            pass
        return interpreter

    def test_in_bounds_copy_returns_normally(self):
        interpreter = self._run(overflow_words=2)
        assert interpreter.hijacks == []

    def test_overflow_reaches_return_address(self):
        interpreter = self._run(overflow_words=3)
        assert any(h.kind == "return" for h in interpreter.hijacks)

    def test_safe_stack_protects_return_address(self):
        interpreter = self._run(overflow_words=3,
                                options=self.options(safe_stack=True))
        assert interpreter.hijacks == []

    def test_builtin_ret_slot_discloses_safe_stack(self):
        module = ir.Module()
        mainf = module.add_function("main", func(I64, []))
        inner = module.add_function("inner", func(I64, []))
        b = IRBuilder(inner.add_block("entry"))
        slot = b._emit(ir.RuntimeCall("builtin_ret_slot", [], I64))
        b.ret(slot)
        b = IRBuilder(mainf.add_block("entry"))
        b.ret(b.call(inner, []))
        module.verify()
        process = Process()
        image = Image(module, process)
        options = self.options(safe_stack=True, aslr=False)
        interpreter = Interpreter(image, options=options)
        slot_address = interpreter.run("main")
        assert interpreter.safe_stack_base is not None
        assert interpreter.safe_stack_base <= slot_address \
            < interpreter.safe_stack_base + (1 << 16)


class TestSafeStackLayouts:
    def test_guarded_safe_stack_has_guard_page(self):
        module, mainf, b = simple_main()
        b.ret(b.const(0))
        module.verify()
        process = Process()
        image = Image(module, process)
        interpreter = Interpreter(image, options=ExecOptions(
            safe_stack=True, safe_stack_guard=True, aslr=False))
        guard_address = interpreter.safe_stack_base - 8
        with pytest.raises(SegmentationFault):
            process.memory.store(guard_address, 1)

    def test_adjacent_safe_stack_touches_stack_top(self):
        from repro.sim.process import STACK_TOP
        module, mainf, b = simple_main()
        b.ret(b.const(0))
        module.verify()
        process = Process()
        image = Image(module, process)
        interpreter = Interpreter(image, options=ExecOptions(
            safe_stack=True, safe_stack_adjacent=True))
        assert interpreter.safe_stack_base == STACK_TOP
        process.memory.store(STACK_TOP, 7)  # writable, no guard

    def test_aslr_randomizes_safe_stack_base(self):
        bases = set()
        for seed in range(4):
            module, mainf, b = simple_main()
            b.ret(b.const(0))
            module.verify()
            image = Image(module, Process())
            interpreter = Interpreter(image, options=ExecOptions(
                safe_stack=True, aslr=True, seed=seed))
            bases.add(interpreter.safe_stack_base)
        assert len(bases) > 1
