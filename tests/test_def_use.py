"""The def-use index behind ``uses_of`` (repro.compiler.ir).

``Function.users`` answers from an index built on the first query and
kept current by every IR mutation method.  Each test here compares it
with a brute-force scan of the function, kept in this file as the
reference the index replaced.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cfi.cpi import CPIPass
from repro.cfi.designs import DESIGNS, get_design
from repro.compiler import ir
from repro.compiler.analysis import uses_of
from repro.compiler.builder import IRBuilder
from repro.compiler.passes.base import PassManager
from repro.compiler.passes.devirtualize import DevirtualizationPass
from repro.compiler.printer import format_module
from repro.compiler.types import I64, func, ptr
from repro.workloads.generator import build_module
from repro.workloads.profiles import PROFILES, get_profile


def scan_users(function, value):
    """The brute-force reference: every instruction of ``function``
    with ``value`` among its operands."""
    return [instruction for instruction in function.instructions()
            if any(operand is value for operand in instruction.operands)]


def operand_values(function):
    """Every value some instruction of ``function`` uses, plus the
    instructions and parameters themselves."""
    values = {}
    for param in function.params:
        values[id(param)] = param
    for instruction in function.instructions():
        values[id(instruction)] = instruction
        for operand in instruction.operands:
            values[id(operand)] = operand
    return list(values.values())


def assert_index_matches_scan(function, extra=()):
    for value in operand_values(function) + list(extra):
        assert set(uses_of(function, value)) == \
            set(scan_users(function, value)), value


# -- random mutation sequences -----------------------------------------------

_OPS = ("append", "insert", "remove", "replace", "incoming", "retarget",
        "query", "drop")

SIG = func(I64, [I64, I64])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_tracks_random_mutations(data):
    module = ir.Module()
    f = module.add_function("f", SIG)
    blocks = [f.add_block(f"b{i}") for i in range(3)]
    constants = [ir.Constant(n) for n in range(3)]
    created = []  # every instruction ever built, in a block or not

    def pick_value():
        pool = list(f.params) + constants + created
        return data.draw(st.sampled_from(pool))

    def new_instruction():
        kind = data.draw(st.sampled_from(("binop", "cast", "phi", "icall",
                                          "store")))
        if kind == "binop":
            return ir.BinOp("add", pick_value(), pick_value())
        if kind == "cast":
            return ir.Cast(pick_value(), I64)
        if kind == "phi":
            phi = ir.Phi(I64)
            phi.add_incoming(pick_value(), data.draw(st.sampled_from(blocks)))
            return phi
        if kind == "icall":
            args = [pick_value() for _ in range(data.draw(st.integers(0, 2)))]
            return ir.ICall(pick_value(), args, func(I64, [I64] * len(args)))
        return ir.Store(pick_value(), pick_value())

    def placed():
        return list(f.instructions())

    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(_OPS))
        block = data.draw(st.sampled_from(blocks))
        if op == "append":
            instruction = new_instruction()
            created.append(instruction)
            block.append(instruction)
        elif op == "insert":
            instruction = new_instruction()
            created.append(instruction)
            index = data.draw(st.integers(0, len(block.instructions)))
            block.insert(index, instruction)
        elif op == "remove" and placed():
            victim = data.draw(st.sampled_from(placed()))
            victim.block.remove(victim)
        elif op == "replace" and placed():
            user = data.draw(st.sampled_from(placed()))
            operands = user.operands
            old = data.draw(st.sampled_from(operands)) if operands \
                else pick_value()
            user.replace_operand(old, pick_value())
        elif op == "incoming":
            phis = [i for i in placed() if isinstance(i, ir.Phi)]
            if phis:
                data.draw(st.sampled_from(phis)).add_incoming(
                    pick_value(), block)
        elif op == "retarget":
            icalls = [i for i in placed() if isinstance(i, ir.ICall)]
            if icalls:
                data.draw(st.sampled_from(icalls)).retarget(pick_value())
        elif op == "query":
            # Builds the index mid-sequence; later steps must keep it.
            value = pick_value()
            assert set(uses_of(f, value)) == set(scan_users(f, value))
        elif op == "drop":
            f.drop_uses()
    assert_index_matches_scan(f, extra=created + constants)


def test_removed_instruction_stops_using_but_keeps_its_users():
    module = ir.Module()
    f = module.add_function("f", SIG)
    b = IRBuilder(f.add_block("entry"))
    x = b.add(f.params[0], f.params[1])
    y = b.mul(x, x)
    z = b.add(y, f.params[0])
    assert uses_of(f, x) == [y]
    y.block.remove(y)
    assert uses_of(f, x) == []
    # z still names y: a dangling use stays visible, as a scan sees it.
    assert uses_of(f, y) == [z]


def test_retarget_keeps_an_argument_that_is_the_old_target():
    module = ir.Module()
    f = module.add_function("f", func(I64, [ptr(func(I64, [I64]))]))
    b = IRBuilder(f.add_block("entry"))
    target = f.params[0]
    icall = b.icall(target, [target], func(I64, [I64]))
    replacement = b.cast(target, target.type)
    assert uses_of(f, target) == [icall, replacement]
    icall.retarget(replacement)
    assert icall.target is replacement and icall.args == [target]
    assert set(uses_of(f, target)) == {icall, replacement}
    assert uses_of(f, replacement) == [icall]


# -- index lifetime and pass rewrites ----------------------------------------

def test_no_index_survives_the_pass_manager():
    module = build_module(get_profile("403.gcc"))
    PassManager(get_design("hq-retptr").passes()).run(module)
    assert all(function._uses is None
               for function in module.functions.values())


def _devirtualizable_module():
    """An icall through a FunctionRef (traced to a unique target) whose
    result feeds two later instructions."""
    module = ir.Module()
    callee = module.add_function("callee", func(I64, [I64]))
    IRBuilder(callee.add_block("entry")).ret(callee.params[0])
    f = module.add_function("f", func(I64, [I64]))
    b = IRBuilder(f.add_block("entry"))
    pointer = b.cast(ir.FunctionRef(callee), ptr(func(I64, [I64])))
    result = b.icall(pointer, [f.params[0]], func(I64, [I64]))
    doubled = b.add(result, result)
    b.ret(b.add(doubled, result))
    return module, f, result


def test_devirtualize_leaves_the_index_equal_to_a_rescan():
    module, f, icall = _devirtualizable_module()
    uses_of(f, icall)  # index built before the rewrite
    pass_ = DevirtualizationPass()
    pass_.run(module)
    assert pass_.stats == {"calls-devirtualized": 1}
    call = next(i for i in f.instructions() if isinstance(i, ir.Call))
    assert uses_of(f, icall) == []
    assert len(uses_of(f, call)) == 2
    assert_index_matches_scan(f, extra=[icall])


def test_cpi_redirect_leaves_the_index_equal_to_a_rescan():
    module = build_module(get_profile("400.perlbench"))
    pass_ = CPIPass()
    pass_.run(module)
    retargeted = [i for i in module.all_instructions()
                  if isinstance(i, ir.ICall)
                  and isinstance(i.target, ir.RuntimeCall)
                  and i.target.runtime_name == "cpi_load"]
    assert len(retargeted) == pass_.stats["loads-redirected"] > 0
    indexed = [function for function in module.functions.values()
               if function._uses is not None]
    assert indexed
    for function in indexed:
        assert_index_matches_scan(function)


def test_corpus_compiles_identically_with_a_brute_force_scan(monkeypatch):
    """Every (profile, design) pair prints the same IR and pass stats
    when the index is replaced by the scan it superseded."""

    def compile_all():
        # Fresh auto-names (``v<N>``) per side, so both print alike.
        monkeypatch.setattr(ir.Instruction, "_ids", itertools.count())
        outputs = []
        for profile in PROFILES:
            for design in sorted(DESIGNS):
                module = build_module(profile)
                stats = PassManager(get_design(design).passes()).run(module)
                outputs.append((profile.name, design, format_module(module),
                                stats))
        return outputs

    indexed = compile_all()
    monkeypatch.setattr(ir.Function, "users", scan_users)
    scanned = compile_all()
    assert len(indexed) == 336
    assert indexed == scanned
