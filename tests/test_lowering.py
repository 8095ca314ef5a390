"""The lowering's kernel memo and bitmask definedness (repro.sim.lower).

Kernel superinstructions are memoized process-wide by a digest of their
source text, so identical kernels compile once and serve every
function, interpreter and process that generates them.  The must-defined
dataflow runs on int bitmasks over ``value_numbering`` indices; the
set-based flow it replaced lives on here as the reference.  A read the
flow cannot prove defined is a checked read of an undefined register.
"""

import builtins

import pytest

from repro.cfi.designs import DESIGNS, get_design
from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.passes.base import PassManager
from repro.compiler.types import I64, func
from repro.core.framework import run_program
from repro.sim import lower, vm
from repro.sim.cpu import ExecOptions, Interpreter, ProgramCrash
from repro.sim.loader import Image
from repro.sim.process import Process
from repro.workloads.generator import build_module
from repro.workloads.profiles import PROFILES, get_profile


def _load(module, options=None):
    process = Process(name=module.name)
    interp = Interpreter(Image(module, process),
                         options=options or ExecOptions())
    return process, interp


def _kernels(interp, function):
    compiled = interp._vm_cache[id(function)]
    assert compiled.kernels
    return compiled.kernels


def _global_store_module():
    """main(x): counter = x * 3 + 1, read back through memory.  The
    straight-line body is one fused group, hence one kernel."""
    module = ir.Module("memo")
    counter = module.add_global("counter", I64)
    main = module.add_function("main", func(I64, [I64]))
    b = IRBuilder(main.add_block("entry"))
    b.store(b.add(b.mul(main.params[0], b.const(3)), b.const(1)), counter)
    b.ret(b.add(b.load(counter), b.const(0)))
    return module


def _division_module():
    """main(a, b): a / b + a % b, one kernel holding both divisions."""
    module = ir.Module("divide")
    main = module.add_function("main", func(I64, [I64, I64]))
    b = IRBuilder(main.add_block("entry"))
    a, d = main.params
    b.ret(b.add(b.binop("div", a, d), b.binop("rem", a, d)))
    return module


# -- kernel memo -------------------------------------------------------------

def test_identical_kernel_text_is_one_function_across_processes():
    first, second = _global_store_module(), _global_store_module()
    process_a, interp_a = _load(first)
    process_b, interp_b = _load(second)
    assert interp_a.run("main", [5]) == 16
    assert interp_b.run("main", [7]) == 22
    kernel_a = _kernels(interp_a, first.functions["main"])
    kernel_b = _kernels(interp_b, second.functions["main"])
    assert kernel_a == kernel_b and kernel_a[0] is kernel_b[0]
    # One kernel, two memories: each run wrote only its own counter.
    address = first.globals["counter"].address
    assert address == second.globals["counter"].address
    assert process_a.memory.load(address) == 16
    assert process_b.memory.load(address) == 22


def test_kernel_globals_hold_only_program_crash_and_kernels():
    run_program(build_module(get_profile("403.gcc")), design="hq-retptr")
    kernels = list(lower._KERNELS.values())
    assert kernels
    for kernel in kernels:
        assert kernel.__code__.co_filename == "<vm-kernels>"
        assert kernel.__code__.co_varnames[:4] == \
            ("regs", "load", "store", "fbin")
        namespace = kernel.__globals__
        assert namespace["ProgramCrash"] is ProgramCrash
        others = [value for name, value in namespace.items()
                  if name not in ("ProgramCrash", "__builtins__")]
        assert all(any(value is k for k in kernels) for value in others)


def test_shared_division_kernel_crashes_every_run():
    runs = []
    for _ in range(2):
        module = _division_module()
        _, interp = _load(module)
        assert interp.run("main", [17, 5]) == 3 + 2
        for _ in range(2):
            with pytest.raises(ProgramCrash, match="^division by zero$"):
                interp.run("main", [17, 0])
        runs.append(_kernels(interp, module.functions["main"])[0])
    assert runs[0] is runs[1]


def test_second_identical_run_compiles_nothing(monkeypatch):
    profile = get_profile("403.gcc")
    first = run_program(build_module(profile), design="hq-sfestk")

    compiled_sources = []
    kernels_served = []
    real_kernels = lower._Lowering._compile_kernels

    def counting_compile(*args, **kwargs):
        compiled_sources.append(args[0])
        return builtins.compile(*args, **kwargs)

    def spying_kernels(self):
        kernels = real_kernels(self)
        kernels_served.extend(kernels)
        return kernels

    monkeypatch.setattr(lower, "compile", counting_compile, raising=False)
    monkeypatch.setattr(lower._Lowering, "_compile_kernels", spying_kernels)
    second = run_program(build_module(profile), design="hq-sfestk")
    assert kernels_served
    assert compiled_sources == []
    assert (second.outcome, second.steps, second.cycles) == \
        (first.outcome, first.steps, first.cycles)


# -- bitmask definedness -----------------------------------------------------

def _one_branch_module():
    """main(c): x is assigned only when c != 0, but read on both paths."""
    module = ir.Module("one-branch")
    main = module.add_function("main", func(I64, [I64]))
    entry, then, join = (main.add_block(name)
                         for name in ("entry", "then", "join"))
    b = IRBuilder(entry)
    b.cond_br(main.params[0], then, join)
    b.position_at_end(then)
    x = b.add(main.params[0], b.const(1), name="x")
    b.br(join)
    b.position_at_end(join)
    b.ret(b.add(x, b.const(1)))
    return module


def test_value_defined_on_one_branch_is_a_checked_read():
    module = _one_branch_module()
    main = module.functions["main"]
    _, interp = _load(module)
    assert isinstance(lower.lower_function(interp, main),
                      vm.CompiledFunction)
    assert interp.run("main", [1]) == 3
    with pytest.raises(ProgramCrash, match="^use of undefined value x$"):
        interp.run("main", [0])


def _set_flow(lowering):
    """The set-based flow the bitmask flow replaced: names assigned on
    every path to each block's entry, and each block's defined names."""
    function = lowering.function
    base = {param.name for param in function.params}
    for instruction in function.instructions():
        if type(instruction) is ir.Alloca:
            base.add(instruction.name)
    defs = {}
    for block in function.blocks:
        names = {phi.name for phi in lowering.leading_phis[id(block)]}
        for instruction in block.instructions:
            if isinstance(instruction, lower._DEFINING) and \
                    type(instruction) is not ir.Phi:
                names.add(instruction.name)
        defs[id(block)] = names
    preds = {id(block): [] for block in function.blocks}
    for block in function.blocks:
        for successor in block.successors:
            preds[id(successor)].append(block)
    universe = set(lowering.numbering) | base
    ins = {id(block): set(universe) for block in function.blocks}
    ins[id(function.entry)] = set(base)
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            if block is function.entry or not preds[id(block)]:
                continue
            new = set(universe)
            for pred in preds[id(block)]:
                new &= ins[id(pred)] | defs[id(pred)]
            if new != ins[id(block)]:
                ins[id(block)] = new
                changed = True
    return ins, defs


def _mask(numbering, names):
    mask = 0
    for name in names:
        mask |= 1 << numbering[name]
    return mask


def _names(numbering, mask):
    return {name for name, index in numbering.items() if mask >> index & 1}


class _SetFlowLowering(lower._Lowering):
    """A lowering whose emitter reads the set-based flow's verdicts."""

    def _flow(self):
        ins, defs = _set_flow(self)
        self._ins = {key: _mask(self.numbering, names)
                     for key, names in ins.items()}
        self._defs = {key: _mask(self.numbering, names)
                      for key, names in defs.items()}
        self._phi_defs = {
            id(block): _mask(self.numbering, (phi.name for phi in
                                              self.leading_phis[id(block)]))
            for block in self.function.blocks}
        return self._ins


def _corpus():
    """Every (profile, design) pair compiled and loaded, then the
    one-branch module, whose read of ``x`` the flow cannot prove."""
    for profile in PROFILES:
        for design in sorted(DESIGNS):
            config = get_design(design)
            module = build_module(profile)
            PassManager(config.passes()).run(module)
            yield _load(module, config.exec_options())[1]
    yield _load(_one_branch_module())[1]


def test_bitmask_flow_matches_the_set_flow_on_the_corpus():
    functions = 0
    for interp in _corpus():
        for function in interp.image.module.functions.values():
            if function.is_declaration:
                continue
            lowering = lower._Lowering(interp, function)
            lowering._scan()
            numbering = lowering.numbering
            ins = lowering._flow()
            ref_ins, ref_defs = _set_flow(lowering)
            assert {key: _names(numbering, mask)
                    for key, mask in ins.items()} == ref_ins
            assert {key: _names(numbering, mask)
                    for key, mask in lowering._defs.items()} == ref_defs
            bitmask = lower.lower_function(interp, function)
            reference = _SetFlowLowering(interp, function).build()
            assert bitmask.code == reference.code
            functions += 1
    assert functions > 1000
