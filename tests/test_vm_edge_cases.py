"""Programs off the workloads' beaten path, against recorded goldens.

Each program here reads a value no path has assigned yet (a parameter a
short call left out, a value assigned on one branch, a stray phi),
references something outside the image, is malformed, or uses
``setjmp``.  The closure tier ran each one at the commit named in
``tests/vm_goldens.json`` and recorded its result or exception, step
count, cycle buckets and hijacks under ``edge_cases``; the register VM
must reproduce every record exactly.  A recorded exception is what the
run raises; the steps and cycles are those charged before it.  The
same runs with an observer attached recorded the per-block counters
under ``observed_edge_cases``.
"""

import pytest

from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.types import ArrayType, I64, StructType, func, ptr
from repro.obs.observer import BLOCK_SIZE_EDGES, Observer
from repro.sim.cpu import ExecOptions, Interpreter
from repro.sim.loader import Image
from repro.sim.process import Process
from tests.test_vm_equivalence import GOLDENS, as_json

#: name -> builder returning ``(module, main's arguments)``.
CASES = {}


def case(builder):
    CASES[builder.__name__] = builder
    return builder


def _short_call(body, nparams=2, nargs=1):
    """main calls ``callee`` (``nparams`` parameters) with ``nargs``
    arguments 10, 11, ...; ``body(module, callee, builder)`` fills in
    the callee."""
    module = ir.Module()
    callee = module.add_function("callee", func(I64, [I64] * nparams))
    body(module, callee, IRBuilder(callee.add_block("entry")))
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    pre = b.add(b.const(1), b.const(2))
    result = b.call(callee, [b.const(10 + i) for i in range(nargs)])
    b.ret(b.add(result, pre))
    return module, []


@case
def missing_param_in_binop():
    return _short_call(lambda m, f, b: b.ret(b.add(
        b.mul(f.params[0], b.const(3)), b.add(f.params[1], b.const(1)))))


@case
def missing_param_unread():
    return _short_call(lambda m, f, b: b.ret(b.add(f.params[0], b.const(7))))


@case
def missing_param_mid_group():
    def body(m, f, b):
        slot = b.alloca(I64)
        b.store(b.const(5), slot)
        b.store(b.sub(b.add(b.load(slot), f.params[0]), f.params[1]), slot)
        b.ret(b.load(slot))
    return _short_call(body)


@case
def missing_param_in_call_arg():
    def body(m, f, b):
        g = m.add_function("g", func(I64, [I64]))
        gb = IRBuilder(g.add_block("entry"))
        gb.ret(gb.add(g.params[0], gb.const(1)))
        b.ret(b.call(g, [f.params[1]]))
    return _short_call(body)


@case
def missing_param_icall_target():
    def body(m, f, b):
        sig = func(I64, [])
        b.ret(b.icall(b.cast(f.params[1], ptr(sig)), [], sig))
    return _short_call(body)


@case
def missing_param_malloc_size():
    return _short_call(lambda m, f, b: b.ret(b.malloc(f.params[1])))


@case
def missing_param_syscall():
    return _short_call(lambda m, f, b: b.ret(
        b.syscall(1, [b.const(1), f.params[1], b.const(8)])))


@case
def missing_param_select_unchosen():
    return _short_call(lambda m, f, b: b.ret(
        b.select(b.const(1), f.params[0], f.params[1])))


@case
def missing_param_select_chosen():
    return _short_call(lambda m, f, b: b.ret(
        b.select(b.const(0), f.params[0], f.params[1])))


@case
def missing_param_select_cond():
    return _short_call(lambda m, f, b: b.ret(
        b.select(f.params[1], f.params[0], b.const(2))))


@case
def missing_param_branch():
    def body(m, f, b):
        then, other = f.add_block("then"), f.add_block("other")
        b.cond_br(f.params[1], then, other)
        b.position_at_end(then)
        b.ret(b.const(1))
        b.position_at_end(other)
        b.ret(b.const(2))
    return _short_call(body)


@case
def missing_param_return():
    return _short_call(lambda m, f, b: b.ret(f.params[1]))


@case
def missing_param_phi():
    def body(m, f, b):
        join = f.add_block("join")
        b.add(f.params[0], b.const(1))
        b.br(join)
        b.position_at_end(join)
        phi = ir.Phi(I64, "p")
        join.append(phi)
        phi.add_incoming(f.params[1], f.entry)
        b.ret(b.add(phi, b.const(1)))
    return _short_call(body)


@case
def missing_third_param():
    return _short_call(lambda m, f, b: b.ret(
        b.add(b.add(f.params[0], f.params[1]), f.params[2])), 3, 2)


@case
def extra_args():
    return _short_call(lambda m, f, b: b.ret(
        b.add(f.params[0], f.params[1])), 2, 3)


@case
def no_args_for_unused_params():
    return _short_call(lambda m, f, b: b.ret(b.const(4)), 3, 0)


@case
def missing_param_setjmp_buf():
    def body(m, f, b):
        b.setjmp(b.cast(f.params[1], ptr(I64)))
        b.ret(b.const(0))
    return _short_call(body)


@case
def missing_param_longjmp_value():
    def body(m, f, b):
        buf = b.alloca(ArrayType(I64, 2))
        b.longjmp(b.cast(buf, ptr(I64)), f.params[1])
    return _short_call(body)


def _one_branch(read, arg):
    """main(c): x is assigned only when c != 0; ``read`` ends the join
    block and may read x."""
    module = ir.Module()
    main = module.add_function("main", func(I64, [I64]))
    entry, then, join = (main.add_block(n) for n in ("entry", "then", "join"))
    b = IRBuilder(entry)
    b.cond_br(main.params[0], then, join)
    b.position_at_end(then)
    x = b.add(main.params[0], b.const(1), name="x")
    b.br(join)
    b.position_at_end(join)
    read(b, x, main)
    return module, [arg]


@case
def one_branch_untaken_return():
    return _one_branch(lambda b, x, m: b.ret(x), 0)


@case
def one_branch_untaken_store():
    def read(b, x, m):
        slot = b.alloca(I64)
        b.store(b.const(3), slot)
        b.store(x, slot)
        b.ret(b.load(slot))
    return _one_branch(read, 0)


@case
def one_branch_untaken_syscall():
    return _one_branch(lambda b, x, m: b.ret(
        b.syscall(1, [b.const(1), x, b.const(8)])), 0)


@case
def one_branch_select_untaken():
    return _one_branch(lambda b, x, m: b.ret(
        b.select(m.params[0], x, b.const(9))), 0)


@case
def one_branch_select_taken():
    return _one_branch(lambda b, x, m: b.ret(
        b.select(m.params[0], b.const(9), x)), 1)


def _phi_edge(arg):
    """The join's phi reads x on both edges; x is assigned on one."""
    module = ir.Module()
    main = module.add_function("main", func(I64, [I64]))
    entry, then, join = (main.add_block(n) for n in ("entry", "then", "join"))
    b = IRBuilder(entry)
    b.cond_br(main.params[0], then, join)
    b.position_at_end(then)
    x = b.add(main.params[0], b.const(1), name="x")
    b.br(join)
    b.position_at_end(join)
    phi = ir.Phi(I64, "p")
    join.append(phi)
    phi.add_incoming(x, then)
    phi.add_incoming(x, entry)
    b.ret(b.add(phi, b.const(1)))
    return module, [arg]


@case
def phi_edge_undefined():
    return _phi_edge(0)


@case
def phi_edge_defined():
    return _phi_edge(1)


@case
def defined_in_an_earlier_iteration():
    """v is assigned in the first iteration only, then read after the
    loop: unprovable, but assigned by the time it is read."""
    module = ir.Module()
    main = module.add_function("main", func(I64, [I64]))
    entry, head, body, late, done = (
        main.add_block(n) for n in ("entry", "head", "body", "late", "done"))
    b = IRBuilder(entry)
    slot = b.alloca(I64)
    b.store(b.const(0), slot)
    b.br(head)
    b.position_at_end(head)
    i = b.load(slot)
    b.cond_br(b.cmp("lt", i, b.const(3)), body, done)
    b.position_at_end(body)
    b.store(b.add(i, b.const(1)), slot)
    b.cond_br(b.cmp("eq", i, b.const(0)), late, head)
    b.position_at_end(late)
    v = b.add(i, b.const(100), name="v")
    b.br(head)
    b.position_at_end(done)
    b.ret(b.add(v, b.const(1)))
    return module, [0]


@case
def stray_phi():
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    x = b.add(b.const(1), b.const(2))
    phi = ir.Phi(I64, "stray")
    mainf.entry.append(phi)
    b.ret(b.add(phi, x))
    return module, []


@case
def unknown_subclass_of_load():
    class MyLoad(ir.Load):
        opname = "myload"

    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    slot = b.alloca(I64)
    b.store(b.const(3), slot)
    b._emit(MyLoad(slot))
    b.ret(b.const(0))
    return module, []


@case
def missing_field_gep():
    record = StructType("Pair", [("a", I64), ("b", I64)])
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    pair = b.alloca(record)
    b.store(b.const(11), b.gep_field(pair, "a"))
    gep = b.gep_field(pair, "a")
    gep.field = "c"
    b.ret(b.load(gep))
    return module, []


@case
def function_outside_the_image():
    other = ir.Module("other")
    elsewhere = other.add_function("elsewhere", func(I64, []))
    IRBuilder(elsewhere.add_block("entry")).ret(ir.Constant(1))
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    slot = b.alloca(I64)
    b.store(b.const(3), slot)
    b.store(b.cast(ir.FunctionRef(elsewhere), I64), slot)
    b.ret(b.load(slot))
    return module, []


@case
def global_outside_the_image():
    stray = ir.Module("other").add_global("elsewhere_g", I64)
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    b.add(b.const(1), b.const(1))
    b.ret(b.load(stray))
    return module, []


@case
def global_outside_the_image_as_call_arg():
    stray = ir.Module("other").add_global("elsewhere_g", I64)
    module = ir.Module()
    callee = module.add_function("callee", func(I64, [I64]))
    IRBuilder(callee.add_block("entry")).ret(callee.params[0])
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    b.ret(b.call(callee, [b.cast(stray, I64)]))
    return module, []


@case
def other_functions_value():
    """An operand from another function resolves by name in this frame,
    where nothing of that name is ever assigned."""
    module = ir.Module()
    other = module.add_function("other", func(I64, [I64]))
    ob = IRBuilder(other.add_block("entry"))
    z = ob.add(other.params[0], ob.const(5), name="only_in_other")
    ob.ret(z)
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    b.ret(b.add(z, b.const(1)))
    return module, []


@case
def setjmp_resumes_mid_block():
    """Each landing resumes right after the setjmp, mid-block."""
    module = ir.Module()
    helper = module.add_function("helper", func(I64, [ptr(I64)]))
    hb = IRBuilder(helper.add_block("entry"))
    hb.longjmp(helper.params[0], hb.const(0))
    mainf = module.add_function("main", func(I64, []))
    entry, again, done = (mainf.add_block(n) for n in ("entry", "again", "done"))
    b = IRBuilder(entry)
    buf = b.alloca(ArrayType(I64, 2), "jmpbuf")
    slot = b.alloca(I64)
    b.store(b.const(0), slot)
    token = b.setjmp(buf)
    count = b.add(b.load(slot), b.const(1))
    b.store(count, slot)
    b.cond_br(b.cmp("lt", count, b.const(3)), again, done)
    b.position_at_end(again)
    b.call(helper, [b.cast(buf, ptr(I64))])
    b.ret(b.const(-1))
    b.position_at_end(done)
    b.ret(b.add(b.mul(count, b.const(10)), token))
    return module, []


def run_case(name, observer=None):
    """``name``'s record: result or exception, steps, cycles, hijacks."""
    module, args = CASES[name]()
    process = Process()
    interp = Interpreter(Image(module, process), options=ExecOptions(),
                         observer=observer)
    try:
        outcome = ["ok", interp.run("main", args)]
    except Exception as error:  # noqa: BLE001 - the record names it
        outcome = ["raise", type(error).__name__, str(error)]
    return as_json({"outcome": outcome, "steps": interp.steps,
                    "user": process.cycles.user,
                    "syscall": process.cycles.syscall,
                    "hijacks": [(h.kind, h.function)
                                for h in interp.hijacks]})


def test_every_case_has_a_golden():
    assert sorted(CASES) == sorted(GOLDENS["edge_cases"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_vm_reproduces_the_closure_tier(name):
    assert run_case(name) == GOLDENS["edge_cases"][name]


#: A longjmp landing in another block than the call it unwound: the
#: closure tier re-entered the setjmp's block and counted it, while the
#: VM resumes mid-block without a block entry.
OBSERVED_DIFFERENTLY = {"setjmp_resumes_mid_block"}


@pytest.mark.parametrize("name", sorted(set(CASES) - OBSERVED_DIFFERENTLY))
def test_vm_replays_the_closure_tiers_block_counters(name):
    observer = Observer()
    steps = run_case(name, observer)["steps"]
    registry = observer.registry
    sizes = registry.histogram("cpu.block_size", BLOCK_SIZE_EDGES)
    assert as_json({
        "cpu.blocks_executed": registry.counter("cpu.blocks_executed").value,
        "cpu.decode_hits": registry.counter("cpu.decode_hits").value,
        "cpu.decode_misses": registry.counter("cpu.decode_misses").value,
        "block_size": [sizes.count, list(sizes.counts), sizes.sum],
        "steps": steps}) == GOLDENS["observed_edge_cases"][name]
