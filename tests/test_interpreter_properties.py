"""Property-based tests of the interpreter against a Python reference.

Random straight-line arithmetic programs and random control-flow
skeletons are executed both by the simulated CPU and by a direct Python
evaluation of the same operations; the results must agree exactly.
This pins the interpreter's semantics independently of the
hand-written unit tests.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.types import ArrayType, I64, func
from repro.sim.cpu import ExecOptions, Interpreter
from repro.sim.loader import Image
from repro.sim.process import Process

SAFE_BINOPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]
#: Operators drawn with a nonzero right operand.
DIVISIONS = ["div", "rem"]
CMP_OPS = ["eq", "ne", "lt", "le", "gt", "ge"]


def run_module(module):
    """``main``'s result on the simulated CPU."""
    module.verify()
    return Interpreter(Image(module, Process()),
                       options=ExecOptions()).run("main", [])


def python_binop(op, lhs, rhs):
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "and":
        return lhs & rhs
    if op == "or":
        return lhs | rhs
    if op == "xor":
        return lhs ^ rhs
    if op == "shl":
        return lhs << (rhs & 63)
    if op == "shr":
        return lhs >> (rhs & 63)
    if op == "div":
        return lhs // rhs
    if op == "rem":
        return lhs % rhs
    raise AssertionError(op)


@settings(max_examples=80)
@given(operations=st.lists(
           st.tuples(st.sampled_from(SAFE_BINOPS),
                     st.integers(min_value=0, max_value=2**20))
           | st.tuples(st.sampled_from(DIVISIONS),
                       st.integers(min_value=1, max_value=2**20)),
           min_size=1, max_size=24),
       seed=st.integers(min_value=0, max_value=2**20))
def test_expression_chains_match_python(operations, seed):
    """A chain acc = op(acc, k) agrees with Python's evaluation."""
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    acc_value = b.const(seed)
    expected = seed
    for op, operand in operations:
        acc_value = b.binop(op, acc_value, b.const(operand))
        expected = python_binop(op, expected, operand)
    b.ret(acc_value)
    assert run_module(module) == expected


@settings(max_examples=60)
@given(comparisons=st.lists(
    st.tuples(st.sampled_from(CMP_OPS),
              st.integers(min_value=-100, max_value=100),
              st.integers(min_value=-100, max_value=100)),
    min_size=1, max_size=16))
def test_comparison_sums_match_python(comparisons):
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    total = b.const(0)
    expected = 0
    table = {"eq": lambda a, c: a == c, "ne": lambda a, c: a != c,
             "lt": lambda a, c: a < c, "le": lambda a, c: a <= c,
             "gt": lambda a, c: a > c, "ge": lambda a, c: a >= c}
    for op, lhs, rhs in comparisons:
        total = b.add(total, b.cmp(op, b.const(lhs), b.const(rhs)))
        expected += int(table[op](lhs, rhs))
    b.ret(total)
    assert run_module(module) == expected


@settings(max_examples=50)
@given(values=st.lists(st.integers(min_value=0, max_value=2**30),
                       min_size=1, max_size=12),
       threshold=st.integers(min_value=0, max_value=2**30))
def test_branching_selection_matches_python(values, threshold):
    """A cascade of cond_br diamonds computes the same filtered sum as
    Python."""
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    entry = mainf.add_block("entry")
    b = IRBuilder(entry)
    slot = b.alloca(I64, "acc")
    b.store(b.const(0), slot)
    current = entry
    for index, value in enumerate(values):
        take = mainf.add_block(f"take{index}")
        join = mainf.add_block(f"join{index}")
        b.position_at_end(current)
        cond = b.cmp("gt", b.const(value), b.const(threshold))
        b.cond_br(cond, take, join)
        b.position_at_end(take)
        b.store(b.add(b.load(slot), b.const(value)), slot)
        b.br(join)
        current = join
    b.position_at_end(current)
    b.ret(b.load(slot))
    expected = sum(v for v in values if v > threshold)
    assert run_module(module) == expected


@settings(max_examples=50)
@given(values=st.lists(st.integers(min_value=0, max_value=2**40),
                       min_size=1, max_size=10))
def test_array_store_load_roundtrip(values):
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    arr = b.alloca(ArrayType(I64, len(values)))
    for index, value in enumerate(values):
        b.store(b.const(value), b.gep_index(arr, b.const(index)))
    total = b.const(0)
    for index in range(len(values)):
        total = b.add(total, b.load(b.gep_index(arr, b.const(index))))
    b.ret(total)
    assert run_module(module) == sum(values)


@settings(max_examples=40)
@given(n=st.integers(min_value=0, max_value=30),
       step=st.integers(min_value=1, max_value=7))
def test_loop_iteration_count_matches(n, step):
    """A counted loop runs exactly ceil(n/step) iterations."""
    module = ir.Module()
    mainf = module.add_function("main", func(I64, []))
    entry = mainf.add_block("entry")
    loop = mainf.add_block("loop")
    done = mainf.add_block("done")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i = ir.Phi(I64, "i")
    count = ir.Phi(I64, "count")
    loop.append(i)
    loop.append(count)
    i.add_incoming(b.const(0), entry)
    count.add_incoming(b.const(0), entry)
    count2 = b.add(count, b.const(1))
    i2 = b.add(i, b.const(step))
    i.add_incoming(i2, loop)
    count.add_incoming(count2, loop)
    b.cond_br(b.cmp("lt", i2, b.const(n)), loop, done)
    b.position_at_end(done)
    b.ret(count2)
    expected = max(1, -(-n // step))  # at least one iteration executes
    assert run_module(module) == expected


@settings(max_examples=40)
@given(depth=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=1000))
def test_recursive_descent_matches(depth, seed):
    """f(n) = n + f(n-1), f(0) = seed: closed form checks recursion and
    argument passing at arbitrary depth."""
    module = ir.Module()
    f = module.add_function("f", func(I64, [I64]))
    entry = f.add_block("entry")
    base = f.add_block("base")
    rec = f.add_block("rec")
    b = IRBuilder(entry)
    b.cond_br(b.cmp("le", f.params[0], b.const(0)), base, rec)
    b.position_at_end(base)
    b.ret(b.const(seed))
    b.position_at_end(rec)
    inner = b.call(f, [b.sub(f.params[0], b.const(1))])
    b.ret(b.add(f.params[0], inner))
    mainf = module.add_function("main", func(I64, []))
    b = IRBuilder(mainf.add_block("entry"))
    b.ret(b.call(f, [b.const(depth)]))
    assert run_module(module) == seed + depth * (depth + 1) // 2
