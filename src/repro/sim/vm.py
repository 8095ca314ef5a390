"""Flat register VM: the interpreter's one execution tier.

:mod:`repro.sim.lower` translates an IR function into a
:class:`CompiledFunction`: one flat integer opcode stream, a
preallocated register file (dynamic SSA values first, a constant pool
materialized into the tail), and side tables for cycle costs and escape
bridges.  :func:`execute` runs it with a single ``while True: op =
code[pc]`` dispatch loop over local-variable-bound arrays — no
per-instruction closures, no frame-dict lookups.

Exactness contract (pinned by the committed goldens in
``tests/vm_goldens.json``): every run charges the same cycle costs in
the same float-addition order, increments ``steps`` at the same
instruction boundaries, fires the verifier ``on_step`` hook at the same
points, and raises the same exceptions with the same messages as the
block-decoding interpreter that produced those goldens.  Calls,
syscalls, runtime callouts and heap operations execute through an
**escape bridge**: ``Interpreter._decode_single``'s handler, fed a
minimal frame dict built from the registers it names (counted in
``Interpreter.deopt_count``).

A register no path has assigned yet holds an :class:`Undefined`
sentinel naming its value; the lowering puts an ``OP_CHECK`` on every
read the definedness flow cannot prove, so reading it raises ``use of
undefined value NAME`` exactly where the instruction reads it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.cpu import ExecutionLimitExceeded, ProgramCrash, \
    _LongjmpUnwind

# -- opcodes -----------------------------------------------------------------
#
# Contiguous small ints, grouped in eights so the dispatch loop resolves
# an opcode in at most four comparisons.  Frequency-ordered: straight-
# line arithmetic and the step-accounting headers sit in the first bank.

OP_ADD = 0      # d a b     regs[d] = regs[a] + regs[b]
OP_SUB = 1      # d a b
OP_MUL = 2      # d a b
OP_MOV = 3      # d a       cast / phi single-copy
OP_LOAD = 4     # d a       regs[d] = memory.load(regs[a])
OP_STORE = 5    # p v       memory.store(regs[p], regs[v])
OP_STEP1C = 6   # ci        one step + charge costs[ci] (fused single)
OP_STEPN = 7    # n ci      n-step batch + charge costs[ci] (fused group)

OP_LT = 8       # d a b     regs[d] = 1 if regs[a] < regs[b] else 0
OP_LE = 9       # d a b
OP_GT = 10      # d a b
OP_GE = 11      # d a b
OP_EQ = 12      # d a b
OP_NE = 13      # d a b
OP_JNZ = 14     # ci c t f  step + charge + pc = t if regs[c] else f
OP_JMP = 15     # ci t      step + charge + pc = t

OP_ADDI = 16    # d a imm   regs[d] = regs[a] + imm (const-offset gep)
OP_GEPI = 17    # d a i sz  regs[d] = regs[a] + regs[i] * sz
OP_SELECT = 18  # d c a b   regs[d] = regs[a] if regs[c] else regs[b]
OP_AND = 19     # d a b
OP_OR = 20      # d a b
OP_XOR = 21     # d a b
OP_SHL = 22     # d a b     rhs masked & 63
OP_SHR = 23     # d a b     rhs masked & 63

OP_DIV = 24     # d a b     zero check -> ProgramCrash
OP_REM = 25     # d a b     zero check -> ProgramCrash
OP_FBIN = 26    # d f a b   regs[d] = interp._float_binop(FOPS[f], ...)
OP_PARCOPY = 27  # n s1..sn d1..dn   simultaneous phi-edge copies
OP_GOTO = 28    # t         charge-free control glue (edge stubs)
OP_RET = 29     # a         step, then return regs[a]
OP_ESC = 30     # e         step, then run escape bridge e
OP_OBS = 31     # i         observer block-entry bookkeeping
OP_CHECK = 32   # a         raise regs[a]'s error if it is Undefined
OP_KERNEL = 33  # k         kernels[k](regs, load, store, fbin)
OP_SETJMP = 34  # b k       setjmps[k] stores its token at regs[b]
OP_RETC = 35    # a         OP_RET whose value is checked after the step

FOPS = ("fadd", "fsub", "fmul", "fdiv")


class Undefined:
    """A register value no instruction may compute with.

    Each unassigned register holds one naming its value (``use of
    undefined value NAME``); the constant pool holds one for an operand
    that cannot be resolved (a global that was never loaded, a function
    outside the image) and for malformed IR, whose read is a crash.
    ``OP_CHECK`` raises ``error(*args)`` when it reads one.  It is
    truthy, so a conditional branch on one takes its true edge, where
    the lowering puts the check.
    """

    __slots__ = ("error", "args")

    def __init__(self, error: type, *args: object) -> None:
        self.error = error
        self.args = args


class CompiledFunction:
    """One lowered function: flat code plus its side tables."""

    __slots__ = ("name", "code", "costs", "template", "param_regs",
                 "nparams", "alloca_bytes", "alloca_slots", "escapes",
                 "setjmps", "obs_entries", "seen", "nblocks", "kernels")

    def __init__(self, name: str, code: List[int], costs: List[float],
                 template: List[int], param_regs: List[int],
                 alloca_bytes: int, alloca_slots: List[Tuple[int, int]],
                 escapes: List[Tuple[Callable, Tuple[Tuple[str, int], ...],
                                     Optional[str], int]],
                 setjmps: List[tuple],
                 obs_entries: List[Tuple[str, str, int]],
                 nblocks: int,
                 kernels: List[Callable]) -> None:
        self.name = name
        self.code = code
        self.costs = costs
        self.template = template
        self.param_regs = param_regs
        self.nparams = len(param_regs)
        self.alloca_bytes = alloca_bytes
        self.alloca_slots = alloca_slots
        self.escapes = escapes
        #: Per ``OP_SETJMP``: (function, Setjmp instruction, dest reg).
        self.setjmps = setjmps
        self.obs_entries = obs_entries
        #: Per-block first-execution flags for the observer's
        #: decode-hit/miss counters.
        self.seen = [False] * len(obs_entries)
        self.nblocks = nblocks
        self.kernels = kernels


def execute(interp, compiled: CompiledFunction, args: List[int]) -> int:
    """Run one compiled frame to its ``ret``; returns the return value.

    Parameters without an argument keep their :class:`Undefined`
    sentinel.  The caller (``Interpreter._exec_function``) owns the
    backward-edge epilogue (return-address check / hijack detection).
    A longjmp whose setjmp this activation ran last lands here, just
    after that setjmp; any other unwinds past it.
    """
    process = interp.process
    regs = compiled.template.copy()
    for reg, value in zip(compiled.param_regs, args):
        regs[reg] = value
    alloca_bytes = compiled.alloca_bytes
    if alloca_bytes:
        frame_base = process.push_frame(alloca_bytes)
        for reg, offset in compiled.alloca_slots:
            regs[reg] = frame_base + offset
    else:
        frame_base = None

    code = compiled.code
    costs = compiled.costs
    escapes = compiled.escapes
    kernels = compiled.kernels
    cycles = process.cycles
    memory = process.memory
    load = memory.load
    store = memory.store
    fbin = interp._float_binop
    on_step = interp._on_step
    interval = interp.ON_STEP_INTERVAL
    max_steps = interp.options.max_steps
    obs = interp.observer
    steps = interp.steps
    pc = 0
    try:
        while True:
            try:
                while True:
                    op = code[pc]
                    if op < 8:
                        if op < 4:
                            if op == OP_ADD:
                                regs[code[pc + 1]] = \
                                    regs[code[pc + 2]] + regs[code[pc + 3]]
                                pc += 4
                            elif op == OP_SUB:
                                regs[code[pc + 1]] = \
                                    regs[code[pc + 2]] - regs[code[pc + 3]]
                                pc += 4
                            elif op == OP_MUL:
                                regs[code[pc + 1]] = \
                                    regs[code[pc + 2]] * regs[code[pc + 3]]
                                pc += 4
                            else:  # OP_MOV
                                regs[code[pc + 1]] = regs[code[pc + 2]]
                                pc += 3
                        elif op == OP_LOAD:
                            regs[code[pc + 1]] = load(regs[code[pc + 2]])
                            pc += 3
                        elif op == OP_STORE:
                            store(regs[code[pc + 1]], regs[code[pc + 2]])
                            pc += 3
                        elif op == OP_STEP1C:
                            steps += 1
                            if steps > max_steps:
                                raise ExecutionLimitExceeded(
                                    f"exceeded {max_steps} steps (hang?)")
                            if on_step is not None and steps % interval == 0:
                                interp.steps = steps
                                on_step()
                            cycles.user += costs[code[pc + 1]]
                            pc += 2
                        else:  # OP_STEPN
                            before = steps
                            steps = before + code[pc + 1]
                            if steps > max_steps:
                                raise ExecutionLimitExceeded(
                                    f"exceeded {max_steps} steps (hang?)")
                            if on_step is not None:
                                fires = steps // interval - before // interval
                                if fires:
                                    interp.steps = steps
                                    for _ in range(fires):
                                        on_step()
                            cycles.user += costs[code[pc + 2]]
                            pc += 3
                    elif op == OP_KERNEL:
                        kernels[code[pc + 1]](regs, load, store, fbin)
                        pc += 2
                    elif op < 16:
                        if op == OP_LT:
                            regs[code[pc + 1]] = \
                                1 if regs[code[pc + 2]] < regs[code[pc + 3]] else 0
                            pc += 4
                        elif op == OP_LE:
                            regs[code[pc + 1]] = \
                                1 if regs[code[pc + 2]] <= regs[code[pc + 3]] else 0
                            pc += 4
                        elif op == OP_GT:
                            regs[code[pc + 1]] = \
                                1 if regs[code[pc + 2]] > regs[code[pc + 3]] else 0
                            pc += 4
                        elif op == OP_GE:
                            regs[code[pc + 1]] = \
                                1 if regs[code[pc + 2]] >= regs[code[pc + 3]] else 0
                            pc += 4
                        elif op == OP_EQ:
                            regs[code[pc + 1]] = \
                                1 if regs[code[pc + 2]] == regs[code[pc + 3]] else 0
                            pc += 4
                        elif op == OP_NE:
                            regs[code[pc + 1]] = \
                                1 if regs[code[pc + 2]] != regs[code[pc + 3]] else 0
                            pc += 4
                        elif op == OP_JNZ:
                            steps += 1
                            if steps > max_steps:
                                raise ExecutionLimitExceeded(
                                    f"exceeded {max_steps} steps (hang?)")
                            if on_step is not None and steps % interval == 0:
                                interp.steps = steps
                                on_step()
                            cycles.user += costs[code[pc + 1]]
                            pc = code[pc + 3] if regs[code[pc + 2]] \
                                else code[pc + 4]
                        else:  # OP_JMP
                            steps += 1
                            if steps > max_steps:
                                raise ExecutionLimitExceeded(
                                    f"exceeded {max_steps} steps (hang?)")
                            if on_step is not None and steps % interval == 0:
                                interp.steps = steps
                                on_step()
                            cycles.user += costs[code[pc + 1]]
                            pc = code[pc + 2]
                    elif op < 24:
                        if op == OP_ADDI:
                            regs[code[pc + 1]] = regs[code[pc + 2]] + code[pc + 3]
                            pc += 4
                        elif op == OP_GEPI:
                            regs[code[pc + 1]] = regs[code[pc + 2]] + \
                                regs[code[pc + 3]] * code[pc + 4]
                            pc += 5
                        elif op == OP_SELECT:
                            regs[code[pc + 1]] = regs[code[pc + 3]] \
                                if regs[code[pc + 2]] else regs[code[pc + 4]]
                            pc += 5
                        elif op == OP_AND:
                            regs[code[pc + 1]] = \
                                regs[code[pc + 2]] & regs[code[pc + 3]]
                            pc += 4
                        elif op == OP_OR:
                            regs[code[pc + 1]] = \
                                regs[code[pc + 2]] | regs[code[pc + 3]]
                            pc += 4
                        elif op == OP_XOR:
                            regs[code[pc + 1]] = \
                                regs[code[pc + 2]] ^ regs[code[pc + 3]]
                            pc += 4
                        elif op == OP_SHL:
                            regs[code[pc + 1]] = \
                                regs[code[pc + 2]] << (regs[code[pc + 3]] & 63)
                            pc += 4
                        else:  # OP_SHR
                            regs[code[pc + 1]] = \
                                regs[code[pc + 2]] >> (regs[code[pc + 3]] & 63)
                            pc += 4
                    elif op == OP_DIV:
                        divisor = regs[code[pc + 3]]
                        if divisor == 0:
                            raise ProgramCrash("division by zero")
                        regs[code[pc + 1]] = regs[code[pc + 2]] // divisor
                        pc += 4
                    elif op == OP_REM:
                        divisor = regs[code[pc + 3]]
                        if divisor == 0:
                            raise ProgramCrash("remainder by zero")
                        regs[code[pc + 1]] = regs[code[pc + 2]] % divisor
                        pc += 4
                    elif op == OP_FBIN:
                        regs[code[pc + 1]] = fbin(FOPS[code[pc + 2]],
                                                  regs[code[pc + 3]],
                                                  regs[code[pc + 4]])
                        pc += 5
                    elif op == OP_PARCOPY:
                        count = code[pc + 1]
                        base = pc + 2
                        values = [regs[code[base + k]] for k in range(count)]
                        base += count
                        for k in range(count):
                            regs[code[base + k]] = values[k]
                        pc = base + count
                    elif op == OP_GOTO:
                        pc = code[pc + 1]
                    elif op == OP_RET:
                        steps += 1
                        if steps > max_steps:
                            raise ExecutionLimitExceeded(
                                f"exceeded {max_steps} steps (hang?)")
                        if on_step is not None and steps % interval == 0:
                            interp.steps = steps
                            on_step()
                        return regs[code[pc + 1]]
                    elif op == OP_ESC:
                        steps += 1
                        if steps > max_steps:
                            raise ExecutionLimitExceeded(
                                f"exceeded {max_steps} steps (hang?)")
                        if on_step is not None and steps % interval == 0:
                            interp.steps = steps
                            on_step()
                        run, pairs, result_name, result_reg = \
                            escapes[code[pc + 1]]
                        frame: Dict[str, int] = {}
                        for operand_name, reg in pairs:
                            frame[operand_name] = regs[reg]
                        interp.deopt_count += 1
                        if obs is not None:
                            obs.vm_deopt()
                        interp.steps = steps
                        try:
                            run(frame)
                        finally:
                            # Resync even when the bridge raises (verifier
                            # kill, crash, limit, longjmp): a nested call
                            # advanced the shared counter, and the outer
                            # finally must not clobber it with this
                            # frame's stale local.
                            steps = interp.steps
                        if result_reg >= 0:
                            regs[result_reg] = frame[result_name]
                        pc += 2
                    elif op == OP_OBS:
                        index = code[pc + 1]
                        function_name, block_name, size = \
                            compiled.obs_entries[index]
                        seen = compiled.seen
                        if seen[index]:
                            obs.cpu_decode_hits.value += 1
                        else:
                            seen[index] = True
                            obs.cpu_decode_miss(function_name, block_name)
                        obs.cpu_blocks.value += 1
                        obs.cpu_block_size.observe(size)
                        pc += 2
                    elif op == OP_CHECK:
                        value = regs[code[pc + 1]]
                        if value.__class__ is Undefined:
                            raise value.error(*value.args)
                        pc += 2
                    elif op == OP_SETJMP:
                        # OP_STEP1C before it charged the step and cost.
                        function, instruction, dest = \
                            compiled.setjmps[code[pc + 2]]
                        token = interp._site_address(function, instruction)
                        store(regs[code[pc + 1]], token)
                        interp._setjmp_points[token] = (regs, dest, pc + 3)
                        regs[dest] = 0
                        pc += 3
                    else:  # OP_RETC
                        steps += 1
                        if steps > max_steps:
                            raise ExecutionLimitExceeded(
                                f"exceeded {max_steps} steps (hang?)")
                        if on_step is not None and steps % interval == 0:
                            interp.steps = steps
                            on_step()
                        value = regs[code[pc + 1]]
                        if value.__class__ is Undefined:
                            raise value.error(*value.args)
                        return value
            except _LongjmpUnwind as unwind:
                # Land only in the activation that last ran the setjmp.
                landing, dest, resume = interp._setjmp_points[unwind.token]
                if landing is not regs:
                    raise
                regs[dest] = unwind.value
                pc = resume
    finally:
        interp.steps = steps
        if frame_base is not None:
            process.pop_frame(alloca_bytes)
