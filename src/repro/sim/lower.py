"""Lowering pass: IR functions → :class:`repro.sim.vm.CompiledFunction`.

The interpreter runs every function as lowered here.  A function is
lowered whole into one flat opcode stream: SSA values get register
indices from the stable :meth:`repro.compiler.ir.Function.value_numbering`,
constants and resolved addresses are materialized into read-only
registers at the tail of the register file, and jump targets are
absolute code indices.

**Exactness is the design constraint, speed the payoff.**  Step counts,
cycle charges (fused groups charge one in-order float sum) and crash
messages are pinned by the committed goldens (``tests/vm_goldens.json``):

* straight-line runs of side-effect-free instructions fuse into one
  stepped group, often compiled to a kernel superinstruction;
* calls, syscalls, runtime callouts, heap management and ``longjmp``
  become escape bridges to ``Interpreter._decode_single``'s handlers;
* ``setjmp`` is native (``OP_SETJMP``); a landed ``longjmp`` resumes
  just after it;
* a read the must-defined dataflow cannot prove — a parameter a short
  call left out, a value assigned on one branch only — is a checked
  read (``OP_CHECK``) of the register's :class:`~repro.sim.vm.Undefined`
  sentinel, placed where the instruction reads the operand, so ``use of
  undefined value NAME`` surfaces at the same step and cycle;
* malformed IR (an unknown instruction, a GEP to a missing field, a
  reference to a function or global outside the image) lowers to the
  crash it raises when run.

A call with ``nargs`` arguments, fewer than the parameters, runs a
variant lowered with the missing parameters undefined.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.compiler import ir
from repro.compiler.types import PointerType
from repro.sim import vm
from repro.sim.cpu import ProgramCrash
from repro.sim.cycles import OP_COSTS
from repro.sim.memory import WORD_SIZE

#: Exact classes only, as in the escape handlers' dispatch: subclasses
#: are unknown instructions, which crash when run.
_FUSABLE = (ir.BinOp, ir.Cmp, ir.Load, ir.Store, ir.Gep, ir.Cast,
            ir.Select, ir.Alloca)

#: Escaped instructions that write their result into the frame.
_ESCAPE_DEFINES = (ir.Call, ir.ICall, ir.RuntimeCall, ir.Malloc,
                   ir.Realloc, ir.Syscall)

#: Instruction classes that assign their value when they run.
_DEFINING = (ir.Alloca, ir.Load, ir.Gep, ir.Cast, ir.BinOp, ir.Cmp,
             ir.Select, ir.Setjmp) + _ESCAPE_DEFINES

_BINOP_OPS = {
    "add": vm.OP_ADD, "sub": vm.OP_SUB, "mul": vm.OP_MUL,
    "div": vm.OP_DIV, "sdiv": vm.OP_DIV, "udiv": vm.OP_DIV,
    "rem": vm.OP_REM, "srem": vm.OP_REM, "urem": vm.OP_REM,
    "and": vm.OP_AND, "or": vm.OP_OR, "xor": vm.OP_XOR,
    "shl": vm.OP_SHL, "shr": vm.OP_SHR, "lshr": vm.OP_SHR,
    "ashr": vm.OP_SHR,
}

_CMP_OPS = {
    "eq": vm.OP_EQ, "ne": vm.OP_NE, "lt": vm.OP_LT,
    "le": vm.OP_LE, "gt": vm.OP_GT, "ge": vm.OP_GE,
}

_FOP_INDEX = {name: index for index, name in enumerate(vm.FOPS)}

#: Minimum fused-group body count worth a kernel superinstruction; a
#: lone body dispatches about as fast flat as through a call.
_KERNEL_MIN_BODIES = 2

#: Infix source fragments for kernel codegen (see ``_kernel_spec``).
_KERNEL_BINOP_SYM = {
    vm.OP_ADD: "+", vm.OP_SUB: "-", vm.OP_MUL: "*",
    vm.OP_AND: "&", vm.OP_OR: "|", vm.OP_XOR: "^",
}
_KERNEL_CMP_SYM = {
    vm.OP_LT: "<", vm.OP_LE: "<=", vm.OP_GT: ">",
    vm.OP_GE: ">=", vm.OP_EQ: "==", vm.OP_NE: "!=",
}

#: Three-register ops whose operands sit at offsets 2 and 3 (for the
#: flat-code read scan that sizes kernel write-back sets).
_READS_23 = frozenset(_KERNEL_BINOP_SYM) | frozenset(_KERNEL_CMP_SYM) | \
    {vm.OP_SHL, vm.OP_SHR, vm.OP_DIV, vm.OP_REM}


#: Process-wide kernel memo: 16-byte blake2b digest of a kernel's
#: source text → its compiled function.  A kernel's globals hold only
#: ``ProgramCrash`` (and the kernels compiled beside it); ``load``,
#: ``store`` and ``fbin`` are parameters, so one kernel safely serves
#: every function, interpreter and process that generates its text.
_KERNELS: Dict[bytes, Callable] = {}


def lower_function(interp, function: ir.Function,
                   nargs: Optional[int] = None) -> vm.CompiledFunction:
    """Lower ``function`` for ``interp``; with ``nargs``, the variant
    for calls that pass only the first ``nargs`` parameters."""
    return _Lowering(interp, function, nargs).build()


def _drop_undefined(run: Callable, names: Tuple[str, ...]) -> Callable:
    """Wrap an escape handler so an operand whose register still holds
    its :class:`~repro.sim.vm.Undefined` sentinel is absent from the
    frame dict: the handler's own lookup then raises ``use of undefined
    value`` at the point where it reads the operand."""
    def checked(frame: Dict[str, int]) -> None:
        for name in names:
            if frame[name].__class__ is vm.Undefined:
                del frame[name]
        run(frame)
    return checked


class _Lowering:
    def __init__(self, interp, function: ir.Function,
                 nargs: Optional[int] = None) -> None:
        self.interp = interp
        self.function = function
        self.nargs = len(function.params) if nargs is None else nargs
        self.factor = interp.options.register_pressure_factor
        self.numbering = function.value_numbering()
        self.n_dyn = len(self.numbering)
        #: Constant pool: an int's value, or an ``(error, args)`` key
        #: for an :class:`~repro.sim.vm.Undefined` crash constant.
        self.const_regs: Dict[object, int] = {}
        self.const_values: List[object] = []
        self.code: List[int] = []
        self.costs: List[float] = []
        self.cost_index: Dict[float, int] = {}
        self.escapes: List[tuple] = []
        self.setjmps: List[tuple] = []
        #: Per kernel superinstruction: the fused-group body op lists it
        #: replaces (compiled to Python in ``_compile_kernels``).
        self.kernel_bodies: List[List[List[int]]] = []
        self.obs_entries: List[Tuple[str, str, int]] = []
        self.observed = interp.observer is not None
        #: Per block: its ``obs_entries`` index (observed runs only).
        self.block_obs: Dict[int, int] = {}
        #: (code index, source block, target block) branch fixups.
        self.fixups: List[Tuple[int, ir.BasicBlock, ir.BasicBlock]] = []
        #: Registers a conditional branch must check on its true edge,
        #: per (source, target) edge: an Undefined condition is truthy.
        self.edge_checks: Dict[Tuple[int, int], List[int]] = {}
        self.block_pc: Dict[int, int] = {}
        self.leading_phis: Dict[int, List[ir.Phi]] = {}
        #: Bitmask over ``numbering`` indices of the values defined so
        #: far on every path into the instruction being lowered.
        self.defined = 0
        #: Registers read since the last reset that ``_reg`` could not
        #: prove defined, in read order: each needs an ``OP_CHECK``.
        self.checks: List[int] = []
        #: Whether any read of a register is checked, so unassigned
        #: registers must hold Undefined sentinels rather than 0.
        self.unproven = False

    # -- pools ---------------------------------------------------------------

    def _const_reg(self, value: int, key: object = None) -> int:
        key = value if key is None else key
        reg = self.const_regs.get(key)
        if reg is None:
            reg = self.n_dyn + len(self.const_values)
            self.const_regs[key] = reg
            self.const_values.append(value)
        return reg

    def _crash(self, error: type, *args: object) -> int:
        """A constant whose checked read raises ``error(*args)``; the
        read is queued in ``checks``."""
        reg = self._const_reg(vm.Undefined(error, *args), (error, args))
        self.checks.append(reg)
        return reg

    def _cost(self, cost: float) -> int:
        index = self.cost_index.get(cost)
        if index is None:
            index = len(self.costs)
            self.cost_index[cost] = index
            self.costs.append(cost)
        return index

    def _checked(self, body: List[int]) -> List[int]:
        """``body`` preceded by the queued checks (which it clears)."""
        prefix: List[int] = []
        for reg in self.checks:
            prefix.append(vm.OP_CHECK)
            prefix.append(reg)
        self.checks = []
        return prefix + body

    # -- operands ------------------------------------------------------------

    def _reg(self, value: ir.Value) -> int:
        """Register index for an operand.  SSA values resolve by name in
        this function's frame, as the escape handlers look them up; a
        read the flow cannot prove defined, or of an operand that cannot
        be resolved, is queued in ``checks``."""
        if isinstance(value, (ir.Argument, ir.Instruction)):
            reg = self.numbering.get(value.name)
            if reg is None:
                return self._crash(ProgramCrash,
                                   f"use of undefined value {value.name}")
            if not self.defined >> reg & 1:
                self.checks.append(reg)
                self.unproven = True
            return reg
        if isinstance(value, ir.Constant):
            return self._const_reg(value.value)
        if isinstance(value, ir.FunctionRef):
            address = self.interp.image.function_address.get(
                value.function.name)
            if address is None:
                return self._crash(KeyError, value.function.name)
            return self._const_reg(address)
        if isinstance(value, ir.GlobalVariable):
            if value.address is None:
                return self._crash(ProgramCrash,
                                   f"global {value.name} not loaded")
            return self._const_reg(value.address)
        return self._crash(ProgramCrash, f"cannot evaluate {value!r}")

    # -- analysis ------------------------------------------------------------

    def _scan(self) -> None:
        for block in self.function.blocks:
            phis: List[ir.Phi] = []
            for instruction in block.instructions:
                if isinstance(instruction, ir.Phi):
                    phis.append(instruction)
                else:
                    break
            self.leading_phis[id(block)] = phis

    def _flow(self) -> Dict[int, int]:
        """Definedness dataflow: the values assigned on *every* path to
        each block's entry, as bitmasks over ``numbering`` indices.
        The passed parameters and all alloca slots are defined at frame
        setup."""
        function = self.function
        numbering = self.numbering
        base = 0
        for param in function.params[:self.nargs]:
            base |= 1 << numbering[param.name]

        defs: Dict[int, int] = {}
        phi_defs: Dict[int, int] = {}
        for block in function.blocks:
            mask = 0
            for phi in self.leading_phis[id(block)]:
                mask |= 1 << numbering[phi.name]
            phi_defs[id(block)] = mask
            for instruction in block.instructions:
                if isinstance(instruction, _DEFINING):
                    bit = 1 << numbering[instruction.name]
                    mask |= bit
                    if type(instruction) is ir.Alloca:
                        base |= bit
            defs[id(block)] = mask

        preds: Dict[int, List[int]] = {id(block): [] for block in function.blocks}
        for block in function.blocks:
            for successor in block.successors:
                preds[id(successor)].append(id(block))

        universe = (1 << self.n_dyn) - 1
        ins: Dict[int, int] = {id(block): universe for block in function.blocks}
        ins[id(function.entry)] = base
        changed = True
        while changed:
            changed = False
            for block in function.blocks:
                if block is function.entry:
                    continue
                block_preds = preds[id(block)]
                if not block_preds:
                    continue  # unreachable: stays at universe
                new = universe
                for pred in block_preds:
                    new &= ins[pred] | defs[pred]
                if new != ins[id(block)]:
                    ins[id(block)] = new
                    changed = True
        self._ins = ins
        self._defs = defs
        self._phi_defs = phi_defs
        return ins

    # -- emission ------------------------------------------------------------

    def build(self) -> vm.CompiledFunction:
        self._scan()
        self._flow()
        function = self.function
        code = self.code

        for block in function.blocks:
            self.block_pc[id(block)] = len(code)
            self._emit_block(block)

        self._emit_edge_stubs()

        for position, source, target in self.fixups:
            code[position] = self._edge_pc[(id(source), id(target))]

        alloca_bytes = 0
        alloca_slots: List[Tuple[int, int]] = []
        for instruction in function.instructions():
            if type(instruction) is ir.Alloca:
                alloca_slots.append((self.numbering[instruction.name],
                                     alloca_bytes))
                alloca_bytes += max(instruction.allocated_type.size(),
                                    WORD_SIZE)

        if self.unproven:
            registers = [vm.Undefined(ProgramCrash, f"use of undefined value {name}")
                         for name in self.numbering]
        else:
            registers = [0] * self.n_dyn  # every read is proven assigned
        template = registers + self.const_values
        param_regs = [self.numbering[param.name]
                      for param in function.params]
        kernels = self._compile_kernels()
        return vm.CompiledFunction(
            function.name, code, self.costs, template, param_regs,
            alloca_bytes, alloca_slots, self.escapes, self.setjmps,
            self.obs_entries, len(function.blocks), kernels)

    def _emit_block(self, block: ir.BasicBlock) -> None:
        code = self.code
        self.defined = self._ins[id(block)] | self._phi_defs[id(block)]

        obs_index = -1
        if self.observed:
            obs_index = len(self.obs_entries)
            self.block_obs[id(block)] = obs_index
            self.obs_entries.append((self.function.name, block.name, 0))
            code.append(vm.OP_OBS)
            code.append(obs_index)

        entries = 0
        pending: List[Tuple[List[int], float, bool]] = []

        def flush() -> None:
            nonlocal entries
            if not pending:
                return
            entries += 1
            if len(pending) == 1:
                body, cost, _ = pending[0]
                code.append(vm.OP_STEP1C)
                code.append(self._cost(cost))
                code.extend(body)
            else:
                # The group total is an in-order float sum (float
                # addition is not associative).
                total = 0.0
                for _, cost, _ in pending:
                    total += cost
                code.append(vm.OP_STEPN)
                code.append(len(pending))
                code.append(self._cost(total))
                bodies = [body for body, _, _ in pending if body]
                if len(bodies) >= _KERNEL_MIN_BODIES and \
                        not any(checked for _, _, checked in pending):
                    # Superinstruction: the whole straight-line body runs
                    # as one generated-Python kernel.  Steps and cycles
                    # were already charged by the OP_STEPN header, and no
                    # on_step hook can fire mid-group, so the kernel only
                    # has to reproduce the dataflow.
                    code.append(vm.OP_KERNEL)
                    code.append(len(self.kernel_bodies))
                    self.kernel_bodies.append(bodies)
                else:
                    for body in bodies:
                        code.extend(body)
            pending.clear()

        for instruction in block.instructions:
            if isinstance(instruction, ir.Phi):
                # Leading phis become edge copies; stray non-leading
                # phis are skipped and define nothing.
                continue
            cls = type(instruction)
            if cls in _FUSABLE:
                pending.append(self._lower_fusable(instruction))
                if isinstance(instruction, _DEFINING):
                    self.defined |= 1 << self.numbering[instruction.name]
                continue
            flush()
            entries += 1
            if cls is ir.Br:
                code.append(vm.OP_JMP)
                code.append(self._cost(OP_COSTS.get("br", 1.0) * self.factor))
                self.fixups.append((len(code), block, instruction.target))
                code.append(-1)
            elif cls is ir.CondBr:
                cond = self._reg(instruction.cond)
                if self.checks:
                    # An Undefined condition is truthy: the true edge
                    # checks it after the branch's step and charge.
                    self.edge_checks.setdefault(
                        (id(block), id(instruction.if_true)), []).extend(
                            self.checks)
                    self.checks = []
                code.append(vm.OP_JNZ)
                code.append(self._cost(OP_COSTS.get("br", 1.0) * self.factor))
                code.append(cond)
                self.fixups.append((len(code), block, instruction.if_true))
                code.append(-1)
                self.fixups.append((len(code), block, instruction.if_false))
                code.append(-1)
            elif cls is ir.Ret:
                value_reg = self._const_reg(0) if instruction.value is None \
                    else self._reg(instruction.value)
                code.append(vm.OP_RETC if self.checks else vm.OP_RET)
                code.append(value_reg)
                self.checks = []
            elif cls is ir.Setjmp:
                code.append(vm.OP_STEP1C)
                code.append(self._cost(OP_COSTS.get("setjmp", 1.0) * self.factor))
                buf = self._reg(instruction.buf)
                dest = self.numbering[instruction.name]
                code.extend(self._checked([vm.OP_SETJMP, buf, len(self.setjmps)]))
                self.setjmps.append((self.function, instruction, dest))
                self.defined |= 1 << dest
            else:
                self._emit_escape(instruction)
                if isinstance(instruction, _ESCAPE_DEFINES):
                    self.defined |= 1 << self.numbering[instruction.name]
        flush()
        if block.terminator is None:
            # A malformed block runs off its end when it runs.
            self._crash(ProgramCrash,
                        f"block {self.function.name}:{block.name} fell through")
            code.extend(self._checked([]))
        if obs_index >= 0:
            name, bname, _ = self.obs_entries[obs_index]
            self.obs_entries[obs_index] = (name, bname, entries)

    def _lower_fusable(self, instruction: ir.Instruction
                       ) -> Tuple[List[int], float, bool]:
        """Body ops, cycle cost, and whether the body checks a read, for
        one fusable instruction.  Operands are read in the order the
        instruction evaluates them, so the first undefined one raises."""
        factor = self.factor
        cls = type(instruction)
        if cls is ir.BinOp:
            cost = OP_COSTS.get("binop", 1.0) * factor
            op = instruction.op
            opcode = _BINOP_OPS.get(op)
            if opcode is not None:
                lhs = self._reg(instruction.lhs)
                rhs = self._reg(instruction.rhs)
                body = [opcode, self.numbering[instruction.name], lhs, rhs]
            elif op in _FOP_INDEX:
                lhs = self._reg(instruction.lhs)
                rhs = self._reg(instruction.rhs)
                body = [vm.OP_FBIN, self.numbering[instruction.name],
                        _FOP_INDEX[op], lhs, rhs]
            else:
                self._crash(ProgramCrash, f"unknown binop {op}")
                body = []
        elif cls is ir.Cmp:
            cost = OP_COSTS.get("cmp", 1.0) * factor
            opcode = _CMP_OPS.get(instruction.op)
            if opcode is None:
                self._crash(ProgramCrash,
                            f"unknown comparison {instruction.op}")
                body = []
            else:
                lhs = self._reg(instruction.lhs)
                rhs = self._reg(instruction.rhs)
                body = [opcode, self.numbering[instruction.name], lhs, rhs]
        elif cls is ir.Load:
            cost = OP_COSTS.get("load", 1.0) * factor
            pointer = self._reg(instruction.pointer)
            body = [vm.OP_LOAD, self.numbering[instruction.name], pointer]
        elif cls is ir.Store:
            cost = OP_COSTS.get("store", 1.0) * factor
            pointer = self._reg(instruction.pointer)
            value = self._reg(instruction.value)
            body = [vm.OP_STORE, pointer, value]
        elif cls is ir.Gep:
            cost = OP_COSTS.get("gep", 1.0) * factor
            body = self._lower_gep(instruction)
        elif cls is ir.Cast:
            cost = OP_COSTS.get("cast", 1.0) * factor
            value = self._reg(instruction.value)
            body = [vm.OP_MOV, self.numbering[instruction.name], value]
        elif cls is ir.Select:
            cost = OP_COSTS.get("select", 1.0) * factor
            cond = self._reg(instruction.cond)
            checked = len(self.checks)
            if_true = self._reg(instruction.if_true)
            if_false = self._reg(instruction.if_false)
            dest = self.numbering[instruction.name]
            body = [vm.OP_SELECT, dest, cond, if_true, if_false]
            if len(self.checks) > checked:
                # Only the chosen operand is read: check what was chosen.
                del self.checks[checked:]
                return self._checked(body) + [vm.OP_CHECK, dest], cost, True
        else:
            # Alloca: address preloaded at frame entry; the group still
            # counts its step and charges its cost, but no body op runs.
            cost = OP_COSTS.get("alloca", 1.0) * factor
            body = []
        if self.checks:
            return self._checked(body), cost, True
        return body, cost, False

    def _lower_gep(self, instruction: ir.Gep) -> List[int]:
        base_type = instruction.pointer.type
        pointee = base_type.pointee \
            if isinstance(base_type, PointerType) else None
        dest = self.numbering[instruction.name]
        if instruction.field is not None:
            if pointee is None or not hasattr(pointee, "field_offset"):
                self._crash(ProgramCrash, "field gep on non-struct pointer")
                return []
            base = self._reg(instruction.pointer)
            try:
                offset = pointee.field_offset(instruction.field)
            except Exception as error:
                # A malformed field raises its lookup error when run.
                self._crash(type(error), *error.args)
                return []
            return [vm.OP_ADDI, dest, base, offset]
        base = self._reg(instruction.pointer)
        index = self._reg(instruction.index)
        element = getattr(pointee, "element", None)
        element_size = element.size() if element is not None else WORD_SIZE
        return [vm.OP_GEPI, dest, base, index, element_size]

    def _emit_escape(self, instruction: ir.Instruction) -> None:
        """Bridge one instruction to its ``Interpreter._decode_single``
        handler, which reads its operands from a frame dict by name."""
        pairs: List[Tuple[str, int]] = []
        unproven: List[str] = []
        seen: Set[str] = set()
        for operand in instruction.operands:
            if not isinstance(operand, (ir.Argument, ir.Instruction)):
                continue  # constants resolve inside the handler
            name = operand.name
            reg = self.numbering.get(name)
            if reg is None or name in seen:
                continue  # a name never in the frame: the handler raises
            seen.add(name)
            pairs.append((name, reg))
            if not self.defined >> reg & 1:
                unproven.append(name)
        if isinstance(instruction, _ESCAPE_DEFINES):
            result_name: Optional[str] = instruction.name
            result_reg = self.numbering[instruction.name]
        else:
            result_name = None
            result_reg = -1
        run = self.interp._decode_single(self.function, instruction)
        if unproven:
            run = _drop_undefined(run, tuple(unproven))
            self.unproven = True
        index = len(self.escapes)
        self.escapes.append((run, tuple(pairs), result_name, result_reg))
        self.code.append(vm.OP_ESC)
        self.code.append(index)

    def _emit_edge_stubs(self) -> None:
        """One stub per CFG edge that checks a branch condition or
        copies phis; other edges branch straight to the block.  A stub
        checks the condition, then each phi's incoming value in phi
        order, then copies them all at once."""
        code = self.code
        self._edge_pc: Dict[Tuple[int, int], int] = {}
        needed = {(id(source), id(target)): (source, target)
                  for _, source, target in self.fixups}
        for key, (source, target) in needed.items():
            phis = self.leading_phis[id(target)]
            cond_checks = self.edge_checks.get(key, [])
            target_pc = self.block_pc[id(target)]
            if not phis and not cond_checks:
                self._edge_pc[key] = target_pc
                continue
            self._edge_pc[key] = len(code)
            for reg in cond_checks:
                code.extend((vm.OP_CHECK, reg))
            self.defined = self._ins[id(source)] | self._defs[id(source)]
            copies: List[Tuple[int, int]] = []
            for phi in phis:
                for value, pred in phi.incoming:
                    if pred is source:
                        source_reg = self._reg(value)
                        break
                else:
                    source_reg = self._const_reg(0)
                copies.append((source_reg, self.numbering[phi.name]))
            if self.checks and self.observed:
                # The target block's entry is observed before its phis
                # read their incoming values.
                code.extend((vm.OP_OBS, self.block_obs[id(target)]))
                target_pc += 2
            code.extend(self._checked([]))
            if len(copies) == 1:
                source_reg, dest_reg = copies[0]
                code.extend((vm.OP_MOV, dest_reg, source_reg))
            elif copies:
                code.append(vm.OP_PARCOPY)
                code.append(len(copies))
                code.extend(source_reg for source_reg, _ in copies)
                code.extend(dest_reg for _, dest_reg in copies)
            code.extend((vm.OP_GOTO, target_pc))

    # -- kernel superinstructions --------------------------------------------
    #
    # A fused group's body is straight-line and uninterruptible: the
    # OP_STEPN header has already counted every step, charged the whole
    # in-order cycle sum, and fired any due on_step hooks before the
    # first body op runs.  That leaves pure dataflow,
    # which we generate per group as a real Python function over local
    # variables (registers read at entry, written back at exit) and
    # compile once per distinct text per process (``_KERNELS``),
    # cutting per-op dispatch from ~6 list indexings to ~3 bytecodes.
    # Constant-pool operands are inlined as literals; registers never
    # read outside the kernel skip the write-back.  Partially updated
    # registers after a mid-kernel raise (division by zero, memory
    # fault) are unobservable: the frame dies with the exception, and
    # steps/cycles were finalized at the header.  A group that checks a
    # read stays flat, so each check runs between the right body ops.

    def _kernel_spec(self, bodies: List[List[int]]):
        """Statements + entry-read and written register orders for one
        kernel, from its fused-group body op lists."""
        n_dyn = self.n_dyn
        consts = self.const_values
        entry: List[int] = []
        entry_set: Set[int] = set()
        written: List[int] = []
        written_set: Set[int] = set()

        def use(reg: int) -> str:
            if reg in written_set:
                return f"r{reg}"
            if reg >= n_dyn:
                return repr(consts[reg - n_dyn])
            if reg not in entry_set:
                entry_set.add(reg)
                entry.append(reg)
            return f"r{reg}"

        def define(reg: int) -> str:
            if reg not in written_set:
                written_set.add(reg)
                written.append(reg)
            return f"r{reg}"

        stmts: List[str] = []
        for body in bodies:
            op = body[0]
            sym = _KERNEL_BINOP_SYM.get(op)
            if sym is not None:
                a, b = use(body[2]), use(body[3])
                stmts.append(f"    {define(body[1])} = {a} {sym} {b}")
                continue
            sym = _KERNEL_CMP_SYM.get(op)
            if sym is not None:
                a, b = use(body[2]), use(body[3])
                stmts.append(
                    f"    {define(body[1])} = 1 if {a} {sym} {b} else 0")
            elif op == vm.OP_MOV:
                a = use(body[2])
                stmts.append(f"    {define(body[1])} = {a}")
            elif op == vm.OP_LOAD:
                a = use(body[2])
                stmts.append(f"    {define(body[1])} = load({a})")
            elif op == vm.OP_STORE:
                stmts.append(f"    store({use(body[1])}, {use(body[2])})")
            elif op == vm.OP_ADDI:
                a = use(body[2])
                stmts.append(f"    {define(body[1])} = {a} + {body[3]}")
            elif op == vm.OP_GEPI:
                a, i = use(body[2]), use(body[3])
                stmts.append(
                    f"    {define(body[1])} = {a} + {i} * {body[4]}")
            elif op == vm.OP_SELECT:
                c, a, b = use(body[2]), use(body[3]), use(body[4])
                stmts.append(
                    f"    {define(body[1])} = {a} if {c} else {b}")
            elif op == vm.OP_SHL:
                a, b = use(body[2]), use(body[3])
                stmts.append(f"    {define(body[1])} = {a} << ({b} & 63)")
            elif op == vm.OP_SHR:
                a, b = use(body[2]), use(body[3])
                stmts.append(f"    {define(body[1])} = {a} >> ({b} & 63)")
            elif op == vm.OP_DIV or op == vm.OP_REM:
                a, b = use(body[2]), use(body[3])
                word = "division" if op == vm.OP_DIV else "remainder"
                sym = "//" if op == vm.OP_DIV else "%"
                stmts.append(f"    if {b} == 0:")
                stmts.append(
                    f"        raise ProgramCrash('{word} by zero')")
                stmts.append(f"    {define(body[1])} = {a} {sym} {b}")
            elif op == vm.OP_FBIN:
                a, b = use(body[3]), use(body[4])
                stmts.append(
                    f"    {define(body[1])} = "
                    f"fbin({vm.FOPS[body[2]]!r}, {a}, {b})")
            else:  # pragma: no cover - flush() keeps checks out
                raise AssertionError(f"no kernel form for opcode {op}")
        return stmts, entry, written

    def _regs_read_outside_kernels(self) -> Set[int]:
        """Registers the final flat code (and escape bridges) read; a
        kernel-written register outside this set — and outside every
        kernel's entry-read set — needs no write-back."""
        code = self.code
        reads: Set[int] = set()
        pc = 0
        length = len(code)
        while pc < length:
            op = code[pc]
            if op in _READS_23:
                reads.add(code[pc + 2])
                reads.add(code[pc + 3])
                pc += 4
            elif op == vm.OP_MOV or op == vm.OP_LOAD:
                reads.add(code[pc + 2])
                pc += 3
            elif op == vm.OP_STORE:
                reads.add(code[pc + 1])
                reads.add(code[pc + 2])
                pc += 3
            elif op == vm.OP_STEP1C:
                pc += 2
            elif op == vm.OP_STEPN or op == vm.OP_JMP:
                pc += 3
            elif op == vm.OP_JNZ:
                reads.add(code[pc + 2])
                pc += 5
            elif op == vm.OP_ADDI:
                reads.add(code[pc + 2])
                pc += 4
            elif op == vm.OP_GEPI:
                reads.add(code[pc + 2])
                reads.add(code[pc + 3])
                pc += 5
            elif op == vm.OP_SELECT:
                reads.add(code[pc + 2])
                reads.add(code[pc + 3])
                reads.add(code[pc + 4])
                pc += 5
            elif op == vm.OP_FBIN:
                reads.add(code[pc + 3])
                reads.add(code[pc + 4])
                pc += 5
            elif op == vm.OP_PARCOPY:
                count = code[pc + 1]
                for position in range(count):
                    reads.add(code[pc + 2 + position])
                pc += 2 + 2 * count
            elif op == vm.OP_RET or op == vm.OP_RETC or op == vm.OP_CHECK:
                reads.add(code[pc + 1])
                pc += 2
            elif op == vm.OP_SETJMP:
                reads.add(code[pc + 1])
                pc += 3
            else:  # OP_GOTO / OP_ESC / OP_OBS / OP_KERNEL
                pc += 2
        for _, pairs, _, _ in self.escapes:
            for _, reg in pairs:
                reads.add(reg)
        return reads

    def _compile_kernels(self) -> List[Callable]:
        """Generate every kernel superinstruction for this function and
        compile, in one module, those the process-wide memo has not seen
        (called after branch fixups, when all register reads are final).
        """
        if not self.kernel_bodies:
            return []
        specs = [self._kernel_spec(bodies) for bodies in self.kernel_bodies]
        live = self._regs_read_outside_kernels()
        for _, entry, _ in specs:
            live.update(entry)
        keys: List[bytes] = []
        fresh: Dict[bytes, str] = {}
        for stmts, entry, written in specs:
            lines = [f"    r{reg} = regs[{reg}]" for reg in entry]
            lines.extend(stmts)
            lines.extend(f"    regs[{reg}] = r{reg}"
                         for reg in written if reg in live)
            body = "\n".join(lines)
            key = hashlib.blake2b(body.encode(), digest_size=16).digest()
            keys.append(key)
            if key not in _KERNELS:
                fresh[key] = body
        if fresh:
            # Process-wide serial names: a kernel serves every function
            # whose lowering generates its text.
            first = len(_KERNELS)
            source = "\n".join(
                f"def _k{first + offset}(regs, load, store, fbin):\n{body}\n"
                for offset, body in enumerate(fresh.values()))
            namespace = {"ProgramCrash": vm.ProgramCrash}
            exec(compile(source, "<vm-kernels>", "exec"), namespace)
            for offset, key in enumerate(fresh):
                _KERNELS[key] = namespace[f"_k{first + offset}"]
        return [_KERNELS[key] for key in keys]
