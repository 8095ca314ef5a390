"""Function inlining.

The paper's runtime library can be "inlined directly into monitored
programs, which reduces execution overhead at the cost of increased
size" (section 3.2); inlining is also what creates the duplicate-
destructor-invalidate pattern the message-elision pass cleans up
(section 4.1.4).  This pass implements the transformation for the mini
IR: direct calls to small, single-block, non-recursive functions are
replaced by a copy of the callee's body with parameters substituted.

Restricting to single-block callees keeps the clone a straight splice
(no CFG surgery, no φ for the return value) while covering the
functions that matter — accessors, arithmetic helpers, and the
messaging runtime's entry points.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.compiler import ir
from repro.compiler.analysis import uses_of
from repro.compiler.passes.base import ModulePass

#: Default ceiling on inlinable callee size, in instructions.
DEFAULT_THRESHOLD = 12


def _clone_instruction(instruction: ir.Instruction,
                       mapping: Dict[int, ir.Value]) -> ir.Instruction:
    """Copy ``instruction`` with operands substituted via ``mapping``."""

    def sub(value: ir.Value) -> ir.Value:
        return mapping.get(id(value), value)

    if isinstance(instruction, ir.Alloca):
        return ir.Alloca(instruction.allocated_type)
    if isinstance(instruction, ir.Load):
        return ir.Load(sub(instruction.pointer),
                       volatile=instruction.volatile,
                       atomic=instruction.atomic)
    if isinstance(instruction, ir.Store):
        return ir.Store(sub(instruction.value), sub(instruction.pointer),
                        volatile=instruction.volatile,
                        atomic=instruction.atomic)
    if isinstance(instruction, ir.Gep):
        return ir.Gep(sub(instruction.pointer), field=instruction.field,
                      index=(sub(instruction.index)
                             if instruction.index is not None else None))
    if isinstance(instruction, ir.Cast):
        return ir.Cast(sub(instruction.value), instruction.type)
    if isinstance(instruction, ir.BinOp):
        return ir.BinOp(instruction.op, sub(instruction.lhs),
                        sub(instruction.rhs))
    if isinstance(instruction, ir.Cmp):
        return ir.Cmp(instruction.op, sub(instruction.lhs),
                      sub(instruction.rhs))
    if isinstance(instruction, ir.Select):
        return ir.Select(sub(instruction.cond), sub(instruction.if_true),
                         sub(instruction.if_false))
    if isinstance(instruction, ir.Call):
        return ir.Call(instruction.callee,
                       [sub(a) for a in instruction.args],
                       tail=False)
    if isinstance(instruction, ir.ICall):
        return ir.ICall(sub(instruction.target),
                        [sub(a) for a in instruction.args],
                        instruction.signature)
    if isinstance(instruction, ir.RuntimeCall):
        return ir.RuntimeCall(instruction.runtime_name,
                              [sub(a) for a in instruction.args],
                              instruction.type)
    if isinstance(instruction, ir.Malloc):
        return ir.Malloc(sub(instruction.size))
    if isinstance(instruction, ir.Free):
        return ir.Free(sub(instruction.pointer))
    if isinstance(instruction, ir.Realloc):
        return ir.Realloc(sub(instruction.pointer), sub(instruction.size))
    if isinstance(instruction, ir.MemCopy):
        return ir.MemCopy(sub(instruction.dst), sub(instruction.src),
                          sub(instruction.size), move=instruction.move,
                          element_type=instruction.element_type,
                          decayed=instruction.decayed)
    if isinstance(instruction, ir.MemSet):
        return ir.MemSet(sub(instruction.dst), sub(instruction.value),
                         sub(instruction.size))
    if isinstance(instruction, ir.Syscall):
        return ir.Syscall(instruction.number,
                          [sub(a) for a in instruction.args])
    raise NotImplementedError(
        f"cannot clone {instruction.opname} for inlining")


class InlinerPass(ModulePass):
    """Inline small single-block callees into their direct call sites."""

    name = "inliner"

    def __init__(self, threshold: int = DEFAULT_THRESHOLD) -> None:
        super().__init__()
        self.threshold = threshold

    def run(self, module: ir.Module) -> None:
        for function in list(module.functions.values()):
            if function.is_declaration:
                continue
            self._run_on_function(function)

    def _inlinable(self, caller: ir.Function,
                   callee: ir.Function) -> bool:
        if callee.is_declaration or callee is caller:
            return False
        if len(callee.blocks) != 1:
            return False
        body = callee.entry.instructions
        if len(body) > self.threshold:
            return False
        if not isinstance(body[-1], ir.Ret):
            return False
        # Self-recursive single-block callees cannot exist (a call to
        # itself plus a ret would still be inlinable but explode); any
        # call back to the caller would also loop the worklist.
        for instruction in body:
            if isinstance(instruction, ir.Call) and \
                    instruction.callee in (caller, callee):
                return False
            if isinstance(instruction, (ir.Setjmp, ir.Longjmp, ir.Phi)):
                return False
        return True

    def _run_on_function(self, function: ir.Function) -> None:
        changed = True
        while changed:
            changed = False
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.Call) and \
                            self._inlinable(function, instruction.callee):
                        self._inline_site(function, block, instruction)
                        self.bump("calls-inlined")
                        changed = True
                        break
                if changed:
                    break

    def _inline_site(self, function: ir.Function, block: ir.BasicBlock,
                     call: ir.Call) -> None:
        callee = call.callee
        mapping: Dict[int, ir.Value] = {
            id(param): argument
            for param, argument in zip(callee.params, call.args)}

        clones: List[ir.Instruction] = []
        return_value: Optional[ir.Value] = None
        for instruction in callee.entry.instructions:
            if isinstance(instruction, ir.Ret):
                if instruction.value is not None:
                    return_value = mapping.get(id(instruction.value),
                                               instruction.value)
                break
            clone = _clone_instruction(instruction, mapping)
            mapping[id(instruction)] = clone
            clones.append(clone)

        index = block.instructions.index(call)
        block.remove(call)
        for offset, clone in enumerate(clones):
            block.insert(index + offset, clone)

        # Rewire uses of the call's result.
        replacement = (return_value if return_value is not None
                       else ir.Constant(0))
        for user in uses_of(function, call):
            user.replace_operand(call, replacement)
