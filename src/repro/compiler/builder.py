"""Fluent construction API for the mini IR.

Plays the role of ``llvm::IRBuilder``: tracks an insertion point and
provides one method per instruction.  The workload generators
(:mod:`repro.workloads`) and the attack suite build victim programs with
this API; tests use it to assemble minimal reproducers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.compiler import ir
from repro.compiler.types import FunctionType, I64, Type


class IRBuilder:
    """Builds instructions at a movable insertion point."""

    def __init__(self, block: Optional[ir.BasicBlock] = None) -> None:
        self.block = block

    def position_at_end(self, block: ir.BasicBlock) -> "IRBuilder":
        self.block = block
        return self

    def _emit(self, instruction: ir.Instruction) -> ir.Instruction:
        if self.block is None:
            raise ValueError("no insertion point set")
        return self.block.append(instruction)

    # -- constants ------------------------------------------------------------

    @staticmethod
    def const(value: int, type_: Type = I64) -> ir.Constant:
        return ir.Constant(value, type_)

    # -- memory ---------------------------------------------------------------

    def alloca(self, allocated_type: Type, name: str = "") -> ir.Alloca:
        return self._emit(ir.Alloca(allocated_type, name))

    def load(self, pointer: ir.Value, name: str = "", **flags) -> ir.Load:
        return self._emit(ir.Load(pointer, name, **flags))

    def store(self, value: ir.Value, pointer: ir.Value, **flags) -> ir.Store:
        return self._emit(ir.Store(value, pointer, **flags))

    def gep_field(self, pointer: ir.Value, field: str, name: str = "") -> ir.Gep:
        return self._emit(ir.Gep(pointer, field=field, name=name))

    def gep_index(self, pointer: ir.Value, index: ir.Value, name: str = "") -> ir.Gep:
        return self._emit(ir.Gep(pointer, index=index, name=name))

    def cast(self, value: ir.Value, to: Type, name: str = "") -> ir.Cast:
        return self._emit(ir.Cast(value, to, name))

    # -- arithmetic -------------------------------------------------------------

    def binop(self, op: str, lhs: ir.Value, rhs: ir.Value, name: str = "") -> ir.BinOp:
        return self._emit(ir.BinOp(op, lhs, rhs, name))

    def add(self, lhs: ir.Value, rhs: ir.Value, name: str = "") -> ir.BinOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: ir.Value, rhs: ir.Value, name: str = "") -> ir.BinOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: ir.Value, rhs: ir.Value, name: str = "") -> ir.BinOp:
        return self.binop("mul", lhs, rhs, name)

    def cmp(self, op: str, lhs: ir.Value, rhs: ir.Value, name: str = "") -> ir.Cmp:
        return self._emit(ir.Cmp(op, lhs, rhs, name))

    def select(self, cond: ir.Value, if_true: ir.Value, if_false: ir.Value,
               name: str = "") -> ir.Select:
        return self._emit(ir.Select(cond, if_true, if_false, name))

    # -- control ------------------------------------------------------------------

    def br(self, target: ir.BasicBlock) -> ir.Br:
        return self._emit(ir.Br(target))

    def cond_br(self, cond: ir.Value, if_true: ir.BasicBlock,
                if_false: ir.BasicBlock) -> ir.CondBr:
        return self._emit(ir.CondBr(cond, if_true, if_false))

    def ret(self, value: Optional[ir.Value] = None) -> ir.Ret:
        return self._emit(ir.Ret(value))

    # -- calls ------------------------------------------------------------------------

    def call(self, callee: ir.Function, args: Sequence[ir.Value] = (),
             name: str = "", tail: bool = False) -> ir.Call:
        return self._emit(ir.Call(callee, args, name, tail))

    def icall(self, target: ir.Value, args: Sequence[ir.Value],
              signature: FunctionType, name: str = "") -> ir.ICall:
        return self._emit(ir.ICall(target, args, signature, name))

    # -- heap / libc -------------------------------------------------------------------

    def malloc(self, size: ir.Value, name: str = "") -> ir.Malloc:
        return self._emit(ir.Malloc(size, name))

    def free(self, pointer: ir.Value) -> ir.Free:
        return self._emit(ir.Free(pointer))

    def realloc(self, pointer: ir.Value, size: ir.Value, name: str = "") -> ir.Realloc:
        return self._emit(ir.Realloc(pointer, size, name))

    def memcpy(self, dst: ir.Value, src: ir.Value, size: ir.Value,
               element_type: Optional[Type] = None, decayed: bool = False) -> ir.MemCopy:
        return self._emit(ir.MemCopy(dst, src, size, move=False,
                                     element_type=element_type, decayed=decayed))

    def memset(self, dst: ir.Value, value: ir.Value, size: ir.Value) -> ir.MemSet:
        return self._emit(ir.MemSet(dst, value, size))

    def syscall(self, number: int, args: Sequence[ir.Value] = (),
                name: str = "") -> ir.Syscall:
        return self._emit(ir.Syscall(number, args, name))

    def setjmp(self, buf: ir.Value, name: str = "") -> ir.Setjmp:
        return self._emit(ir.Setjmp(buf, name))

    def longjmp(self, buf: ir.Value, value: ir.Value) -> ir.Longjmp:
        return self._emit(ir.Longjmp(buf, value))
