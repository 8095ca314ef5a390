"""Compiler analyses backing the instrumentation passes.

Implements the paper's section 4.1.4 analyses:

* **Function-pointer detection**: a pointer slot is treated as holding a
  function pointer if (1) it is ever defined from a value of function
  pointer type, *including via pointer casts and φ-nodes*, or (2) other
  uses of its original value are ever cast to function-pointer type.
  This avoids false negatives from type casting/decay.
* **Escape analysis**: decides whether a stack slot's address escapes
  the defining function (passed to a call, stored to memory, returned),
  bounding where the store-to-load-forwarding and message-elision
  optimizations are sound.
* **Function attributes** used by the backward-edge pass (section
  4.1.6): may-write-memory, known-to-return, has-stack-allocations,
  always-tail-called.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.compiler import ir
from repro.compiler.types import is_function_pointer, is_vtable_pointer


def _value_sources(value: ir.Value, seen: Set[int]) -> Iterable[ir.Value]:
    """Transitive data sources of ``value`` through casts/φ/selects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, ir.Cast):
        yield from _value_sources(value.value, seen)
    elif isinstance(value, ir.Phi):
        for incoming, _ in value.incoming:
            yield from _value_sources(incoming, seen)
    elif isinstance(value, ir.Select):
        yield from _value_sources(value.if_true, seen)
        yield from _value_sources(value.if_false, seen)


def is_function_pointer_value(value: ir.Value) -> bool:
    """Whether ``value`` may carry a function pointer at runtime.

    Looks through casts, φ-nodes, and selects so that a decayed
    ``void *`` whose origin is a :class:`~repro.compiler.ir.FunctionRef`
    is still recognized (detection rule 1 of section 4.1.4).
    """
    for source in _value_sources(value, set()):
        if is_function_pointer(source.type) or is_vtable_pointer(source.type):
            return True
        if isinstance(source, ir.FunctionRef):
            return True
    return False


def uses_of(function: ir.Function, value: ir.Value) -> List[ir.Instruction]:
    """All instructions in ``function`` using ``value`` as an operand.

    A lookup in the function's def-use index (:meth:`ir.Function.users`),
    not a scan.  The order is the index's, not program order: callers
    only ask whether some use of a given kind exists.
    """
    return function.users(value)


def value_recast_to_function_pointer(function: ir.Function, value: ir.Value) -> bool:
    """Detection rule 2: some *other* use of ``value`` casts it to a
    function-pointer type, implying the slot may hold code addresses."""
    for use in uses_of(function, value):
        if isinstance(use, ir.Cast) and is_function_pointer(use.type):
            return True
    return False


def store_defines_function_pointer(function: ir.Function, store: ir.Store) -> bool:
    """Whether a store writes a (possibly laundered) function pointer."""
    if is_function_pointer_value(store.value):
        return True
    return value_recast_to_function_pointer(function, store.value)


def pointer_feeds_icall(function: ir.Function, value: ir.Value) -> bool:
    """Whether ``value`` (a loaded pointer) reaches an indirect call.

    Follows forward through casts/φ/selects.
    """
    worklist = [value]
    seen: Set[int] = set()
    while worklist:
        current = worklist.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        for use in uses_of(function, current):
            if isinstance(use, ir.ICall) and use.target is current:
                return True
            if isinstance(use, (ir.Cast, ir.Phi, ir.Select)):
                worklist.append(use)
    return False


class EscapeAnalysis:
    """Per-function escape analysis over ``alloca`` slots.

    A slot *escapes* if its address is passed to any call, stored into
    memory, returned, or flows into a value that does any of those.  The
    paper notes its escape analysis "is more precise than the built-in
    fast-but-conservative alias analysis"; ours is a straightforward
    flow-insensitive propagation, which is still far more precise than
    assuming everything aliases.
    """

    def __init__(self, function: ir.Function) -> None:
        self.function = function
        self.escaped: Set[ir.Instruction] = set()
        self._compute()

    def _compute(self) -> None:
        aliases: Dict[int, ir.Instruction] = {}
        for instruction in self.function.instructions():
            if isinstance(instruction, ir.Alloca):
                aliases[id(instruction)] = instruction
        changed = True
        while changed:
            changed = False
            for instruction in self.function.instructions():
                if isinstance(instruction, (ir.Cast, ir.Gep, ir.Phi, ir.Select)):
                    for operand in instruction.operands:
                        root = aliases.get(id(operand))
                        if root is not None and id(instruction) not in aliases:
                            aliases[id(instruction)] = root
                            changed = True
        for instruction in self.function.instructions():
            # RuntimeCall is deliberately excluded: instrumentation
            # passes slots to the trusted runtime, which neither
            # retains nor writes through them — counting those as
            # escapes would defeat the very optimizations that prune
            # instrumentation.
            if isinstance(instruction, (ir.Call, ir.ICall)):
                for arg in instruction.args:
                    self._mark(aliases, arg)
            elif isinstance(instruction, ir.Store):
                # Storing the *address* (not storing through it) escapes.
                self._mark(aliases, instruction.value)
            elif isinstance(instruction, ir.Ret) and instruction.value is not None:
                self._mark(aliases, instruction.value)
            elif isinstance(instruction, (ir.MemCopy, ir.MemSet)):
                for operand in instruction.operands:
                    self._mark(aliases, operand)

    def _mark(self, aliases: Dict[int, ir.Instruction], value: ir.Value) -> None:
        root = aliases.get(id(value))
        if root is not None:
            self.escaped.add(root)

    def may_escape(self, alloca: ir.Instruction) -> bool:
        """Whether the slot's address may be visible outside the function."""
        return alloca in self.escaped


def may_write_memory(function: ir.Function) -> bool:
    """Whether the function (conservatively) writes memory."""
    for instruction in function.instructions():
        if isinstance(instruction, (ir.Store, ir.MemCopy, ir.MemSet,
                                    ir.Malloc, ir.Free, ir.Realloc,
                                    ir.Call, ir.ICall, ir.Syscall)):
            return True
    return False


def has_stack_allocations(function: ir.Function) -> bool:
    """Whether the function allocates stack memory (``alloca``)."""
    return any(isinstance(i, ir.Alloca) for i in function.instructions())


def known_to_return(function: ir.Function) -> bool:
    """Whether some path reaches a ``ret`` (and not marked noreturn)."""
    if function.no_return:
        return False
    return any(isinstance(i, ir.Ret) for i in function.instructions())


def always_tail_called(function: ir.Function) -> bool:
    """Whether every call site of ``function`` in the module is a tail
    call (its frame never outlives the caller's return pointer)."""
    sites = [instruction for instruction in function.module.all_instructions()
             if isinstance(instruction, ir.Call) and instruction.callee is function]
    return bool(sites) and all(site.tail for site in sites)


def needs_return_pointer_protection(function: ir.Function) -> bool:
    """Section 4.1.6 predicate: the backward-edge pass instruments
    functions that may write to memory, are known to return, contain
    stack allocations, and are not always tail called."""
    if function.is_declaration:
        return False
    return (may_write_memory(function)
            and known_to_return(function)
            and has_stack_allocations(function)
            and not always_tail_called(function))


def address_taken_functions(module: ir.Module) -> Set[str]:
    """Functions whose address is taken anywhere in the module.

    This is the single coarse equivalence class used by designs like
    Microsoft CFG, and the starting point for Clang/LLVM CFI's
    type-based classes (section 6.3.1).
    """
    taken: Set[str] = set()
    for function in module.functions.values():
        if function.address_taken:
            taken.add(function.name)
    for instruction in module.all_instructions():
        for operand in instruction.operands:
            if isinstance(operand, ir.FunctionRef):
                taken.add(operand.function.name)
    for variable in module.globals.values():
        for value in variable.initializer or []:
            if isinstance(value, ir.FunctionRef):
                taken.add(value.function.name)
    return taken
