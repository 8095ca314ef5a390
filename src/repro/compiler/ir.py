"""Mini SSA intermediate representation.

A compact LLVM-flavoured IR: a :class:`Module` holds global variables
and :class:`Function` s; each function is a list of :class:`BasicBlock` s
of :class:`Instruction` s ending in a terminator.  Instructions are SSA
values (each produces at most one result, referenced directly as
operands).  The instrumentation passes of :mod:`repro.compiler.passes`
rewrite this IR exactly the way the paper's LLVM passes rewrite LLVM IR,
and :mod:`repro.sim.cpu` interprets it against a simulated process.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.compiler.types import (
    FunctionType,
    I64,
    PointerType,
    StructType,
    Type,
    VOID,
    ptr,
)


class Value:
    """Anything usable as an instruction operand."""

    type: Type
    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name or hex(id(self))}>"


class Constant(Value):
    """An integer (or address) literal."""

    def __init__(self, value: int, type_: Type = I64) -> None:
        self.value = value
        self.type = type_

    def __repr__(self) -> str:
        return f"const {self.value}"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, function: "Function", index: int, type_: Type, name: str) -> None:
        self.function = function
        self.index = index
        self.type = type_
        self.name = name


class GlobalVariable(Value):
    """A module-level variable; its value is its address.

    ``const`` globals are placed in the read-only data segment by the
    loader — the paper compiles with read-only relocations and eager
    binding, so constant function-pointer tables need no protection
    (section 4.1.3).
    """

    def __init__(self, name: str, value_type: Type,
                 initializer: Optional[Sequence[Value]] = None,
                 const: bool = False) -> None:
        self.name = name
        self.value_type = value_type
        self.type = ptr(value_type)
        self.initializer = list(initializer) if initializer is not None else None
        self.const = const
        #: Assigned by the loader.
        self.address: Optional[int] = None


class FunctionRef(Value):
    """The address of a function, as a constant value."""

    def __init__(self, function: "Function") -> None:
        self.function = function
        self.type = ptr(function.signature)
        self.name = function.name


class Instruction(Value):
    """Base class for IR instructions.

    ``operands`` lists every :class:`Value` the instruction uses, so
    passes can do generic def-use reasoning; subclasses also expose the
    operands under meaningful attribute names.
    """

    _ids = itertools.count()
    opname = "?"
    is_terminator = False

    def __init__(self, type_: Type = VOID, name: str = "") -> None:
        self.type = type_
        #: An unnamed instruction gets a process-unique name now and
        #: its function's next serial number when a block first places
        #: it (:meth:`Function.number`), so a function's IR reads the
        #: same however many functions were built before it.
        self.auto_named = not name
        self.name = name or f"v{next(Instruction._ids)}"
        self.block: Optional["BasicBlock"] = None
        #: Free-form annotations used by passes (e.g. elision marks).
        self.meta: Dict[str, object] = {}

    @property
    def operands(self) -> List[Value]:
        return []

    @contextlib.contextmanager
    def _rewiring(self) -> Iterator[None]:
        """Wrap an operand rewrite so the enclosing function's def-use
        index (if built) moves this instruction between user lists."""
        uses = self.block.function._uses if self.block is not None else None
        if uses is None:
            yield
            return
        _unlink(uses, self)
        yield
        _link(uses, self)

    def replace_operand(self, old: Value, new: Value) -> None:
        """Replace every use of ``old`` with ``new`` in this instruction."""
        with self._rewiring():
            for attr, value in list(self.__dict__.items()):
                if value is old:
                    setattr(self, attr, new)
                elif isinstance(value, list):
                    setattr(self, attr,
                            [new if item is old else item for item in value])


# -- memory ------------------------------------------------------------------

class Alloca(Instruction):
    """Reserve stack storage for one value of ``allocated_type``."""

    opname = "alloca"

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__(ptr(allocated_type), name)
        self.allocated_type = allocated_type


class Load(Instruction):
    """Read the value pointed to by ``pointer``."""

    opname = "load"

    def __init__(self, pointer: Value, name: str = "",
                 volatile: bool = False, atomic: bool = False) -> None:
        pointee = pointer.type.pointee if isinstance(pointer.type, PointerType) else I64
        super().__init__(pointee, name)
        self.pointer = pointer
        self.volatile = volatile
        self.atomic = atomic

    @property
    def operands(self) -> List[Value]:
        return [self.pointer]


class Store(Instruction):
    """Write ``value`` through ``pointer``."""

    opname = "store"

    def __init__(self, value: Value, pointer: Value,
                 volatile: bool = False, atomic: bool = False) -> None:
        super().__init__(VOID)
        self.value = value
        self.pointer = pointer
        self.volatile = volatile
        self.atomic = atomic

    @property
    def operands(self) -> List[Value]:
        return [self.value, self.pointer]


class Gep(Instruction):
    """Get-element-pointer: address of a field/element inside ``pointer``.

    ``field`` is a struct field name; ``index`` an (optionally dynamic)
    array index.  Exactly one of them is used.
    """

    opname = "gep"

    def __init__(self, pointer: Value, field: Optional[str] = None,
                 index: Optional[Value] = None, name: str = "") -> None:
        base_type = pointer.type.pointee if isinstance(pointer.type, PointerType) else I64
        if field is not None:
            if not isinstance(base_type, StructType):
                raise TypeError(f"gep field access on non-struct {base_type!r}")
            result = ptr(base_type.field_type(field))
        elif index is not None:
            element = getattr(base_type, "element", base_type)
            result = ptr(element)
        else:
            raise ValueError("gep needs a field or an index")
        super().__init__(result, name)
        self.pointer = pointer
        self.field = field
        self.index = index

    @property
    def operands(self) -> List[Value]:
        ops = [self.pointer]
        if self.index is not None:
            ops.append(self.index)
        return ops


class Cast(Instruction):
    """Bitcast / ptrtoint / inttoptr: reinterpret ``value`` as ``to``.

    Casts are how function pointers *decay* into generic pointers; the
    function-pointer detection analysis follows them (section 4.1.4).
    """

    opname = "cast"

    def __init__(self, value: Value, to: Type, name: str = "") -> None:
        super().__init__(to, name)
        self.value = value

    @property
    def operands(self) -> List[Value]:
        return [self.value]


# -- arithmetic / control ------------------------------------------------------

class BinOp(Instruction):
    """Two-operand arithmetic (``add``/``sub``/``mul``/``div``/shifts...)."""

    opname = "binop"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        super().__init__(lhs.type, name)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]


class Cmp(Instruction):
    """Comparison producing 0/1 (``eq``/``ne``/``lt``/``le``/``gt``/``ge``)."""

    opname = "cmp"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        super().__init__(I64, name)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]


class Select(Instruction):
    """``cond ? if_true : if_false``."""

    opname = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        super().__init__(if_true.type, name)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    @property
    def operands(self) -> List[Value]:
        return [self.cond, self.if_true, self.if_false]


class Phi(Instruction):
    """SSA φ-node merging values from predecessor blocks."""

    opname = "phi"

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        self.incoming: List[Tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        with self._rewiring():
            self.incoming.append((value, block))

    @property
    def operands(self) -> List[Value]:
        return [value for value, _ in self.incoming]

    def replace_operand(self, old: Value, new: Value) -> None:
        with self._rewiring():
            self.incoming = [(new if value is old else value, block)
                             for value, block in self.incoming]


class Br(Instruction):
    """Unconditional branch."""

    opname = "br"
    is_terminator = True

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(VOID)
        self.target = target

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.target]


class CondBr(Instruction):
    """Conditional branch on a non-zero condition."""

    opname = "condbr"
    is_terminator = True

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock") -> None:
        super().__init__(VOID)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    @property
    def operands(self) -> List[Value]:
        return [self.cond]

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]


class Ret(Instruction):
    """Return from the function (a *backward-edge* transition)."""

    opname = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID)
        self.value = value

    @property
    def operands(self) -> List[Value]:
        return [self.value] if self.value is not None else []

    @property
    def successors(self) -> List["BasicBlock"]:
        return []


# -- calls ----------------------------------------------------------------------

class Call(Instruction):
    """Direct call (a *direct forward edge*: statically-known target)."""

    opname = "call"

    def __init__(self, callee: "Function", args: Sequence[Value],
                 name: str = "", tail: bool = False) -> None:
        super().__init__(callee.signature.ret, name)
        self.callee = callee
        self.args = list(args)
        self.tail = tail

    @property
    def operands(self) -> List[Value]:
        return list(self.args)


class ICall(Instruction):
    """Indirect call through a function-pointer value (*indirect forward
    edge*); the control-flow transition CFI must protect."""

    opname = "icall"

    def __init__(self, target: Value, args: Sequence[Value],
                 signature: FunctionType, name: str = "") -> None:
        super().__init__(signature.ret, name)
        self.target = target
        self.args = list(args)
        self.signature = signature

    @property
    def operands(self) -> List[Value]:
        return [self.target] + list(self.args)

    def retarget(self, target: Value) -> None:
        """Call through ``target`` instead; unlike :meth:`replace_operand`,
        an argument that is the old target keeps its value."""
        with self._rewiring():
            self.target = target


class RuntimeCall(Instruction):
    """A call into an instrumentation runtime (``hq_*``, ``ccfi_*``...).

    Inserted only by compiler passes; the interpreter dispatches it to
    the policy runtime registered for the execution.
    """

    opname = "rtcall"

    def __init__(self, runtime_name: str, args: Sequence[Value],
                 result_type: Type = VOID, name: str = "") -> None:
        super().__init__(result_type, name)
        self.runtime_name = runtime_name
        self.args = list(args)

    @property
    def operands(self) -> List[Value]:
        return list(self.args)


# -- libc-shaped intrinsics -------------------------------------------------------

class Malloc(Instruction):
    """Heap allocation of ``size`` bytes."""

    opname = "malloc"

    def __init__(self, size: Value, name: str = "") -> None:
        super().__init__(ptr(I64), name)
        self.size = size

    @property
    def operands(self) -> List[Value]:
        return [self.size]


class Free(Instruction):
    """Heap deallocation."""

    opname = "free"

    def __init__(self, pointer: Value) -> None:
        super().__init__(VOID)
        self.pointer = pointer

    @property
    def operands(self) -> List[Value]:
        return [self.pointer]


class Realloc(Instruction):
    """Heap reallocation; may move the block."""

    opname = "realloc"

    def __init__(self, pointer: Value, size: Value, name: str = "") -> None:
        super().__init__(ptr(I64), name)
        self.pointer = pointer
        self.size = size

    @property
    def operands(self) -> List[Value]:
        return [self.pointer, self.size]


class MemCopy(Instruction):
    """``memcpy``/``memmove`` over ``size`` bytes.

    ``element_type`` is the static composite type being copied when the
    front-end knows it — the input to the strict subtype check of the
    final-lowering pass.  ``decayed`` marks the four-benchmark pattern
    where a composite containing function pointers was passed
    inter-procedurally as a raw byte pointer (section 4.1.4), defeating
    the static check.
    """

    opname = "memcopy"

    def __init__(self, dst: Value, src: Value, size: Value,
                 move: bool = False, element_type: Optional[Type] = None,
                 decayed: bool = False) -> None:
        super().__init__(VOID)
        self.dst = dst
        self.src = src
        self.size = size
        self.move = move
        self.element_type = element_type
        self.decayed = decayed

    @property
    def operands(self) -> List[Value]:
        return [self.dst, self.src, self.size]


class MemSet(Instruction):
    """``memset`` over ``size`` bytes."""

    opname = "memset"

    def __init__(self, dst: Value, value: Value, size: Value) -> None:
        super().__init__(VOID)
        self.dst = dst
        self.value = value
        self.size = size

    @property
    def operands(self) -> List[Value]:
        return [self.dst, self.value, self.size]


class Syscall(Instruction):
    """A system-call instruction (inline ``syscall``/``int 0x80`` asm or a
    musl wrapper); the point where bounded asynchronous validation
    synchronizes (section 2.2)."""

    opname = "syscall"

    def __init__(self, number: int, args: Sequence[Value] = (), name: str = "") -> None:
        super().__init__(I64, name)
        self.number = number
        self.args = list(args)

    @property
    def operands(self) -> List[Value]:
        return list(self.args)


class Setjmp(Instruction):
    """``setjmp``: stores a control-flow pointer inside ``jmp_buf``."""

    opname = "setjmp"

    def __init__(self, buf: Value, name: str = "") -> None:
        super().__init__(I64, name)
        self.buf = buf

    @property
    def operands(self) -> List[Value]:
        return [self.buf]


class Longjmp(Instruction):
    """``longjmp``: non-local goto through the ``jmp_buf`` pointer."""

    opname = "longjmp"
    is_terminator = True

    def __init__(self, buf: Value, value: Value) -> None:
        super().__init__(VOID)
        self.buf = buf
        self.value = value

    @property
    def operands(self) -> List[Value]:
        return [self.buf, self.value]

    @property
    def successors(self) -> List["BasicBlock"]:
        return []


# -- def-use index -----------------------------------------------------------------

def _link(uses: Dict[Value, Dict[Instruction, None]],
          instruction: Instruction) -> None:
    """Record ``instruction`` as a user of each of its operands."""
    for operand in instruction.operands:
        users = uses.get(operand)
        if users is None:
            uses[operand] = {instruction: None}
        else:
            users[instruction] = None


def _unlink(uses: Dict[Value, Dict[Instruction, None]],
            instruction: Instruction) -> None:
    """Forget ``instruction`` as a user of each of its operands."""
    for operand in instruction.operands:
        users = uses.get(operand)
        if users is not None:
            users.pop(instruction, None)


# -- containers --------------------------------------------------------------------

class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, function: "Function", name: str) -> None:
        self.function = function
        self.name = name
        self.instructions: List[Instruction] = []

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return list(getattr(term, "successors", [])) if term else []

    def append(self, instruction: Instruction) -> Instruction:
        if self.terminator is not None:
            raise ValueError(f"block {self.name} already terminated")
        if instruction.auto_named:
            self.function.number(instruction)
        instruction.block = self
        self.instructions.append(instruction)
        if self.function._uses is not None:
            _link(self.function._uses, instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        if instruction.auto_named:
            self.function.number(instruction)
        instruction.block = self
        self.instructions.insert(index, instruction)
        if self.function._uses is not None:
            _link(self.function._uses, instruction)
        return instruction

    def insert_before(self, anchor: Instruction, instruction: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor), instruction)

    def insert_after(self, anchor: Instruction, instruction: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor) + 1, instruction)

    def remove(self, instruction: Instruction) -> None:
        self.instructions.remove(instruction)
        instruction.block = None
        if self.function._uses is not None:
            _unlink(self.function._uses, instruction)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.function.name}:{self.name}>"


class Function:
    """A function definition (or declaration, if it has no blocks)."""

    def __init__(self, module: "Module", name: str, signature: FunctionType,
                 param_names: Optional[Sequence[str]] = None) -> None:
        self.module = module
        self.name = name
        self.signature = signature
        names = list(param_names) if param_names else [
            f"arg{i}" for i in range(len(signature.params))]
        self.params = [Argument(self, i, t, n)
                       for i, (t, n) in enumerate(zip(signature.params, names))]
        self.blocks: List[BasicBlock] = []
        #: Attributes the backward-edge pass consults (section 4.1.6).
        self.returns_twice = False
        self.no_return = False
        #: True for functions belonging to an instrumented shared library
        #: (e.g. musl); used by library-compatibility experiments.
        self.from_library = False
        #: Explicitly address-taken (beyond uses visible in this module).
        self.address_taken = False
        #: Def-use index: each value → the instructions using it (an
        #: insertion-ordered dict used as a set).  Built by the first
        #: :meth:`users` query, kept current by every mutation method
        #: (block append/insert/remove, ``replace_operand``,
        #: ``add_incoming``, ``retarget``), dropped by :meth:`drop_uses`.
        self._uses: Optional[Dict[Value, Dict[Instruction, None]]] = None
        #: Serial numbers handed out by :meth:`number`.
        self._numbered = 0

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no body")
        return self.blocks[0]

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    def add_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(self, name or f"bb{len(self.blocks)}")
        self.blocks.append(block)
        return block

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def number(self, instruction: Instruction) -> None:
        """Name an unnamed instruction by this function's next serial
        number, printed ``%0``, ``%1``, ... as LLVM prints unnamed
        values.  Explicit names are never all digits, so the two
        cannot collide."""
        instruction.name = str(self._numbered)
        instruction.auto_named = False
        self._numbered += 1

    def users(self, value: Value) -> List[Instruction]:
        """Instructions of this function that use ``value`` as an
        operand, from the def-use index (built here on first use)."""
        uses = self._uses
        if uses is None:
            uses = self._uses = {}
            for instruction in self.instructions():
                _link(uses, instruction)
        return list(uses.get(value, ()))

    def drop_uses(self) -> None:
        """Forget the def-use index; the next :meth:`users` rebuilds it."""
        self._uses = None

    def value_numbering(self) -> Dict[str, int]:
        """Stable local-value numbering: parameters first, then every
        instruction name in block order.

        The numbering depends only on IR structure — never on object
        identities — so two interpreters lowering the same function
        assign identical register indices and emit identical VM code
        (:mod:`repro.sim.lower` relies on this).  Duplicate names map to
        one index, mirroring the frame-dict aliasing of the closure
        interpreter.
        """
        numbering: Dict[str, int] = {}
        for param in self.params:
            if param.name not in numbering:
                numbering[param.name] = len(numbering)
        for block in self.blocks:
            for instruction in block.instructions:
                if instruction.name not in numbering:
                    numbering[instruction.name] = len(numbering)
        return numbering

    def ref(self) -> FunctionRef:
        return FunctionRef(self)

    def __repr__(self) -> str:
        return f"<Function {self.name} {self.signature!r}>"


class Module:
    """A compilation unit: functions plus global variables."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        #: Names of functions on the block-op instrumentation allowlist
        #: (section 4.1.4: four benchmarks pass decayed function pointers
        #: inter-procedurally and need always-on block instrumentation).
        self.block_op_allowlist: set = set()

    def add_function(self, name: str, signature: FunctionType,
                     param_names: Optional[Sequence[str]] = None) -> Function:
        if name in self.functions:
            raise ValueError(f"duplicate function {name!r}")
        function = Function(self, name, signature, param_names)
        self.functions[name] = function
        return function

    def add_global(self, name: str, value_type: Type,
                   initializer: Optional[Sequence[Value]] = None,
                   const: bool = False) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r}")
        variable = GlobalVariable(name, value_type, initializer, const)
        self.globals[name] = variable
        return variable

    def all_instructions(self) -> Iterator[Instruction]:
        for function in self.functions.values():
            yield from function.instructions()

    def verify(self) -> None:
        """Check structural invariants; raises ``ValueError`` on failure."""
        for function in self.functions.values():
            for block in function.blocks:
                if block.terminator is None:
                    raise ValueError(
                        f"{function.name}:{block.name} lacks a terminator")
                for instruction in block.instructions[:-1]:
                    if instruction.is_terminator:
                        raise ValueError(
                            f"{function.name}:{block.name} has a terminator "
                            f"{instruction.opname} before the block end")
