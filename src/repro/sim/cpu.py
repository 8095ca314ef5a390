"""IR interpreter: the simulated CPU.

Executes :mod:`repro.compiler.ir` programs against a
:class:`~repro.sim.process.Process`, charging cycle costs per operation
(:data:`repro.sim.cycles.OP_COSTS`) and — crucially for the security
experiments — modelling the machine-level mechanics that memory-safety
attacks abuse:

* **Return addresses live in simulated memory.**  Every call pushes a
  return-site address onto the simulated stack (or onto a *safe stack*
  region when that mitigation is enabled); every return reads it back
  and transfers control to whatever it finds.  A buffer overflow that
  reaches the slot therefore hijacks control exactly as on real
  hardware.
* **Indirect calls go through memory values.**  A corrupted function
  pointer redirects execution to the attacker's choice of function
  entry; a garbage value crashes.
* **Instrumentation runs inline.**  ``RuntimeCall`` instructions
  dispatch into the policy runtime registered with the interpreter —
  HerQules' messaging runtime or one of the baseline defenses — which
  may send messages, charge cycles, or abort the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.compiler import ir
from repro.compiler.types import PointerType
from repro.sim.cycles import OP_COSTS
from repro.sim.loader import Image
from repro.sim.memory import (
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
    WORD_SIZE,
)
from repro.sim.process import Process


class ProgramCrash(Exception):
    """The simulated program crashed (segfault, bad jump, heap abuse)."""


# ---------------------------------------------------------------------------
# Operator tables (fast-path dispatch)
# ---------------------------------------------------------------------------

def _op_add(lhs: int, rhs: int) -> int:
    return lhs + rhs


def _op_sub(lhs: int, rhs: int) -> int:
    return lhs - rhs


def _op_mul(lhs: int, rhs: int) -> int:
    return lhs * rhs


def _op_div(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise ProgramCrash("division by zero")
    return lhs // rhs


def _op_rem(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise ProgramCrash("remainder by zero")
    return lhs % rhs


def _op_and(lhs: int, rhs: int) -> int:
    return lhs & rhs


def _op_or(lhs: int, rhs: int) -> int:
    return lhs | rhs


def _op_xor(lhs: int, rhs: int) -> int:
    return lhs ^ rhs


def _op_shl(lhs: int, rhs: int) -> int:
    return lhs << (rhs & 63)


def _op_shr(lhs: int, rhs: int) -> int:
    return lhs >> (rhs & 63)


#: Integer binary operators, pre-resolved so the hot loop never string-matches.
_BINOP_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "add": _op_add, "sub": _op_sub, "mul": _op_mul,
    "div": _op_div, "sdiv": _op_div, "udiv": _op_div,
    "rem": _op_rem, "srem": _op_rem, "urem": _op_rem,
    "and": _op_and, "or": _op_or, "xor": _op_xor,
    "shl": _op_shl, "shr": _op_shr, "lshr": _op_shr, "ashr": _op_shr,
}

_FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv")

_CMP_FUNCS: Dict[str, Callable[[int, int], bool]] = {
    "eq": lambda lhs, rhs: lhs == rhs,
    "ne": lambda lhs, rhs: lhs != rhs,
    "lt": lambda lhs, rhs: lhs < rhs,
    "le": lambda lhs, rhs: lhs <= rhs,
    "gt": lambda lhs, rhs: lhs > rhs,
    "ge": lambda lhs, rhs: lhs >= rhs,
}


class ExecutionLimitExceeded(ProgramCrash):
    """Instruction budget exhausted — a hang (e.g. CPI's infinite loop)."""


class PolicyViolationError(Exception):
    """An *in-process* defense check failed and aborted the program."""

    def __init__(self, policy: str, detail: str = "") -> None:
        self.policy = policy
        self.detail = detail
        super().__init__(f"{policy}: {detail}")


class ProcessKilledError(Exception):
    """The kernel killed the process (verifier-signalled violation)."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


@dataclass
class HijackEvent:
    """A control-flow transfer to a non-intended target."""

    kind: str          # "return", "icall", "longjmp"
    target: int        # the attacker-controlled address
    function: str      # function in which the hijack occurred


class _LongjmpUnwind(Exception):
    """Internal: non-local goto in flight."""

    def __init__(self, token: int, value: int) -> None:
        self.token = token
        self.value = value


class _ReturnHijack(Exception):
    """Internal: a return used a corrupted address; unwinds to top."""

    def __init__(self, event: HijackEvent) -> None:
        self.event = event


class _DecodedBlock:
    """Decode-cache entry for one basic block.

    ``phis`` are the block's leading phi instructions (evaluated
    simultaneously on entry, as before).  ``entries`` is the executable
    straight-line body: ``(run, nsteps, instruction)`` triples where
    ``run(frame)`` executes one instruction — or a fused group of
    ``nsteps`` side-effect-free ones with a single batched cycle charge
    (``instruction`` is then None).
    """

    __slots__ = ("phis", "entries")

    def __init__(self, phis: List["ir.Phi"],
                 entries: List[Tuple[Callable, int, Optional["ir.Instruction"]]]
                 ) -> None:
        self.phis = phis
        self.entries = entries

    def index_after(self, instruction: "ir.Instruction") -> int:
        """Entry index just past ``instruction`` (setjmp resume point)."""
        for position, (_, _, decoded) in enumerate(self.entries):
            if decoded is instruction:
                return position + 1
        return len(self.entries)


@dataclass
class ExecOptions:
    """Knobs the compiler driver / framework set on the execution."""

    #: Return addresses go to a hidden safe-stack region instead of the
    #: regular stack (Clang SafeStack / CPI / HQ-CFI-SfeStk).
    safe_stack: bool = False
    #: Guard pages around the safe stack (Clang/LLVM CFI adds these).
    safe_stack_guard: bool = False
    #: Map the safe stack contiguously above the regular stack (CPI's
    #: layout, which lacks guard pages — the configuration RIPE's
    #: "linear overwrite" attacks walk into, section 5.2).
    safe_stack_adjacent: bool = False
    #: Program-layout randomization (shifts the safe-stack base).
    aslr: bool = True
    #: Instruction budget; exceeding it is treated as a hang.
    max_steps: int = 5_000_000
    #: Model of CCFI's x87 register pressure: float arithmetic loses
    #: precision, corrupting numeric output (section 5.1).
    fp_precision_loss: bool = False
    #: Multiplicative slowdown on ordinary computation from reserved
    #: registers (CCFI keeps its key in eleven XMM registers, forcing
    #: spills throughout compiled code).
    register_pressure_factor: float = 1.0
    #: Extra cycles per call for maintaining a second (safe) stack
    #: pointer in the function prologue/epilogue.
    safe_stack_call_cycles: float = 8.0
    #: Seed for the layout randomization.
    seed: int = 1
    #: Interpreter execution tier: ``"vm"`` (default) lazily lowers
    #: functions into the flat register VM (:mod:`repro.sim.vm`) with
    #: per-instruction deopt bridges back to the closure path;
    #: ``"closure"`` forces the fused-closure tier everywhere.
    interp_tier: str = "vm"


class Runtime:
    """Base policy runtime: receives ``RuntimeCall`` dispatches.

    The default implementation ignores every call (the uninstrumented
    baseline); policy runtimes override :meth:`call`.
    """

    name = "baseline"

    def bind(self, interpreter: "Interpreter") -> None:
        """Called once before execution starts."""
        self.interpreter = interpreter

    def call(self, name: str, args: List[int]) -> int:
        """Handle runtime call ``name``; returns an integer result."""
        return 0

    def on_program_start(self, image: Image) -> None:
        """Hook: program startup, after relocation."""


#: Syscall numbers understood by the default dispatcher.
SYS_READ = 0
SYS_WRITE = 1
SYS_OPEN = 2
SYS_CLOSE = 3
SYS_MMAP = 9
SYS_EXIT = 60
SYS_EXECVE = 59
SYS_FORK = 57
SYS_GETPID = 39
#: Attack-suite marker: reaching this syscall means the exploit achieved
#: an externally visible effect (RIPE verifies exploits via syscalls).
SYS_WIN = 1337

SyscallDispatcher = Callable[[Process, int, List[int]], int]

#: Sentinel distinguishing "never lowered" from "lowered to None
#: (rejected)" in the compile-tier cache.
_UNCOMPILED = object()


def default_syscall_dispatcher(process: Process, number: int,
                               args: List[int]) -> int:
    """Minimal standalone syscall table (no kernel attached)."""
    if number == SYS_EXIT:
        process.exited = True
        process.exit_status = args[0] if args else 0
        return 0
    if number == SYS_GETPID:
        return process.pid
    if number == SYS_WRITE:
        return args[2] if len(args) > 2 else 0
    return 0


class Interpreter:
    """Executes a loaded program image."""

    #: How often the concurrent-verifier hook fires, in executed
    #: instructions (models the verifier draining on its own core).
    ON_STEP_INTERVAL = 256

    def __init__(self, image: Image, runtime: Optional[Runtime] = None,
                 options: Optional[ExecOptions] = None,
                 syscall_dispatcher: Optional[SyscallDispatcher] = None,
                 on_step: Optional[Callable[[], None]] = None,
                 observer=None) -> None:
        self.image = image
        self.process = image.process
        self.runtime = runtime or Runtime()
        self.options = options or ExecOptions()
        self.syscall_dispatcher = syscall_dispatcher or default_syscall_dispatcher
        self._on_step = on_step
        #: Observability hook (:class:`repro.obs.Observer`); None keeps
        #: the block-dispatch loop at one predicate check of overhead.
        self.observer = observer
        self.steps = 0
        self.hijacks: List[HijackEvent] = []
        #: (ret_slot, return_address) per active call; instrumentation
        #: runtimes read the top entry to locate the current frame's
        #: return-address slot (retptr/CCFI/shadow-stack designs).
        self.call_stack: List[Tuple[int, int]] = []
        self.output: List[int] = []
        self._site_ids: Dict[int, int] = {}
        self._setjmp_points: Dict[int, Tuple[ir.Setjmp, object]] = {}
        self._rng = random.Random(self.options.seed)
        #: Fast-path caches: decoded basic blocks (bound handlers +
        #: pre-resolved operand accessors) and per-function frame layouts.
        self._block_cache: Dict[int, "_DecodedBlock"] = {}
        self._frame_layouts: Dict[int, Tuple[int, List[Tuple[str, int]]]] = {}
        #: Compile tier: lazily lowered functions (None = rejected to
        #: the closure path).  Both code caches bake in protection-epoch
        #: and process state (bound memory/cycle methods, resolved
        #: addresses), so they are validated against
        #: ``(process, prot_epoch)`` on every function entry and flushed
        #: when either diverges (mprotect mid-run, fork-child rebind).
        self._vm_cache: Dict[int, object] = {}
        self._cache_process = self.process
        self._cache_epoch = self.process.memory.prot_epoch
        self._vm_enabled = self.options.interp_tier != "closure"
        if self._vm_enabled:
            from repro.sim.vm import execute as vm_execute
            self._vm_execute = vm_execute
        #: Tier telemetry (plain counters; the observer mirrors them as
        #: ``interp.compiled_blocks`` / ``interp.deopt_count``).
        self.compiled_functions = 0
        self.deopt_count = 0

        self.safe_stack_base: Optional[int] = None
        self.safe_sp: Optional[int] = None
        if self.options.safe_stack:
            self._setup_safe_stack()

        self.runtime.bind(self)

    # -- safe stack -------------------------------------------------------------

    def _setup_safe_stack(self) -> None:
        """Map the hidden safe-stack region (information hiding).

        The base is randomized when ASLR is on; guard pages (PROT_NONE)
        bracket the region when requested, so *linear* overflows that
        walk into the region fault before reaching saved return
        addresses.
        """
        size = 1 << 16
        if self.options.safe_stack_adjacent:
            # CPI layout: the safe region sits directly above the regular
            # stack with no guard gap, reachable by a linear overwrite.
            from repro.sim.process import STACK_TOP
            self.process.memory.map_region(STACK_TOP, size,
                                           PROT_READ | PROT_WRITE,
                                           "safestack-adjacent")
            self.safe_stack_base = STACK_TOP
            self.safe_sp = STACK_TOP + size - WORD_SIZE
            return
        if self.options.safe_stack_guard:
            region = self.process.mmap_anonymous(size + 2 * 4096, PROT_NONE,
                                                 "safestack+guards")
            base = region + 4096
            self.process.memory.protect_region(base, size, PROT_READ | PROT_WRITE)
        else:
            base = self.process.mmap_anonymous(size, PROT_READ | PROT_WRITE,
                                               "safestack")
        if self.options.aslr:
            # Randomize within the mapping at word granularity, modelling
            # layout randomization of the hidden region.
            slack = (size // 2) // WORD_SIZE
            base += self._rng.randrange(0, slack) * WORD_SIZE
        self.safe_stack_base = base
        self.safe_sp = base + (1 << 15)

    # -- entry point ---------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List[int]] = None) -> int:
        """Execute ``entry`` to completion; returns its result."""
        function = self.image.module.functions[entry]
        self.runtime.on_program_start(self.image)
        try:
            return self._exec_function(function, args or [])
        except _ReturnHijack as unwound:
            # A hijacked return unwound past the entry point after the
            # attacker payload ran; treat like program termination.
            self.process.exited = True
            return -1

    # -- helpers ---------------------------------------------------------------------

    def _charge(self, op: str) -> None:
        cost = OP_COSTS.get(op, 1.0) * self.options.register_pressure_factor
        self.process.cycles.charge_user(cost)

    def _site_address(self, caller: ir.Function, call: ir.Instruction) -> int:
        """Stable per-call-site return address inside the caller's text."""
        key = id(call)
        if key not in self._site_ids:
            self._site_ids[key] = len(self._site_ids) + 1
        offset = self._site_ids[key] * WORD_SIZE
        return self.image.function_address[caller.name] + offset

    # -- frame execution -----------------------------------------------------------

    def _exec_function(self, function: ir.Function, args: List[int],
                       return_address: Optional[int] = None,
                       ret_slot: Optional[int] = None) -> int:
        """Run one function body; returns its return value.

        ``return_address``/``ret_slot`` describe the memory slot holding
        the caller's return address, written by the call sequence; the
        epilogue reads it back and *uses* it, so corruption hijacks
        control (raised as :class:`_ReturnHijack`).
        """
        if function.is_declaration:
            raise ProgramCrash(f"call to undefined function {function.name}")
        if self.process is not self._cache_process or \
                self.process.memory.prot_epoch != self._cache_epoch:
            self.invalidate_caches()
        compiled = self._vm_compiled(function) if self._vm_enabled else None
        if compiled is not None and len(args) >= compiled.nparams:
            # Compile tier: flat register-VM dispatch (repro.sim.vm).
            # Fewer args than params would leave parameters undefined
            # (the closure tier's zip semantics); such invocations run
            # on the closure path, which models that lazily.
            result = self._vm_execute(self, compiled, args)
        else:
            result = self._exec_function_closures(function, args)

        # Backward edge: consume the return-address slot.
        if ret_slot is not None and return_address is not None:
            self._charge("ret")
            stored = self.process.memory.load(ret_slot)
            if stored != return_address:
                event = HijackEvent("return", stored, function.name)
                self.hijacks.append(event)
                self._execute_hijack_target(stored)
                raise _ReturnHijack(event)
        return result

    def _exec_function_closures(self, function: ir.Function,
                                args: List[int]) -> int:
        """Closure-tier function body (frame dict + decoded blocks)."""
        frame: Dict[str, int] = {}
        for param, value in zip(function.params, args):
            frame[param.name] = value
        layout = self._frame_layouts.get(id(function))
        if layout is None:
            alloca_bytes = 0
            slots: List[Tuple[str, int]] = []
            for instruction in function.instructions():
                if isinstance(instruction, ir.Alloca):
                    slots.append((instruction.name, alloca_bytes))
                    alloca_bytes += max(instruction.allocated_type.size(),
                                        WORD_SIZE)
            layout = (alloca_bytes, slots)
            self._frame_layouts[id(function)] = layout
        alloca_bytes, slots = layout
        frame_base = self.process.push_frame(alloca_bytes) if alloca_bytes else None
        if frame_base is not None:
            for slot_name, offset in slots:
                frame[slot_name] = frame_base + offset

        try:
            return self._exec_blocks(function, frame)
        finally:
            if frame_base is not None:
                self.process.pop_frame(alloca_bytes)

    # -- compile tier --------------------------------------------------------------

    def _vm_compiled(self, function: ir.Function):
        """Lowered code for ``function``; None if it rejected to the
        closure tier.  Lazy, cached per function (until invalidation)."""
        key = id(function)
        cache = self._vm_cache
        compiled = cache.get(key, _UNCOMPILED)
        if compiled is _UNCOMPILED:
            from repro.sim.lower import lower_function
            compiled = lower_function(self, function)
            cache[key] = compiled
            if compiled is not None:
                self.compiled_functions += 1
                if self.observer is not None:
                    self.observer.vm_compile(function.name,
                                             compiled.nblocks)
        return compiled

    def invalidate_caches(self) -> None:
        """Flush decode + compile caches (stale protection epoch or a
        rebound process; frame layouts are pure IR data and survive)."""
        self._block_cache.clear()
        self._vm_cache.clear()
        self._cache_process = self.process
        self._cache_epoch = self.process.memory.prot_epoch

    def _exec_blocks(self, function: ir.Function, frame: Dict[str, int]) -> int:
        block = function.entry
        previous: Optional[ir.BasicBlock] = None
        while True:
            next_block, previous, result = self._exec_block(
                function, block, previous, frame)
            if next_block is None:
                return result
            block = next_block

    def _exec_block(self, function: ir.Function, block: ir.BasicBlock,
                    previous: Optional[ir.BasicBlock],
                    frame: Dict[str, int]):
        decoded = self._block_cache.get(id(block))
        obs = self.observer
        if decoded is None:
            decoded = self._decode_block(function, block)
            self._block_cache[id(block)] = decoded
            if obs is not None:
                obs.cpu_decode_miss(function.name, block.name)
        elif obs is not None:
            obs.cpu_decode_hits.value += 1
        if obs is not None:
            obs.cpu_blocks.value += 1
            obs.cpu_block_size.observe(len(decoded.entries))

        # A longjmp landing in this block resumes just after its setjmp
        # (see the "setjmp_resume" handling below).
        resume_after = frame.pop("__resume_after__", None)

        # Phis are evaluated simultaneously on entry (skipped when
        # resuming mid-block from a longjmp).
        if resume_after is None:
            index = 0
            if decoded.phis:
                phi_values: Dict[str, int] = {}
                for instruction in decoded.phis:
                    for value, pred in instruction.incoming:
                        if pred is previous:
                            phi_values[instruction.name] = \
                                self._eval(value, frame)
                            break
                    else:
                        phi_values[instruction.name] = 0
                frame.update(phi_values)
        else:
            index = decoded.index_after(resume_after)

        entries = decoded.entries
        count = len(entries)
        max_steps = self.options.max_steps
        on_step = self._on_step
        interval = self.ON_STEP_INTERVAL
        while index < count:
            run, nsteps, _ = entries[index]
            index += 1
            if nsteps == 1:
                self.steps += 1
                if self.steps > max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_steps} steps (hang?)")
                if on_step is not None and self.steps % interval == 0:
                    # The verifier runs concurrently on another core: it
                    # drains channels while the monitored program
                    # executes, costing the program nothing.
                    on_step()
            else:
                # Fused straight-line group: the batch contains no
                # messaging, syscalls, or control flow, so crossing the
                # verifier-poll boundary anywhere inside it is
                # observationally equivalent to polling per instruction.
                before = self.steps
                self.steps = before + nsteps
                if self.steps > max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_steps} steps (hang?)")
                if on_step is not None:
                    for _ in range(self.steps // interval
                                   - before // interval):
                        on_step()
            outcome = run(frame)
            if outcome is not None:
                kind, payload = outcome
                if kind == "br":
                    return payload, block, 0
                if kind == "ret":
                    return None, block, payload
                if kind == "setjmp_resume":
                    # longjmp landed: resume right after the setjmp,
                    # which may live in a different (dominating) block.
                    target_instr, value = payload
                    frame[target_instr.name] = value
                    if target_instr.block is block:
                        index = decoded.index_after(target_instr)
                    else:
                        frame["__resume_after__"] = target_instr
                        return target_instr.block, block, 0
        raise ProgramCrash(f"block {function.name}:{block.name} fell through")

    # -- decode cache (fast path) --------------------------------------------------

    def _operand(self, value: ir.Value) -> Callable[[Dict[str, int]], int]:
        """Pre-resolve an operand to a ``frame -> int`` accessor.

        Constants, function addresses, and global addresses are resolved
        once at decode time; SSA values become a single dict lookup.
        """
        if isinstance(value, ir.Constant):
            constant = value.value
            return lambda frame: constant
        if isinstance(value, ir.FunctionRef):
            addresses = self.image.function_address
            fname = value.function.name
            if fname in addresses:
                address = addresses[fname]
                return lambda frame: address
            return lambda frame: addresses[fname]
        if isinstance(value, ir.GlobalVariable):
            if value.address is None:
                gname = value.name

                def missing(frame: Dict[str, int]) -> int:
                    raise ProgramCrash(f"global {gname} not loaded")
                return missing
            address = value.address
            return lambda frame: address
        if isinstance(value, (ir.Argument, ir.Instruction)):
            vname = value.name

            def lookup(frame: Dict[str, int]) -> int:
                try:
                    return frame[vname]
                except KeyError:
                    raise ProgramCrash(
                        f"use of undefined value {vname}") from None
            return lookup

        def unevaluable(frame: Dict[str, int]) -> int:
            raise ProgramCrash(f"cannot evaluate {value!r}")
        return unevaluable

    def _decode_block(self, function: ir.Function,
                      block: ir.BasicBlock) -> _DecodedBlock:
        """Decode ``block`` into bound closures, fusing straight-line
        runs of side-effect-free instructions into batched entries."""
        phis: List[ir.Phi] = []
        for instruction in block.instructions:
            if isinstance(instruction, ir.Phi):
                phis.append(instruction)
            else:
                break

        cycles = self.process.cycles
        entries: List[Tuple[Callable, int, Optional[ir.Instruction]]] = []
        pending: List[Tuple[Callable, float, ir.Instruction]] = []

        def flush() -> None:
            if not pending:
                return
            if len(pending) == 1:
                core, cost, instruction = pending[0]

                def run_one(frame: Dict[str, int],
                            core=core, cost=cost) -> None:
                    cycles.user += cost
                    core(frame)
                entries.append((run_one, 1, instruction))
            else:
                cores = tuple(core for core, _, _ in pending)
                total = 0.0
                for _, cost, _ in pending:
                    total += cost

                def run_group(frame: Dict[str, int],
                              cores=cores, total=total) -> None:
                    cycles.user += total
                    for core in cores:
                        core(frame)
                entries.append((run_group, len(pending), None))
            pending.clear()

        for instruction in block.instructions:
            if isinstance(instruction, ir.Phi):
                continue
            fused = self._decode_fusable(instruction)
            if fused is not None:
                core, cost = fused
                pending.append((core, cost, instruction))
                continue
            flush()
            entries.append(
                (self._decode_single(function, instruction), 1,
                 instruction))
        flush()
        return _DecodedBlock(phis, entries)

    def _decode_fusable(self, instruction: ir.Instruction):
        """Decode one side-effect-free instruction to ``(core, cost)``.

        Returns None for instructions that interact with the outside
        world (messages, syscalls, control flow, heap) — those must run
        as their own step so verifier polling and step accounting see
        them individually.
        """
        factor = self.options.register_pressure_factor
        cls = type(instruction)
        name = instruction.name

        if cls is ir.BinOp:
            cost = OP_COSTS.get("binop", 1.0) * factor
            lhs = self._operand(instruction.lhs)
            rhs = self._operand(instruction.rhs)
            op = instruction.op
            int_fn = _BINOP_FUNCS.get(op)
            if int_fn is not None:
                def core(frame: Dict[str, int]) -> None:
                    frame[name] = int_fn(lhs(frame), rhs(frame))
                return core, cost
            if op in _FLOAT_OPS:
                float_fn = self._float_binop

                def core(frame: Dict[str, int]) -> None:
                    frame[name] = float_fn(op, lhs(frame), rhs(frame))
                return core, cost

            def core(frame: Dict[str, int]) -> None:
                raise ProgramCrash(f"unknown binop {op}")
            return core, cost

        if cls is ir.Cmp:
            cost = OP_COSTS.get("cmp", 1.0) * factor
            lhs = self._operand(instruction.lhs)
            rhs = self._operand(instruction.rhs)
            cmp_fn = _CMP_FUNCS.get(instruction.op)
            if cmp_fn is None:
                op = instruction.op

                def core(frame: Dict[str, int]) -> None:
                    raise ProgramCrash(f"unknown comparison {op}")
                return core, cost

            def core(frame: Dict[str, int]) -> None:
                frame[name] = 1 if cmp_fn(lhs(frame), rhs(frame)) else 0
            return core, cost

        if cls is ir.Load:
            cost = OP_COSTS.get("load", 1.0) * factor
            pointer = self._operand(instruction.pointer)
            load = self.process.memory.load

            def core(frame: Dict[str, int]) -> None:
                frame[name] = load(pointer(frame))
            return core, cost

        if cls is ir.Store:
            cost = OP_COSTS.get("store", 1.0) * factor
            pointer = self._operand(instruction.pointer)
            value = self._operand(instruction.value)
            store = self.process.memory.store

            def core(frame: Dict[str, int]) -> None:
                store(pointer(frame), value(frame))
            return core, cost

        if cls is ir.Gep:
            return self._decode_gep(instruction)

        if cls is ir.Cast:
            cost = OP_COSTS.get("cast", 1.0) * factor
            value = self._operand(instruction.value)

            def core(frame: Dict[str, int]) -> None:
                frame[name] = value(frame)
            return core, cost

        if cls is ir.Select:
            cost = OP_COSTS.get("select", 1.0) * factor
            cond = self._operand(instruction.cond)
            if_true = self._operand(instruction.if_true)
            if_false = self._operand(instruction.if_false)

            def core(frame: Dict[str, int]) -> None:
                frame[name] = if_true(frame) if cond(frame) else \
                    if_false(frame)
            return core, cost

        if cls is ir.Alloca:
            cost = OP_COSTS.get("alloca", 1.0) * factor

            def core(frame: Dict[str, int]) -> None:
                return None  # address assigned at frame setup
            return core, cost

        return None

    def _decode_gep(self, instruction: ir.Gep):
        factor = self.options.register_pressure_factor
        cost = OP_COSTS.get("gep", 1.0) * factor
        name = instruction.name
        base = self._operand(instruction.pointer)
        base_type = instruction.pointer.type
        pointee = base_type.pointee if isinstance(base_type, PointerType) \
            else None
        if instruction.field is not None:
            if pointee is None or not hasattr(pointee, "field_offset"):
                def core(frame: Dict[str, int]) -> None:
                    raise ProgramCrash("field gep on non-struct pointer")
                return core, cost
            try:
                offset = pointee.field_offset(instruction.field)
            except Exception:
                # Malformed field: the lookup's own exception surfaces
                # at execution time.
                field = instruction.field

                def core(frame: Dict[str, int]) -> None:
                    frame[name] = base(frame) + pointee.field_offset(field)
                return core, cost

            def core(frame: Dict[str, int]) -> None:
                frame[name] = base(frame) + offset
            return core, cost
        index = self._operand(instruction.index)
        element = getattr(pointee, "element", None)
        element_size = element.size() if element is not None else WORD_SIZE

        def core(frame: Dict[str, int]) -> None:
            frame[name] = base(frame) + index(frame) * element_size
        return core, cost

    def _decode_single(self, function: ir.Function,
                       instruction: ir.Instruction) -> Callable:
        """Decode one stepped instruction to a ``frame -> outcome`` run
        closure (control flow, calls, messaging, memory management)."""
        factor = self.options.register_pressure_factor
        cycles = self.process.cycles
        cls = type(instruction)
        name = instruction.name

        if cls is ir.Br:
            cost = OP_COSTS.get("br", 1.0) * factor
            outcome = ("br", instruction.target)

            def run(frame: Dict[str, int]):
                cycles.user += cost
                return outcome
            return run

        if cls is ir.CondBr:
            cost = OP_COSTS.get("br", 1.0) * factor
            cond = self._operand(instruction.cond)
            on_true = ("br", instruction.if_true)
            on_false = ("br", instruction.if_false)

            def run(frame: Dict[str, int]):
                cycles.user += cost
                return on_true if cond(frame) else on_false
            return run

        if cls is ir.Ret:
            if instruction.value is None:
                return lambda frame: ("ret", 0)
            value = self._operand(instruction.value)
            return lambda frame: ("ret", value(frame))

        if cls is ir.Call:
            callee = instruction.callee
            accessors = [self._operand(a) for a in instruction.args]

            def run(frame: Dict[str, int]):
                return self._do_call(
                    function, instruction, frame, callee,
                    [accessor(frame) for accessor in accessors])
            return run

        if cls is ir.ICall:
            cost = OP_COSTS.get("icall", 1.0) * factor
            target_acc = self._operand(instruction.target)
            accessors = [self._operand(a) for a in instruction.args]
            function_at = self.image.function_at
            intended = instruction.meta.get("intended_targets")

            def run(frame: Dict[str, int]):
                cycles.user += cost
                target = target_acc(frame)
                callee = function_at.get(target)
                if callee is None:
                    if self.image.function_of_address(target) is not None:
                        # Mid-function target: a code-reuse gadget; coarse
                        # model executes nothing and crashes.
                        raise ProgramCrash(
                            f"indirect call into function body at "
                            f"{target:#x}")
                    raise ProgramCrash(
                        f"indirect call to non-code {target:#x}")
                if intended is not None and callee.name not in intended:
                    self.hijacks.append(
                        HijackEvent("icall", target, function.name))
                return self._do_call(
                    function, instruction, frame, callee,
                    [accessor(frame) for accessor in accessors])
            return run

        if cls is ir.RuntimeCall:
            accessors = [self._operand(a) for a in instruction.args]
            runtime_name = instruction.runtime_name
            if runtime_name == "builtin_ret_slot":
                call_stack = self.call_stack

                def run(frame: Dict[str, int]):
                    [accessor(frame) for accessor in accessors]
                    # __builtin_return_address-style disclosure: the
                    # address of the current frame's return-address slot
                    # (wherever it lives).  RIPE uses this to emulate
                    # disclosure attacks (section 5.2).
                    frame[name] = call_stack[-1][0] if call_stack else 0
                    return None
                return run
            runtime_call = self.runtime.call

            def run(frame: Dict[str, int]):
                frame[name] = runtime_call(
                    runtime_name,
                    [accessor(frame) for accessor in accessors])
                return None
            return run

        if cls is ir.Malloc:
            cost = OP_COSTS.get("malloc", 1.0) * factor
            size = self._operand(instruction.size)
            heap = self.process.heap

            def run(frame: Dict[str, int]):
                cycles.user += cost
                frame[name] = heap.malloc(size(frame))
                return None
            return run

        if cls is ir.Free:
            cost = OP_COSTS.get("free", 1.0) * factor
            pointer = self._operand(instruction.pointer)
            heap = self.process.heap

            def run(frame: Dict[str, int]):
                cycles.user += cost
                heap.free(pointer(frame))
                return None
            return run

        if cls is ir.Realloc:
            cost = OP_COSTS.get("realloc", 1.0) * factor
            pointer = self._operand(instruction.pointer)
            size = self._operand(instruction.size)
            heap = self.process.heap
            memory = self.process.memory

            def run(frame: Dict[str, int]):
                cycles.user += cost
                old = pointer(frame)
                new_size = size(frame)
                allocation = heap.live.get(old)
                old_size = allocation.size if allocation else 0
                new = heap.realloc(old, new_size)
                if new != old:
                    memory.copy_block(old, new, old_size // WORD_SIZE)
                    heap.free(old)
                frame[name] = new
                return None
            return run

        if cls is ir.MemCopy:
            word_cost = OP_COSTS["memcpy_word"]
            dst = self._operand(instruction.dst)
            src = self._operand(instruction.src)
            size = self._operand(instruction.size)
            copy_block = self.process.memory.copy_block

            def run(frame: Dict[str, int]):
                dst_addr = dst(frame)
                src_addr = src(frame)
                words = max(size(frame) // WORD_SIZE, 0)
                cycles.charge_user(word_cost * words)
                copy_block(src_addr, dst_addr, words)
                return None
            return run

        if cls is ir.MemSet:
            word_cost = OP_COSTS["memcpy_word"]
            dst = self._operand(instruction.dst)
            value = self._operand(instruction.value)
            size = self._operand(instruction.size)
            store = self.process.memory.store

            def run(frame: Dict[str, int]):
                dst_addr = dst(frame)
                fill = value(frame)
                words = max(size(frame) // WORD_SIZE, 0)
                cycles.charge_user(word_cost * words)
                for i in range(words):
                    store(dst_addr + i * WORD_SIZE, fill)
                return None
            return run

        if cls is ir.Syscall:
            syscall_cost = OP_COSTS["syscall_base"]
            accessors = [self._operand(a) for a in instruction.args]
            number = instruction.number
            process = self.process
            output = self.output
            is_write = number == SYS_WRITE

            def run(frame: Dict[str, int]):
                args = [accessor(frame) for accessor in accessors]
                cycles.charge_syscall(syscall_cost)
                frame[name] = self.syscall_dispatcher(process, number, args)
                if is_write and len(args) >= 2:
                    output.append(args[1])
                return None
            return run

        if cls is ir.Setjmp:
            cost = OP_COSTS.get("setjmp", 1.0) * factor
            buf = self._operand(instruction.buf)
            store = self.process.memory.store

            def run(frame: Dict[str, int]):
                cycles.user += cost
                buf_addr = buf(frame)
                token = self._site_address(function, instruction)
                store(buf_addr, token)
                self._setjmp_points[token] = (instruction, None)
                frame[name] = 0
                # Returning 0 now; a longjmp resumes here with its value.
                return None
            return run

        if cls is ir.Longjmp:
            cost = OP_COSTS.get("longjmp", 1.0) * factor
            buf = self._operand(instruction.buf)
            value_acc = self._operand(instruction.value)
            load = self.process.memory.load

            def run(frame: Dict[str, int]):
                cycles.user += cost
                buf_addr = buf(frame)
                token = load(buf_addr)
                value = value_acc(frame)
                if token not in self._setjmp_points:
                    # Corrupted jmp_buf: control transfers to the
                    # attacker's address if it is a function entry;
                    # otherwise crash.
                    event = HijackEvent("longjmp", token, function.name)
                    self.hijacks.append(event)
                    self._execute_hijack_target(token)
                    raise _ReturnHijack(event)
                raise _LongjmpUnwind(token, value if value else 1)
            return run

        # Unknown instruction class (or a subclass of a known one):
        # fail closed when it runs.
        opname = instruction.opname

        def run(frame: Dict[str, int]):
            raise ProgramCrash(f"unknown instruction {opname}")
        return run

    # -- calls --------------------------------------------------------------------------

    def _do_call(self, caller: ir.Function, call: ir.Instruction,
                 frame: Dict[str, int], callee: ir.Function,
                 args: List[int]):
        self._charge("call")
        if self.options.safe_stack:
            self.process.cycles.charge_user(
                self.options.safe_stack_call_cycles, category="safestack")
        return_address = self._site_address(caller, call)
        # Push the return address: to the safe stack when that mitigation
        # is active, otherwise to the regular stack where stack-buffer
        # overflows can reach it.
        if self.options.safe_stack and self.safe_sp is not None:
            self.safe_sp -= WORD_SIZE
            ret_slot = self.safe_sp
        else:
            ret_slot = self.process.push_frame(WORD_SIZE)
        try:
            self.process.memory.store(ret_slot, return_address)
        except SegmentationFault:
            # Guarded safe stack exhausted into a guard page.
            raise ProgramCrash("return-address push faulted (guard page)")
        self.call_stack.append((ret_slot, return_address))
        try:
            result = self._exec_function(callee, args,
                                         return_address=return_address,
                                         ret_slot=ret_slot)
        except _LongjmpUnwind as unwind:
            if unwind.token in self._setjmp_points:
                setjmp_instr, _ = self._setjmp_points[unwind.token]
                if setjmp_instr.block is not None and \
                        setjmp_instr.block.function is caller:
                    # Land back at our setjmp.
                    self._release_ret_slot(ret_slot)
                    return ("setjmp_resume", (setjmp_instr, unwind.value))
            self._release_ret_slot(ret_slot)
            raise
        finally:
            self.call_stack.pop()
        self._release_ret_slot(ret_slot)
        if isinstance(call, (ir.Call, ir.ICall)):
            frame[call.name] = result
        return None

    def _release_ret_slot(self, ret_slot: int) -> None:
        if self.options.safe_stack and self.safe_sp is not None \
                and ret_slot == self.safe_sp:
            self.safe_sp += WORD_SIZE
        elif ret_slot == self.process.stack_pointer:
            self.process.pop_frame(WORD_SIZE)

    def _execute_hijack_target(self, address: int) -> None:
        """Run the attacker's chosen target, as real hardware would."""
        callee = self.image.function_at.get(address)
        if callee is None or callee.is_declaration:
            raise ProgramCrash(f"control transferred to non-code {address:#x}")
        self._exec_function(callee, [0] * len(callee.params))

    # -- evaluation --------------------------------------------------------------------

    def _eval(self, value: ir.Value, frame: Dict[str, int]) -> int:
        if isinstance(value, ir.Constant):
            return value.value
        if isinstance(value, ir.FunctionRef):
            return self.image.function_address[value.function.name]
        if isinstance(value, ir.GlobalVariable):
            if value.address is None:
                raise ProgramCrash(f"global {value.name} not loaded")
            return value.address
        if isinstance(value, (ir.Argument, ir.Instruction)):
            if value.name not in frame:
                raise ProgramCrash(f"use of undefined value {value.name}")
            return frame[value.name]
        raise ProgramCrash(f"cannot evaluate {value!r}")

    def _float_binop(self, op: str, lhs: int, rhs: int) -> int:
        """Fixed-point float model (values scaled by 2^16).

        Under :attr:`ExecOptions.fp_precision_loss` (CCFI's x87 register
        pressure), low-order bits are truncated, perturbing results the
        way the paper observed "reduced numerical precision and
        incorrect benchmark output" (section 5.1).
        """
        scale = 1 << 16
        a, b = lhs, rhs
        if op == "fadd":
            result = a + b
        elif op == "fsub":
            result = a - b
        elif op == "fmul":
            result = (a * b) // scale
        else:
            if b == 0:
                raise ProgramCrash("float division by zero")
            result = (a * scale) // b
        if self.options.fp_precision_loss:
            result &= ~0xFF  # drop low-order precision
        return result
