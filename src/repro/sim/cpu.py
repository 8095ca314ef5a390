"""IR interpreter: the simulated CPU.

Executes :mod:`repro.compiler.ir` programs against a
:class:`~repro.sim.process.Process`, charging cycle costs per operation
(:data:`repro.sim.cycles.OP_COSTS`).  Each function is lowered on first
call to the flat register VM (:mod:`repro.sim.lower`,
:mod:`repro.sim.vm`); this module keeps the escape handlers the VM
bridges to, the call sequence, and — crucially for the security
experiments — the machine-level mechanics that memory-safety attacks
abuse:

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


@dataclass
class ExecOptions:
    """Knobs the design configuration and framework set on the
    execution.

    None selects an interpreter: every function runs on the register
    VM (:mod:`repro.sim.vm`).
    """

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
        #: the VM's dispatch loop free of block-entry bookkeeping.
        self.observer = observer
        self.steps = 0
        self.hijacks: List[HijackEvent] = []
        #: (ret_slot, return_address) per active call; instrumentation
        #: runtimes read the top entry to locate the current frame's
        #: return-address slot (retptr/CCFI/shadow-stack designs).
        self.call_stack: List[Tuple[int, int]] = []
        self.output: List[int] = []
        self._site_ids: Dict[int, int] = {}
        #: setjmp token -> (register file, result register, resume pc)
        #: of the activation that last ran that setjmp.
        self._setjmp_points: Dict[int, Tuple[list, int, int]] = {}
        self._rng = random.Random(self.options.seed)
        #: Lazily lowered functions, keyed by function id (plus the
        #: argument count for a short call's variant).  Lowered code
        #: bakes in process state (bound memory/cycle methods, resolved
        #: addresses), so the cache is validated against
        #: ``(process, prot_epoch)`` on every function entry and flushed
        #: when either diverges (mprotect mid-run, fork-child rebind).
        self._vm_cache: Dict[object, object] = {}
        self._cache_process = self.process
        self._cache_epoch = self.process.memory.prot_epoch
        from repro.sim.vm import execute as vm_execute
        self._vm_execute = vm_execute
        #: VM telemetry (plain counters; the observer mirrors them as
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
        except _ReturnHijack:
            # A hijacked return unwound past the entry point after the
            # attacker payload ran; treat like program termination.
            self.process.exited = True
            return -1
        except _LongjmpUnwind as unwind:
            # No live activation ran the setjmp last (it has returned):
            # fail closed.
            raise ProgramCrash(f"longjmp to {unwind.token:#x}: its setjmp's "
                               f"activation has returned") from None

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
        compiled = self._vm_cache.get(id(function))
        if compiled is None or len(args) < compiled.nparams:
            compiled = self._vm_compiled(function, len(args))
        result = self._vm_execute(self, compiled, args)

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

    def _vm_compiled(self, function: ir.Function, nargs: int):
        """Lowered code for ``function`` called with ``nargs`` arguments.
        Lazy, cached per function (until invalidation); a call passing
        fewer arguments than parameters gets a variant of its own."""
        from repro.sim import lower

        partial = nargs < len(function.params)
        key = (id(function), nargs) if partial else id(function)
        compiled = self._vm_cache.get(key)
        if compiled is None:
            compiled = lower.lower_function(self, function,
                                            nargs if partial else None)
            self._vm_cache[key] = compiled
            self.compiled_functions += 1
            if self.observer is not None:
                self.observer.vm_compile(function.name, compiled.nblocks)
        return compiled

    def invalidate_caches(self) -> None:
        """Flush the compile cache (stale protection epoch or a rebound
        process)."""
        self._vm_cache.clear()
        self._cache_process = self.process
        self._cache_epoch = self.process.memory.prot_epoch

    # -- escape handlers -------------------------------------------------------------

    def _operand(self, value: ir.Value) -> Callable[[Dict[str, int]], int]:
        """Pre-resolve an escape handler's operand to a ``frame -> int``
        accessor.

        Constants, function addresses, and global addresses are resolved
        once at decode time; SSA values become a single lookup in the
        frame dict the VM builds for the bridge.
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

    def _decode_single(self, function: ir.Function,
                       instruction: ir.Instruction) -> Callable:
        """Decode one instruction the VM escapes to (calls, messaging,
        syscalls, heap management, longjmp, unknown instructions) into a
        ``frame -> None`` handler that reads and writes ``frame``."""
        factor = self.options.register_pressure_factor
        cycles = self.process.cycles
        cls = type(instruction)
        name = instruction.name

        if cls is ir.Call:
            callee = instruction.callee
            accessors = [self._operand(a) for a in instruction.args]

            def run(frame: Dict[str, int]) -> None:
                self._do_call(function, instruction, frame, callee,
                              [accessor(frame) for accessor in accessors])
            return run

        if cls is ir.ICall:
            cost = OP_COSTS.get("icall", 1.0) * factor
            target_acc = self._operand(instruction.target)
            accessors = [self._operand(a) for a in instruction.args]
            function_at = self.image.function_at
            intended = instruction.meta.get("intended_targets")

            def run(frame: Dict[str, int]) -> None:
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
                self._do_call(function, instruction, frame, callee,
                              [accessor(frame) for accessor in accessors])
            return run

        if cls is ir.RuntimeCall:
            accessors = [self._operand(a) for a in instruction.args]
            runtime_name = instruction.runtime_name
            if runtime_name == "builtin_ret_slot":
                call_stack = self.call_stack

                def run(frame: Dict[str, int]) -> None:
                    [accessor(frame) for accessor in accessors]
                    # __builtin_return_address-style disclosure: the
                    # address of the current frame's return-address slot
                    # (wherever it lives).  RIPE uses this to emulate
                    # disclosure attacks (section 5.2).
                    frame[name] = call_stack[-1][0] if call_stack else 0
                return run
            runtime_call = self.runtime.call

            def run(frame: Dict[str, int]) -> None:
                frame[name] = runtime_call(
                    runtime_name,
                    [accessor(frame) for accessor in accessors])
            return run

        if cls is ir.Malloc:
            cost = OP_COSTS.get("malloc", 1.0) * factor
            size = self._operand(instruction.size)
            heap = self.process.heap

            def run(frame: Dict[str, int]) -> None:
                cycles.user += cost
                frame[name] = heap.malloc(size(frame))
            return run

        if cls is ir.Free:
            cost = OP_COSTS.get("free", 1.0) * factor
            pointer = self._operand(instruction.pointer)
            heap = self.process.heap

            def run(frame: Dict[str, int]) -> None:
                cycles.user += cost
                heap.free(pointer(frame))
            return run

        if cls is ir.Realloc:
            cost = OP_COSTS.get("realloc", 1.0) * factor
            pointer = self._operand(instruction.pointer)
            size = self._operand(instruction.size)
            heap = self.process.heap
            memory = self.process.memory

            def run(frame: Dict[str, int]) -> None:
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
            return run

        if cls is ir.MemCopy:
            word_cost = OP_COSTS["memcpy_word"]
            dst = self._operand(instruction.dst)
            src = self._operand(instruction.src)
            size = self._operand(instruction.size)
            copy_block = self.process.memory.copy_block

            def run(frame: Dict[str, int]) -> None:
                dst_addr = dst(frame)
                src_addr = src(frame)
                words = max(size(frame) // WORD_SIZE, 0)
                cycles.charge_user(word_cost * words)
                copy_block(src_addr, dst_addr, words)
            return run

        if cls is ir.MemSet:
            word_cost = OP_COSTS["memcpy_word"]
            dst = self._operand(instruction.dst)
            value = self._operand(instruction.value)
            size = self._operand(instruction.size)
            store = self.process.memory.store

            def run(frame: Dict[str, int]) -> None:
                dst_addr = dst(frame)
                fill = value(frame)
                words = max(size(frame) // WORD_SIZE, 0)
                cycles.charge_user(word_cost * words)
                for i in range(words):
                    store(dst_addr + i * WORD_SIZE, fill)
            return run

        if cls is ir.Syscall:
            syscall_cost = OP_COSTS["syscall_base"]
            accessors = [self._operand(a) for a in instruction.args]
            number = instruction.number
            process = self.process
            output = self.output
            is_write = number == SYS_WRITE

            def run(frame: Dict[str, int]) -> None:
                args = [accessor(frame) for accessor in accessors]
                cycles.charge_syscall(syscall_cost)
                frame[name] = self.syscall_dispatcher(process, number, args)
                if is_write and len(args) >= 2:
                    output.append(args[1])
            return run

        if cls is ir.Longjmp:
            cost = OP_COSTS.get("longjmp", 1.0) * factor
            buf = self._operand(instruction.buf)
            value_acc = self._operand(instruction.value)
            load = self.process.memory.load

            def run(frame: Dict[str, int]) -> None:
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

        def run(frame: Dict[str, int]) -> None:
            raise ProgramCrash(f"unknown instruction {opname}")
        return run

    # -- calls --------------------------------------------------------------------------

    def _do_call(self, caller: ir.Function, call: ir.Instruction,
                 frame: Dict[str, int], callee: ir.Function,
                 args: List[int]) -> None:
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
        except _LongjmpUnwind:
            # Unwinding to the activation that ran the setjmp.
            self._release_ret_slot(ret_slot)
            raise
        finally:
            self.call_stack.pop()
        self._release_ret_slot(ret_slot)
        frame[call.name] = result

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
