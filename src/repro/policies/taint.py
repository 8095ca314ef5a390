"""Taint-tracking policy (one of the section 4.3 examples).

The verifier maintains the taint state of memory: addresses written
with attacker-derived data are *tainted*; taint propagates through
copies; using a tainted value at a *sink* (an indirect-call target, a
system-call argument) is a violation.  Message semantics:

* ``EVENT(TAINT_SOURCE, address)`` — data from an untrusted source was
  written at ``address``.
* ``EVENT(TAINT_PROPAGATE, ...)`` — not needed as a distinct opcode:
  propagation reuses ``Pointer-Block-Copy`` semantics (a copy carries
  taint with it), showing how policies can share message vocabulary.
* ``EVENT(TAINT_SINK, address)`` — the value at ``address`` is about to
  reach a security-sensitive sink; tainted ⇒ violation.
* ``EVENT(TAINT_CLEAR, address)`` — the program sanitized the value.

:class:`TaintPass` provides a minimal instrumentation: syscall *read*
results are sources, indirect-call targets are sinks.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.compiler import ir
from repro.compiler.passes.base import ModulePass
from repro.core.messages import Op
from repro.core.policy import Policy, Violation

#: Event kinds carried in ``EVENT`` messages.
TAINT_SOURCE = 10
TAINT_SINK = 11
TAINT_CLEAR = 12

#: Syscall numbers treated as untrusted input sources.
SOURCE_SYSCALLS = (0,)  # read


class TaintPolicy(Policy):
    """Track tainted addresses; reject tainted values at sinks."""

    name = "taint"

    def __init__(self) -> None:
        self.tainted: Set[int] = set()
        self.sink_checks = 0

    def _block_copy(self, arg0: int, arg1: int, aux: int) -> None:
        # Copies propagate taint (shared message vocabulary).
        tainted = self.tainted
        carried = [a for a in tainted if arg0 <= a < arg0 + aux]
        for address in carried:
            tainted.add(arg1 + (address - arg0))

    def _event(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        if arg0 == TAINT_SOURCE:
            self.tainted.add(arg1)
        elif arg0 == TAINT_CLEAR:
            self.tainted.discard(arg1)
        elif arg0 == TAINT_SINK:
            self.sink_checks += 1
            if arg1 in self.tainted:
                return Violation(0, "taint",
                                 f"tainted value at {arg1:#x} reached "
                                 f"a security-sensitive sink")
        return None

    HANDLERS = {
        int(Op.POINTER_BLOCK_COPY): _block_copy,
        int(Op.EVENT): _event,
    }

    def clone(self) -> "TaintPolicy":
        child = TaintPolicy()
        child.tainted = set(self.tainted)
        return child

    def entry_count(self) -> int:
        return len(self.tainted)

    def entries_ref(self):
        return self.tainted


class TaintPass(ModulePass):
    """Minimal taint instrumentation.

    * After each ``read``-class syscall whose buffer argument is
      statically visible: mark the buffer address as a source.
    * Before each indirect call whose target was loaded from memory:
      mark the load address as a sink check.
    """

    name = "taint"

    def run(self, module: ir.Module) -> None:
        for function in module.functions.values():
            if function.is_declaration:
                continue
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.Syscall) and \
                            instruction.number in SOURCE_SYSCALLS and \
                            len(instruction.args) >= 2:
                        block.insert_after(instruction, ir.RuntimeCall(
                            "hq_event",
                            [ir.Constant(TAINT_SOURCE),
                             instruction.args[1]]))
                        self.bump("sources")
                    elif isinstance(instruction, ir.ICall) and \
                            isinstance(instruction.target, ir.Load):
                        block.insert_before(instruction, ir.RuntimeCall(
                            "hq_event",
                            [ir.Constant(TAINT_SINK),
                             instruction.target.pointer]))
                        self.bump("sinks")
