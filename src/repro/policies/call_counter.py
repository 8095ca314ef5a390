"""The paper's introductory toy policy: a reliable function-call counter.

Section 2 motivates HerQules with a program that wants to count its own
function calls.  An in-process counter can be corrupted by the very
bugs it is trying to observe; instead, the compiler sends a counter
event before every call, and the verifier — isolated in another
process — maintains the count.  Even if the program is compromised
immediately after sending an event, "it cannot retract previously-sent
messages".

:class:`CallCounterPass` performs the instrumentation and
:class:`CallCounterPolicy` the verifier-side accumulation; an upper
bound turns the counter into an enforcement policy (e.g. a syscall-free
sandbox budget).
"""

from __future__ import annotations

from typing import Optional

from repro.compiler import ir
from repro.compiler.passes.base import ModulePass
from repro.core.messages import Op
from repro.core.policy import Policy, Violation

#: Event kinds carried in ``EVENT`` messages.
EVENT_CALL = 1


class CallCounterPass(ModulePass):
    """Insert a counter-increment event before every call instruction."""

    name = "call-counter"

    def run(self, module: ir.Module) -> None:
        for function in module.functions.values():
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, (ir.Call, ir.ICall)):
                        block.insert_before(instruction, ir.RuntimeCall(
                            "hq_event",
                            [ir.Constant(EVENT_CALL), ir.Constant(1)]))
                        self.bump("events")


class CallCounterPolicy(Policy):
    """Accumulate call events; optionally enforce an upper bound."""

    name = "call-counter"

    def __init__(self, limit: Optional[int] = None) -> None:
        self.count = 0
        self.limit = limit

    def _event(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        if arg0 != EVENT_CALL:
            return None
        self.count += arg1
        if self.limit is not None and self.count > self.limit:
            return Violation(0, "call-counter",
                             f"call count {self.count} exceeds limit "
                             f"{self.limit}")
        return None

    HANDLERS = {int(Op.EVENT): _event}

    def clone(self) -> "CallCounterPolicy":
        child = CallCounterPolicy(self.limit)
        child.count = self.count
        return child

    def entry_count(self) -> int:
        return 1
