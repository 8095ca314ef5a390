"""Software-watchdog policy (one of the section 4.3 examples).

The monitored program emits periodic heartbeat events; the verifier
tracks progress and, via the kernel module's epoch mechanism, a program
that stops making progress (hang, livelock, or a compromise that
silences instrumentation) is detected.  Here the watchdog also checks
*monotonicity*: heartbeat sequence numbers must strictly increase, so a
compromised program cannot replay old heartbeats.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler import ir
from repro.compiler.passes.base import ModulePass
from repro.core.messages import Op
from repro.core.policy import Policy, Violation

#: Event kind carried in ``EVENT`` messages.
EVENT_HEARTBEAT = 2


class WatchdogPass(ModulePass):
    """Insert a heartbeat at the head of every loop.

    A block is a loop header if it is the target of a branch from a
    block it dominates (a back edge); heartbeats carry the static
    header id, and the runtime supplies the sequence number.
    """

    name = "watchdog"

    def run(self, module: ir.Module) -> None:
        from repro.compiler.cfg import DominatorTree
        for function in module.functions.values():
            if function.is_declaration:
                continue
            dom = DominatorTree(function)
            headers = set()
            for block in function.blocks:
                for successor in block.successors:
                    if dom.dominates(successor, block):
                        headers.add(successor)
            for header_id, header in enumerate(headers):
                index = 0
                while index < len(header.instructions) and \
                        isinstance(header.instructions[index], ir.Phi):
                    index += 1
                header.insert(index, ir.RuntimeCall(
                    "hq_heartbeat", [ir.Constant(header_id)]))
                self.bump("heartbeats")


class WatchdogPolicy(Policy):
    """Verify heartbeat liveness and monotonicity."""

    name = "watchdog"

    def __init__(self) -> None:
        self.last_sequence = 0
        self.beats = 0

    def _event(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        if arg0 != EVENT_HEARTBEAT:
            return None
        self.beats += 1
        if arg1 <= self.last_sequence:
            return Violation(0, "watchdog",
                             f"non-monotonic heartbeat {arg1} after "
                             f"{self.last_sequence} (replay?)")
        self.last_sequence = arg1
        return None

    HANDLERS = {int(Op.EVENT): _event}

    def clone(self) -> "WatchdogPolicy":
        child = WatchdogPolicy()
        child.last_sequence = self.last_sequence
        return child

    def entry_count(self) -> int:
        return 1
