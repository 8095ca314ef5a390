"""Message-trace recording and comparison.

A :class:`RecordingChannel` wraps any IPC channel and keeps a copy of
every message that passes through it — the verifier sees the stream
unchanged.  Traces support:

* **debugging** — inspect exactly what a run told the verifier;
* **replay** — feed a recorded trace into a fresh policy context and
  get the same verdicts (policies are deterministic functions of the
  stream, which :func:`replay` checks);
* **redundant fault detection** (section 4.3) — run a program twice and
  compare the two traces; any divergence means one execution was
  corrupted (see :mod:`repro.policies.redundancy`).

Comparison ignores transport-assigned fields (pid, counter): two
executions of the same program are equivalent iff they emit the same
*semantic* message sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.messages import Message, Op
from repro.core.policy import Policy, Violation
from repro.ipc.base import Channel
from repro.sim.process import Process

#: The semantic content of a message (transport fields stripped).
Semantic = Tuple[int, int, int, int]


def semantic(message: Message) -> Semantic:
    """Strip transport-assigned fields."""
    return (int(message.op), message.arg0, message.arg1, message.aux)


class RecordingChannel(Channel):
    """Transparent channel wrapper that records every message.

    Recording happens at word granularity: each send appends its flat
    ``(op, arg0, arg1, aux)`` payload, and :attr:`trace` materializes
    ``Message`` objects lazily — the recording tax on the hot send path
    is one tuple, not a dataclass.  The receive side delegates objects
    only: a verifier drains the inner channel, not this wrapper.
    """

    def __init__(self, inner: Channel) -> None:
        super().__init__(inner.capacity)
        self.inner = inner
        self.primitive = inner.primitive
        self.append_only = inner.append_only
        self.async_validation = inner.async_validation
        self.primary_cost = inner.primary_cost
        self._raw_trace: List[Tuple[int, int, int, int]] = []

    @property
    def trace(self) -> List[Message]:
        """The recorded messages (unstamped), materialized on demand."""
        from repro.core.messages import OP_BY_VALUE
        return [Message(OP_BY_VALUE[op], arg0, arg1, aux)
                for op, arg0, arg1, aux in self._raw_trace]

    def send(self, sender: Process, message: Message) -> None:
        self._raw_trace.append((int(message.op), message.arg0,
                                message.arg1, message.aux))
        self.inner.send(sender, message)

    def send_raw(self, sender: Process, op: int, arg0: int = 0,
                 arg1: int = 0, aux: int = 0) -> None:
        self._raw_trace.append((op, arg0, arg1, aux))
        self.inner.send_raw(sender, op, arg0, arg1, aux)

    def _receive_raw(self) -> List[Message]:
        return self.inner._receive_raw()

    def _validate(self, messages: List[Message]) -> List[Message]:
        return self.inner._validate(messages)

    def resync(self) -> List[Message]:
        return self.inner.resync()

    def pending(self) -> int:
        return self.inner.pending()


@dataclass
class TraceDivergence:
    """First point where two traces disagree."""

    index: int
    left: Optional[Semantic]
    right: Optional[Semantic]

    def __str__(self) -> str:
        def fmt(item):
            if item is None:
                return "<stream ended>"
            op, arg0, arg1, aux = item
            return f"{Op(op).name}({arg0:#x}, {arg1:#x}, {aux})"
        return (f"traces diverge at message {self.index}: "
                f"{fmt(self.left)} vs {fmt(self.right)}")


def compare_traces(left: List[Message],
                   right: List[Message]) -> Optional[TraceDivergence]:
    """First divergence between two traces (None if equivalent)."""
    for index in range(max(len(left), len(right))):
        a = semantic(left[index]) if index < len(left) else None
        b = semantic(right[index]) if index < len(right) else None
        if a != b:
            return TraceDivergence(index, a, b)
    return None


def replay(trace: List[Message], policy: Policy,
           pid: int = 0) -> List[Violation]:
    """Feed a recorded trace into a fresh policy; return its verdicts.

    SYSCALL messages are transport-level (consumed by the verifier, not
    the policy) and are skipped, matching the live dispatch path.
    """
    violations: List[Violation] = []
    for message in trace:
        if message.op is Op.SYSCALL:
            continue
        stamped = message.with_transport(pid, 0)
        violation = policy.handle(stamped)
        if violation is not None:
            violations.append(violation)
    return violations
