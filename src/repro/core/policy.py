"""Policy interface for the verifier.

A policy is the verifier-side interpretation of message semantics
(section 4): it maintains per-process context, checks each message, and
reports violations.  Policies must support copy-on-fork (the verifier
copies policy contexts when a monitored process clones, section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sized

from repro.core.messages import Message


@dataclass
class Violation:
    """One failed policy check."""

    pid: int
    kind: str
    detail: str = ""
    message: Optional[Message] = None

    def __str__(self) -> str:
        return f"[pid {self.pid}] {self.kind}: {self.detail}"


#: One entry in a policy's per-op dispatch table: a plain function
#: called as ``handler(policy, arg0, arg1, aux)`` with the policy context
#: and the message payload, returning a violation or None.
Handler = Callable[["Policy", int, int, int], Optional[Violation]]


class Policy:
    """Base class for verifier-side execution policies.

    A policy's semantics live once, in the class-level :attr:`HANDLERS`
    table, which the verifier's word dispatcher and :meth:`handle` both
    read.  Subclasses fill the table and do not override :meth:`handle`.
    """

    name = "null"

    #: ``int(op)`` -> :data:`Handler`.  The table must cover **every** op
    #: the policy reacts to: an absent op is a no-op for the policy
    #: (though the verifier still counts it in :class:`PolicyStats`).
    #: Handlers return violations with ``pid`` 0 and no ``message``; the
    #: caller stamps the sender pid and attaches the message.  The table
    #: belongs to the class, never to an instance: per-instance closures
    #: over ``self`` cached on ``self`` make every context a reference
    #: cycle that outlives its pid until a cyclic GC pass.
    HANDLERS: Dict[int, Handler] = {}

    def handle(self, message: Message) -> Optional[Violation]:
        """Process one message; return a violation if the check failed.

        The per-message form of the verifier's dispatch, for trace
        replay and tests: one :attr:`HANDLERS` lookup and call.
        """
        handler = self.HANDLERS.get(message.op)
        if handler is None:
            return None
        violation = handler(self, message.arg0, message.arg1, message.aux)
        if violation is not None:
            violation.pid = message.pid
            violation.message = message
        return violation

    def clone(self) -> "Policy":
        """Deep-copy the policy context for a forked child (section 3.4)."""
        raise NotImplementedError

    def entry_count(self) -> int:
        """Number of metadata entries held (the section 5.4 metric)."""
        return 0

    def entries_ref(self) -> Optional[Sized]:
        """The container whose ``len`` *is* :meth:`entry_count`, or None.

        The batch dispatcher samples the entry count once per message
        for the section 5.4 high-water mark; returning the live
        container lets it take a C-level ``len`` instead of a Python
        call.  Policies whose count is not the length of one container
        (or that rebind the container) return None and pay the
        :meth:`entry_count` call.
        """
        return None


@dataclass
class PolicyStats:
    """Aggregate message statistics the evaluation reports (section 5.4)."""

    messages_processed: int = 0
    violations: int = 0
    max_entries: int = 0
    by_op: dict = field(default_factory=dict)
