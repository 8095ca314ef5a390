"""Abstract IPC channel interface.

Every primitive from paper Table 2 implements this interface so the
framework, micro-benchmarks, and security tests can swap transports.
A channel moves HerQules messages from a *monitored program* to the
*verifier*, stamping each with the sender's pid (authenticity) and a
transport counter (drop/integrity detection), and charging the sender
the primitive's per-send cycle cost.

Two orthogonal properties distinguish the primitives (Table 2):

* ``append_only`` — once sent, a message cannot be modified or erased
  by the (possibly compromised) sender.  Channels lacking this property
  expose :meth:`corrupt` / :meth:`erase` so the attack suite can
  demonstrate the weakness.
* ``async_validation`` — a send does not block the sender on the
  receiver; cost stays off the critical path (memory write vs system
  call / context switch).

The channel API is *dual-surface*: every channel speaks both the packed
word-stream protocol (``send_raw`` / ``receive_words``, flat
``array('Q')`` batches in the 4-words-per-message wire format of
``repro.core.messages``) and the object protocol (``send`` /
``receive_all``, :class:`~repro.core.messages.Message` lists).

* The send side is bridged both ways: word-native channels (the
  AppendWrite family, rings) override ``send_raw``, so the hot path
  never allocates a ``Message``; wrapper channels (trace recording,
  fault injection) override ``send`` and keep operating on objects.
  A subclass must override one of the two; overriding neither would
  leave the defaults calling each other.
* The word receive side is required: every primitive implements
  ``_receive_raw_words``, and the base derives ``_receive_raw`` from
  it.  A wrapper instead delegates ``_receive_raw_words`` to its inner
  channel, or overrides ``_receive_raw`` and ``receive_words`` to work
  on objects.
"""

from __future__ import annotations

import abc
from array import array
from typing import Callable, List, Optional

from repro.core.messages import (Message, MessageDecodeError, Op,
                                 decode_batch)
from repro.sim.process import Process


class ChannelIntegrityError(Exception):
    """The receiver observed evidence of message loss or tampering."""


class ChannelFullError(Exception):
    """The channel buffer is full and the primitive cannot block."""


class Channel(abc.ABC):
    """One sender→verifier message channel.

    The kernel arbitrates channel creation in the real system, which is
    what makes the pid stamp trustworthy; here the channel is constructed
    bound to a sender pid and stamps it on every message.

    The receive path is split in two so fault injection and the verifier
    restart path can reach the undecoded transport stream:
    :meth:`_receive_raw_words` / :meth:`_receive_raw` drain the
    transport buffer, and :meth:`_validate_words` / :meth:`_validate`
    apply the primitive's integrity discipline (counter checking, for
    the AppendWrite family).  ``receive_words`` / ``receive_all`` are
    their compositions and remain the verifier-facing entry points.
    """

    #: Primitive key into :data:`repro.ipc.latency.SEND_NS`.
    primitive: str = ""
    #: Whether sent messages are immutable from the sender's side.
    append_only: bool = True
    #: Whether validation is decoupled from the sender's critical path.
    async_validation: bool = True
    #: Human-readable primary cost, as in Table 2.
    primary_cost: str = ""
    #: Observability hook (:class:`repro.obs.Observer`); the framework
    #: wires it onto the transport channel per run.  None keeps every
    #: transport emit site at a single predicate — the send datapath
    #: itself is never instrumented (send totals are collected as
    #: end-of-run gauges instead).
    observer = None

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("channel capacity must be positive")
        self.capacity = capacity
        self._counter = 0
        self.sent_total = 0
        self.dropped_total = 0
        #: Kernel/framework hook invoked when a send finds the buffer
        #: full: the wired handler drains the verifier so the sender can
        #: retry instead of failing outright (fail-closed backoff).
        self._on_full: Optional[Callable[["Channel"], None]] = None

    def _notify_full(self) -> None:
        """Give the kernel-side drain hook a chance to make room."""
        if self.observer is not None:
            self.observer.ipc_full()
        if self._on_full is not None:
            self._on_full(self)

    # -- send surface -------------------------------------------------------

    def send(self, sender: Process, message: Message) -> None:
        """Transmit ``message`` from ``sender``, charging its cycle cost.

        Raises :class:`ChannelFullError` when the buffer is full and the
        drain hook could not make room; the sender's runtime maps that
        to bounded retry and, ultimately, a fail-closed kill.
        """
        self.send_raw(sender, int(message.op), message.arg0, message.arg1,
                      message.aux)

    def send_raw(self, sender: Process, op: int, arg0: int = 0,
                 arg1: int = 0, aux: int = 0) -> None:
        """Word-path send: the flat-field twin of :meth:`send`.

        Word-native channels override this and stamp pid/counter by
        writing words directly — no ``Message`` allocation, no
        ``with_transport`` copy.  The bridge default routes through
        :meth:`send` for wrapper channels that only speak objects.
        """
        self.send(sender, Message(Op(op), arg0, arg1, aux))

    # -- receive surface ----------------------------------------------------

    def _receive_raw(self) -> List[Message]:
        """Drain the transport buffer without integrity validation."""
        try:
            return decode_batch(self._receive_raw_words())
        except MessageDecodeError as error:
            # Fail closed: a stream the trusted codec cannot decode is
            # integrity evidence, never a crash.
            raise ChannelIntegrityError(
                f"undecodable message stream: {error}") from error

    def _validate_words(self, words: array) -> array:
        """Word-path integrity discipline; see :meth:`_validate`."""
        return words

    def _validate(self, messages: List[Message]) -> List[Message]:
        """Apply the primitive's receive-side integrity discipline.

        Raises :class:`ChannelIntegrityError` if the transport detects a
        counter gap (dropped or overwritten messages).  The base
        implementation is a no-op: kernel-mediated primitives trust the
        kernel copy and carry no transport counter discipline.
        """
        return messages

    def receive_words(self) -> array:
        """Drain all pending traffic as one packed word stream.

        The verifier's batch dispatcher consumes this directly; word
        order is send order.  Raises :class:`ChannelIntegrityError` on a
        counter gap, exactly like :meth:`receive_all`.
        """
        return self._validate_words(self._receive_raw_words())

    def receive_all(self) -> List[Message]:
        """Drain and return all pending messages, in order.

        Raises :class:`ChannelIntegrityError` if the transport detects a
        counter gap (dropped or overwritten messages).
        """
        return self._validate(self._receive_raw())

    def resync(self) -> List[Message]:
        """Discard in-flight messages and realign integrity state.

        Called by the verifier restart path (section 3.4): whatever was
        pending at the crash is lost; the channel realigns its receive
        discipline so post-restart traffic does not trip a spurious
        counter gap.  Returns the discarded messages so the caller can
        conservatively kill their senders (fail closed).
        """
        try:
            return self._receive_raw()
        except ChannelIntegrityError:
            return []

    @abc.abstractmethod
    def pending(self) -> int:
        """Number of messages waiting to be received."""

    def close(self) -> None:
        """Release transport resources held outside this process.

        Most channels are pure in-process models and hold nothing; the
        base implementation is a no-op.  Channels backed by real OS
        objects (the SPSC shared-memory ring) override this to close
        and unlink their segments.  Idempotent.
        """

    # -- integrity-attack surface (non-append-only channels only) ----------

    def corrupt(self, index: int, message: Message) -> None:
        """Overwrite the ``index``-th pending message (attack model).

        Only meaningful for channels without append-only semantics;
        append-only channels refuse.
        """
        raise PermissionError(
            f"{type(self).__name__} is append-only; sent messages are immutable"
        )

    def erase(self, count: Optional[int] = None) -> None:
        """Erase pending messages (attack model); refuse if append-only."""
        raise PermissionError(
            f"{type(self).__name__} is append-only; sent messages are immutable"
        )
