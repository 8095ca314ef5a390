"""Fault-injecting channel decorator.

:class:`FaultyChannel` wraps any :class:`repro.ipc.base.Channel` and
perturbs the *transport*, not the endpoints: sends still go through the
inner primitive (pid stamping, counters, cycle charging all real), and
receive-side faults are applied to the raw in-flight stream *before*
the inner primitive's own integrity validation judges it.  That
ordering is the point — an injected drop on an AppendWrite channel must
produce exactly the counter gap a real lost DMA write would, so the
run demonstrates the paper's detection story rather than bypassing it.
"""

from __future__ import annotations

from typing import List

from repro.core.messages import Message, encode_batch
from repro.faults.plan import FaultPlan
from repro.ipc.base import Channel, ChannelFullError
from repro.sim.process import Process


class FaultyChannel(Channel):
    """Transparent-but-hostile wrapper over an inner channel."""

    def __init__(self, inner: Channel, plan: FaultPlan) -> None:
        super().__init__(inner.capacity)
        self.inner = inner
        self.plan = plan
        self.primitive = inner.primitive
        self.append_only = inner.append_only
        self.async_validation = inner.async_validation
        self.primary_cost = inner.primary_cost
        #: Messages withheld by an active delay episode.
        self._held: List[Message] = []
        self._round = 0
        self._release_round = 0
        #: Injection counters, for reporting and tests.
        self.injected_full = 0
        self.delay_episodes = 0

    # -- metadata mirrors -------------------------------------------------------

    @property
    def sent_total(self) -> int:  # type: ignore[override]
        return self.inner.sent_total

    @sent_total.setter
    def sent_total(self, value: int) -> None:
        # Channel.__init__ zeroes the counters; keep the inner channel
        # authoritative and ignore the wrapper-side initialization.
        pass

    @property
    def dropped_total(self) -> int:  # type: ignore[override]
        return self.inner.dropped_total

    @dropped_total.setter
    def dropped_total(self, value: int) -> None:
        pass

    # -- transport --------------------------------------------------------------

    def send(self, sender: Process, message: Message) -> None:
        if self.plan.forced_full():
            # The injected exhaustion still costs the sender its send
            # attempt, like a real bounce off a full buffer.
            self.injected_full += 1
            raise ChannelFullError(
                f"injected channel-full on {self.primitive or 'channel'}")
        self.inner.send(sender, message)

    # send_raw is intentionally NOT overridden: the base bridge routes
    # word-path sends through send(), which is this wrapper's (and its
    # test subclasses') injection point — one forced_full() draw per
    # attempt either way, so fault plans stay deterministic.

    def receive_words(self):
        # Fault injection operates on Message objects, and mutated
        # streams (reorders especially) must face the inner primitive's
        # *strict* per-message validation — never the word path's batch
        # range check, which a reordering with intact endpoints could
        # slip past.  Validation happens inside receive_all.
        return encode_batch(self.receive_all())

    def _receive_raw(self) -> List[Message]:
        self._round += 1
        raw = self._held + self.inner._receive_raw()
        self._held = []
        if self._round < self._release_round:
            # An earlier delay episode is still holding the stream.
            self._held = raw
            return []
        rounds = self.plan.delay_rounds() if raw else 0
        if rounds:
            # Stall the whole in-flight prefix: order (and therefore
            # counter continuity) is preserved, delivery is just late.
            self.delay_episodes += 1
            self._release_round = self._round + rounds
            self._held = raw
            return []
        return self.plan.mutate(raw)

    def _validate(self, messages: List[Message]) -> List[Message]:
        # The *inner* primitive judges the mutated stream: injected
        # drops/reorders must trip real counter checks where they exist.
        return self.inner._validate(messages)

    def resync(self) -> List[Message]:
        # Held messages are as lost as anything in the inner buffer.
        dropped = self._held + self.inner.resync()
        self._held = []
        self._release_round = 0
        return dropped

    def pending(self) -> int:
        return len(self._held) + self.inner.pending()

    def close(self) -> None:
        # Real OS resources (SPSC ring segments) live on the inner
        # channel; a chaos run must release them like a clean run would.
        self.inner.close()
