"""Budget-equivalence property: however a verifier's polls are
budgeted, it reaches the verdicts of one unbounded run.

Bounded and unbounded ``Verifier.poll`` share one word-native path:
received batches queue in a backlog with a read offset, and each poll
dispatches what its budget allows.  For any interleaving of sends and
polls — budgets of 0, 1, a few messages, or unbounded; one to three
pids; one or two channels; batches with an unknown opcode or a
truncated tail — a final unbounded drain must leave every pid in the
state the all-unbounded run reaches (``_fingerprint``: violations,
:class:`PolicyStats`, syscall tokens, policy entries, integrity
failures), on the inline verifier and on the sharded coordinator.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.sharding import pack_stream
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core.messages import MESSAGE_WORDS, Op
from repro.core.shard_verifier import ShardedVerifier
from repro.core.verifier import Verifier
from repro.policies.call_counter import CallCounterPolicy
from repro.policies.dfi import DFIPolicy
from repro.policies.memory_safety import MemorySafetyPolicy
from repro.policies.taint import TaintPolicy
from repro.policies.watchdog import WatchdogPolicy
from tests.test_sharding import _StubChannel, _fingerprint

POLICY_FACTORIES = {
    "hq-cfi": HQCFIPolicy,
    "memory-safety": MemorySafetyPolicy,
    "call-counter": CallCounterPolicy,
    "dfi": lambda: DFIPolicy({1: frozenset({0, 5})}),
    "taint": TaintPolicy,
    "watchdog": WatchdogPolicy,
}

#: Small pools so defines/checks (and stores/loads, sources/sinks)
#: collide often enough to exercise both accept and violate branches.
_ADDRESSES = st.sampled_from([0x10, 0x20, 0x30, 0x1000])
_VALUES = st.sampled_from([0, 1, 0x40, 0xDEAD, 2 ** 63])
_KINDS = st.sampled_from([1, 2, 10, 11, 12, 20, 21, 22])

_EVENTS = st.one_of(
    st.tuples(st.sampled_from([int(op) for op in Op
                               if op is not Op.SYSCALL]),
              _ADDRESSES, _VALUES,
              st.integers(min_value=0, max_value=2 ** 32 - 1)),
    st.tuples(st.just(int(Op.EVENT)), _KINDS, _ADDRESSES,
              st.integers(min_value=0, max_value=2 ** 20)),
    st.tuples(st.just(int(Op.SYSCALL)), st.sampled_from([0, 1, 60]),
              st.just(0), st.just(0)),
)

_BUDGETS = st.one_of(st.none(), st.sampled_from([0, 1]),
                     st.integers(min_value=2, max_value=5))

#: An opcode the wire codec does not know.
_BAD_OPCODE = 0x7FFF_FFFF

PIDS = [40, 41, 42]


@st.composite
def _batches(draw, pids):
    """One received batch: one to three per-pid chunks, sometimes
    carrying an unknown opcode or missing its tail words."""
    words = array("Q")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        events = draw(st.lists(_EVENTS, min_size=1, max_size=8))
        words += pack_stream(draw(st.sampled_from(pids)), events)
    corrupt = draw(st.sampled_from([None, None, None, "opcode", "truncate"]))
    if corrupt == "opcode":
        index = draw(st.integers(
            min_value=0,
            max_value=len(words) // MESSAGE_WORDS - 1)) * MESSAGE_WORDS
        words[index] = (words[index] >> 32 << 32) | _BAD_OPCODE
    elif corrupt == "truncate":
        del words[-draw(st.integers(min_value=1,
                                    max_value=MESSAGE_WORDS - 1)):]
    return words


@st.composite
def _scripts(draw):
    """(pids, channel count, steps): sends and budgeted polls."""
    pids = PIDS[:draw(st.integers(min_value=1, max_value=3))]
    channels = draw(st.integers(min_value=1, max_value=2))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("send"),
                  st.integers(min_value=0, max_value=channels - 1),
                  _batches(pids)),
        st.tuples(st.just("poll"), _BUDGETS)), max_size=12))
    return pids, channels, steps


def _run(verifier, script, unbounded=False):
    """Play ``script`` against ``verifier``, drain it unbounded, and
    fingerprint every pid.  ``unbounded`` ignores the scripted budgets:
    the reference run."""
    pids, channel_count, steps = script
    channels = [_StubChannel() for _ in range(channel_count)]
    for channel in channels:
        verifier.attach_channel(channel)
    for pid in pids:
        verifier.register_process(pid)
    for step in steps:
        if step[0] == "send":
            channels[step[1]].push(step[2])
        else:
            verifier.poll(None if unbounded else step[1])
    while any(channel._batches for channel in channels):
        verifier.poll()
    verifier.poll()
    assert verifier.backlog_size() == 0
    return {pid: _fingerprint(verifier, pid) for pid in pids}


def _sorted_violations(fingerprints):
    return {pid: (sorted(fp[0]),) + fp[1:]
            for pid, fp in fingerprints.items()}


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
@settings(max_examples=20, deadline=None)
@given(script=_scripts())
def test_any_poll_budget_matches_one_unbounded_run(policy_name, script):
    factory = POLICY_FACTORIES[policy_name]
    reference = _run(Verifier(factory), script, unbounded=True)
    assert _run(Verifier(factory), script) == reference

    # The coordinator raises a routing-time integrity violation at the
    # end of the receiving poll, possibly ahead of policy violations
    # still queued in its rings: compare violations as sorted lists.
    sharded = ShardedVerifier(factory, 2, ring_capacity_words=64)
    try:
        assert _sorted_violations(_run(sharded, script)) == \
            _sorted_violations(reference)
    finally:
        sharded.close()


def test_bounded_poll_dispatches_the_prefix_before_a_bad_opcode():
    """The valid messages ahead of an unknown opcode are dispatched
    whatever the budget, as an unbounded poll dispatches them."""
    events = [(int(Op.POINTER_DEFINE), 0x10 * i, i, 0) for i in (1, 2, 3)]
    events.append((int(Op.SYSCALL), 1, 0, 0))
    batch = pack_stream(40, events) + \
        array("Q", [(40 << 32) | _BAD_OPCODE, 0, 0, 0])
    script = ([40], 1, [("send", 0, batch), ("poll", 1)])
    reference = _run(Verifier(HQCFIPolicy), script, unbounded=True)
    violations, processed, _, _, _, tokens, entries, integrity = \
        reference[40]
    assert (processed, tokens, entries) == (4, 1, 3)
    assert [kind for kind, _ in violations] == ["message-integrity"]
    assert "unknown opcode" in integrity[0]
    assert _run(Verifier(HQCFIPolicy), script) == reference


def test_restart_condemns_pids_with_undispatched_words():
    """A restart with the head batch partly drained condemns exactly
    the live pids that still have words in the backlog."""
    verifier = Verifier(HQCFIPolicy)
    channel = _StubChannel()
    verifier.attach_channel(channel)
    for pid in (10, 11, 12, 13):
        verifier.register_process(pid)
    defines = [(int(Op.POINTER_DEFINE), 0x10, 0x20, 0)] * 2
    channel.push(pack_stream(10, defines) + pack_stream(11, defines))
    channel.push(pack_stream(12, defines) + pack_stream(14, defines))
    assert verifier.poll(3) == 3   # 10, 10, 11: one message of 11 left
    assert verifier.poll(0) == 0   # the second batch queues behind it
    assert verifier.backlog_size() == 5
    # 10 was fully dispatched, 13 sent nothing, 14 is no longer live.
    assert verifier.restart([10, 11, 12, 13]) == [11, 12]
    assert verifier.backlog_size() == 0
    assert verifier.poll() == 0
    for pid in (11, 12):
        assert [v.kind for v in verifier.all_violations(pid)] == \
            ["verifier-restart"]
    assert not verifier.all_violations(10)
    assert not verifier.all_violations(13)
