"""Exhaustive interleaving exploration: DFS + state hashing + sleep sets.

The explorer is generic over a *model* object providing four hooks::

    model.initial_state()           -> state  (must expose .key())
    model.enabled(state)            -> [Step, ...]
    model.apply(state, step)        -> (child_state, violation | None)
    model.terminal_violation(state) -> violation | None   # no steps left

A :class:`Step` is one atomic action of one actor — in the SPSC model,
a single header-word load or store, a single payload-slot access, or a
crash — annotated with its shared-location footprint.  The footprint
drives the sleep-set partial-order reduction: two steps of different
actors *commute* when neither writes a location the other touches, so
exploring both orders of an independent pair proves nothing new.

Soundness notes, because POR + state hashing is where model checkers
quietly go wrong:

* Enabledness guards must be covered by the declared ``reads`` set —
  every model step here declares the shared words its guard consults,
  so an independent step can never enable/disable a sleeping one.
* A visited state is only skipped when it was previously explored with
  a sleep set *no larger* than the current one (the earlier visit
  explored a superset of the orderings we would explore now).  With
  POR disabled the sleep set is always empty and this degenerates to
  plain state hashing.

``explore(model, por=False)`` is therefore the ground truth and
``por=True`` the optimization; ``tests/test_mc.py`` pins that both
modes reach identical verdicts on the clean model and on every seeded
mutant, and the CLI reports the reduction factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Tuple

#: Hard backstop on explored transitions: the models are finite by
#: construction, so hitting this means a model bug, not a big run.
DEFAULT_MAX_TRANSITIONS = 5_000_000


@dataclass(frozen=True)
class Step:
    """One atomic transition of one actor.

    ``reads``/``writes`` are the shared-location footprint (header
    words, payload slots, crash tokens) including everything the
    enabledness guard consulted; ``fn`` maps a state to
    ``(child_state, violation-or-None)``.
    """

    name: str
    actor: str
    reads: FrozenSet
    writes: FrozenSet
    fn: Callable = field(compare=False, hash=False)


def independent(a: Step, b: Step) -> bool:
    """Do ``a`` and ``b`` commute?  Different actors, no write overlap."""
    if a.actor == b.actor:
        return False
    if a.writes & b.writes:
        return False
    if a.writes & b.reads or b.writes & a.reads:
        return False
    return True


@dataclass
class ModelViolation:
    """One invariant breach, with the interleaving that produced it."""

    message: str
    trace: Tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.message}  [after {' -> '.join(self.trace[-8:])}]"


@dataclass
class ExploreResult:
    """Outcome of one exhaustive exploration."""

    states: int = 0
    transitions: int = 0
    terminals: int = 0
    max_depth: int = 0
    truncated: bool = False
    violations: List[ModelViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    def summary(self) -> Dict[str, object]:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "terminals": self.terminals,
            "max_depth": self.max_depth,
            "truncated": self.truncated,
            "violations": [
                {"message": v.message, "trace": list(v.trace)}
                for v in self.violations
            ],
        }


def explore(model, por: bool = True,
            max_transitions: int = DEFAULT_MAX_TRANSITIONS,
            max_violations: int = 16) -> ExploreResult:
    """Exhaustively explore ``model``'s interleaving space.

    Iterative DFS (the SPSC model's deepest traces exceed CPython's
    default recursion limit).  Violations are collected, not raised,
    so one sweep reports every distinct invariant breach up to
    ``max_violations``; exploration then keeps going to finish the
    state count unless the violation budget is exhausted.
    """
    result = ExploreResult()
    initial = model.initial_state()
    #: state key -> sleep-name-sets it was explored under.  A revisit
    #: is redundant iff some earlier visit used a subset sleep set.
    visited: Dict[object, List[FrozenSet[str]]] = {}

    def seen(key, sleep_names: FrozenSet[str]) -> bool:
        prior = visited.get(key)
        if prior is not None:
            for p in prior:
                if p <= sleep_names:
                    return True
            prior[:] = [p for p in prior if not (sleep_names <= p)]
            prior.append(sleep_names)
        else:
            visited[key] = [sleep_names]
        return False

    # Stack frames: (state, steps, next index, sleep dict name->Step,
    # trace tuple).  The sleep set grows as siblings are explored.
    initial_sleep: Dict[str, Step] = {}
    if seen(initial.key(), frozenset()):
        return result
    result.states = 1
    stack = [(initial, model.enabled(initial), 0, initial_sleep, ())]

    while stack:
        state, steps, index, sleep, trace = stack[-1]
        if index == 0 and not steps:
            result.terminals += 1
            message = model.terminal_violation(state)
            if message is not None:
                result.violations.append(ModelViolation(message, trace))
            stack.pop()
            continue
        if index >= len(steps):
            stack.pop()
            continue
        stack[-1] = (state, steps, index + 1, sleep, trace)
        step = steps[index]
        if por and step.name in sleep:
            continue
        if result.transitions >= max_transitions:
            result.truncated = True
            break
        result.transitions += 1
        child, violation = model.apply(state, step)
        child_trace = trace + (step.name,)
        if violation is not None:
            result.violations.append(ModelViolation(violation, child_trace))
            if len(result.violations) >= max_violations:
                break
            # A violating step still yields a state; do not descend
            # through it (the invariant already failed on this path).
            if por:
                sleep[step.name] = step
            continue
        child_sleep: Dict[str, Step] = {}
        if por:
            child_sleep = {name: s for name, s in sleep.items()
                           if independent(s, step)}
        if not seen(child.key(), frozenset(child_sleep)):
            result.states += 1
            depth = len(child_trace)
            if depth > result.max_depth:
                result.max_depth = depth
            stack.append((child, model.enabled(child), 0, child_sleep,
                          child_trace))
        if por:
            sleep[step.name] = step

    return result
