"""The register VM reproduces the committed interpreter goldens.

Until the commit named in ``tests/vm_goldens.json`` the interpreter had
a second tier, a block decoder running fused closures, and every test
here ran each program on both tiers and compared the results.  That
tier is gone; its :class:`repro.core.framework.RunResult` snapshots —
outcome, exit status, step count, cycle buckets (float-exact: group
costs are summed in decode order), program output, violations,
hijacks, message counts, and verifier high-water marks — were recorded
at that commit and are committed beside this file.  The VM must
reproduce each one exactly, for every policy, channel fault, attack, a
fixed seeded list of workload shapes, and the interpreter-speed
profiles.  Divergence means a VM or lowering bug, not a legal
reordering.
"""

import json
from pathlib import Path

import pytest

from repro.attacks.ripe import Attack, run_attack
from repro.cfi.hq_cfi import HQCFIPolicy
from repro.core.framework import run_program
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.policies.call_counter import CallCounterPolicy
from repro.policies.dfi import DFIPolicy
from repro.policies.memory_safety import MemorySafetyPolicy
from repro.policies.taint import TaintPolicy
from repro.policies.watchdog import WatchdogPolicy
from repro.workloads.generator import build_module
from repro.workloads.profiles import BenchmarkProfile

from benchmarks.test_interp_speed import INTERP_PROFILE

#: Snapshots recorded by the closure tier at ``GOLDENS["commit"]``.
GOLDENS = json.loads(
    (Path(__file__).with_name("vm_goldens.json")).read_text())

POLICY_FACTORIES = {
    "hq-cfi": HQCFIPolicy,
    "memory-safety": MemorySafetyPolicy,
    "call-counter": CallCounterPolicy,
    "dfi": lambda: DFIPolicy({1: frozenset({0, 5})}),
    "taint": TaintPolicy,
    "watchdog": WatchdogPolicy,
}

#: Small but structurally rich: indirect calls, fn-ptr writes,
#: protected calls, heap churn, and syscalls force escape bridges
#: between fused groups; float ops land in FBIN kernels.
RICH_PROFILE = BenchmarkProfile(
    name="vm-equiv",
    suite="CPU2017",
    language="C++",
    iterations=60,
    compute_ops=24,
    float_ops=6,
    icalls_per_k=400,
    fnptr_writes_per_k=250,
    protected_calls_per_k=600,
    heap_ops_per_k=300,
    syscalls_per_k=200,
)

#: Callout-saturated shape: tiny straight-line groups, with syscalls,
#: protected calls, and heap traffic forcing an escape bridge in
#: essentially every block the VM executes.
DEOPT_STORM_PROFILE = BenchmarkProfile(
    name="deopt-storm",
    suite="CPU2017",
    language="C++",
    iterations=2000,
    compute_ops=4,
    icalls_per_k=0,
    fnptr_writes_per_k=0,
    protected_calls_per_k=1000,
    heap_ops_per_k=1000,
    syscalls_per_k=1000,
)


def as_json(value):
    """``value`` as the goldens store it (tuples become lists)."""
    return json.loads(json.dumps(value))


def _snapshot(result):
    return as_json((result.outcome, result.exit_status, result.detail,
                    result.steps, result.cycles, tuple(result.output),
                    result.messages_sent, result.hijacks,
                    result.win_executed, result.max_entries,
                    result.runtime_violations,
                    tuple((v.kind, v.detail) for v in result.violations)))


def _run(profile, **kwargs):
    kwargs.setdefault("design", "hq-sfestk")
    kwargs.setdefault("kill_on_violation", False)
    return run_program(build_module(profile), **kwargs)


def test_goldens_name_their_source():
    assert GOLDENS["tier"] == "closure"
    assert len(GOLDENS["commit"]) == 40


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
def test_tiers_identical_across_policies(policy_name):
    result = _run(RICH_PROFILE, policy_factory=POLICY_FACTORIES[policy_name])
    assert _snapshot(result) == GOLDENS["policies"][policy_name]


def test_tiers_identical_across_workload_shapes():
    """A fixed seeded list of 48 shapes from the old hypothesis sweep's
    parameter space; together they cover every categorical value and
    every range's ends."""
    shapes = GOLDENS["workload_shapes"]
    assert len(shapes) >= 48
    for entry in shapes:
        shape = entry["shape"]
        profile = BenchmarkProfile(
            name="vm-equiv-sweep", suite="CPU2017",
            language=shape["language"], iterations=shape["iterations"],
            compute_ops=shape["compute_ops"], float_ops=shape["float_ops"],
            icalls_per_k=shape["icalls"],
            fnptr_writes_per_k=shape["fnptr_writes"],
            protected_calls_per_k=shape["protected"],
            heap_ops_per_k=shape["heap"], syscalls_per_k=shape["syscalls"])
        assert _snapshot(_run(profile)) == entry["snapshot"], shape


@pytest.mark.parametrize("kind", [FaultKind.DROP, FaultKind.CORRUPT,
                                  FaultKind.DUPLICATE, FaultKind.REORDER,
                                  FaultKind.SLOW_VERIFIER])
def test_tiers_identical_under_channel_faults(kind):
    """FaultyChannel interposition: the fault plan is keyed to the
    message stream, which the VM emits unchanged."""
    plan = FaultPlan(7, [kind], scope="vm-equiv", rate=0.25)
    result = _run(RICH_PROFILE, channel="sim",
                  fault_injector=FaultInjector(plan))
    assert _snapshot(result) == GOLDENS["channel_faults"][kind.name]


@pytest.mark.parametrize("attack,design", [
    (Attack("ret-direct", "-", "stack"), "hq-retptr"),
    (Attack("fp-direct", "noclass", "bss"), "hq-sfestk"),
    (Attack("disclosure-arb", "-", "heap"), "hq-sfestk"),
])
def test_tiers_identical_under_attack(attack, design):
    """Hijack detection (and successful exploitation) is bit-identical:
    the return-address epilogue runs outside the VM."""
    golden, = [entry for entry in GOLDENS["attacks"]
               if entry["attack"] == [attack.family, attack.payload,
                                      attack.origin]
               and entry["design"] == design]
    assert _snapshot(run_attack(attack, design)) == golden["snapshot"]


@pytest.mark.parametrize("name,profile", [
    ("interp-speed", INTERP_PROFILE),
    ("deopt-storm", DEOPT_STORM_PROFILE),
])
def test_speed_profiles_match_goldens(name, profile):
    """The interpreter-speed benchmark's compute profile and the
    escape-saturated deopt storm, uninstrumented."""
    result = run_program(build_module(profile), design="baseline")
    assert as_json({"outcome": result.outcome,
                    "exit_status": result.exit_status,
                    "steps": result.steps, "cycles": result.cycles}) == \
        GOLDENS["interp_speed"][name]
