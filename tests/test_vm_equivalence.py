"""Property tests: the compile tier is observably identical to the
closure tier.

The register VM (``repro.sim.lower`` / ``repro.sim.vm``) is a pure
performance structure: for any program, policy, channel, or fault
schedule, a run under ``interp_tier="vm"`` must produce the same
:class:`repro.core.framework.RunResult` — outcome, exit status, step
count, cycle buckets (float-exact: group costs are summed in decode
order on both tiers), program output, violations, hijacks, message
counts, and verifier high-water marks — as ``interp_tier="closure"``.
Anything the flat encoding can't express runs through an escape bridge
into the closure tier's own handlers, so divergence means a lowering
bug, not a legal reordering.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
from tests.test_attacks import use_tier

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


def _snapshot(result):
    return (result.outcome, result.exit_status, result.detail,
            result.steps, result.cycles, tuple(result.output),
            result.messages_sent, result.hijacks, result.win_executed,
            result.max_entries, result.runtime_violations,
            tuple((v.kind, v.detail) for v in result.violations))


def _run(tier, profile, **kwargs):
    kwargs.setdefault("design", "hq-sfestk")
    kwargs.setdefault("kill_on_violation", False)
    return run_program(build_module(profile),
                       exec_option_overrides={"interp_tier": tier},
                       **kwargs)


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
def test_tiers_identical_across_policies(policy_name):
    factory = POLICY_FACTORIES[policy_name]
    closure = _run("closure", RICH_PROFILE, policy_factory=factory)
    vm = _run("vm", RICH_PROFILE, policy_factory=factory)
    assert _snapshot(vm) == _snapshot(closure)


@settings(max_examples=12, deadline=None)
@given(
    iterations=st.integers(min_value=2, max_value=50),
    compute_ops=st.integers(min_value=1, max_value=40),
    float_ops=st.integers(min_value=0, max_value=8),
    language=st.sampled_from(["C", "C++"]),
    icalls=st.sampled_from([0, 300, 1000]),
    fnptr_writes=st.sampled_from([0, 250]),
    protected=st.sampled_from([0, 700]),
    heap=st.sampled_from([0, 400]),
    syscalls=st.sampled_from([0, 120, 1000]),
)
def test_tiers_identical_across_workload_shapes(iterations, compute_ops,
                                                float_ops, language,
                                                icalls, fnptr_writes,
                                                protected, heap,
                                                syscalls):
    profile = BenchmarkProfile(
        name="vm-equiv-sweep", suite="CPU2017", language=language,
        iterations=iterations, compute_ops=compute_ops,
        float_ops=float_ops, icalls_per_k=icalls,
        fnptr_writes_per_k=fnptr_writes, protected_calls_per_k=protected,
        heap_ops_per_k=heap, syscalls_per_k=syscalls)
    closure = _run("closure", profile)
    vm = _run("vm", profile)
    assert _snapshot(vm) == _snapshot(closure)


@pytest.mark.parametrize("kind", [FaultKind.DROP, FaultKind.CORRUPT,
                                  FaultKind.DUPLICATE, FaultKind.REORDER,
                                  FaultKind.SLOW_VERIFIER])
def test_tiers_identical_under_channel_faults(kind):
    """FaultyChannel interposition is tier-invariant: the fault plan is
    keyed to the message stream, and both tiers emit the same stream."""
    def faulted(tier):
        plan = FaultPlan(7, [kind], scope="vm-equiv", rate=0.25)
        return _run(tier, RICH_PROFILE, channel="sim",
                    fault_injector=FaultInjector(plan))

    closure = faulted("closure")
    vm = faulted("vm")
    assert _snapshot(vm) == _snapshot(closure)


@pytest.mark.parametrize("attack,design", [
    (Attack("ret-direct", "-", "stack"), "hq-retptr"),
    (Attack("fp-direct", "noclass", "bss"), "hq-sfestk"),
    (Attack("disclosure-arb", "-", "heap"), "hq-sfestk"),
])
def test_tiers_identical_under_attack(attack, design, monkeypatch):
    """Hijack detection (and successful exploitation) is bit-identical:
    the return-address epilogue runs outside the VM on both tiers."""
    use_tier(monkeypatch, "closure")
    closure = run_attack(attack, design)
    use_tier(monkeypatch, "vm")
    vm = run_attack(attack, design)
    assert _snapshot(vm) == _snapshot(closure)
