"""Catalogue of CFI designs evaluated in the paper (Table 3).

Each :class:`DesignConfig` bundles the compiler pass pipeline, the
policy runtime, and the execution options that together realize one
design.  The HerQules variants additionally need an AppendWrite channel
and the verifier/kernel-module pair; the framework
(:mod:`repro.core.framework`) wires those in.

=================  =============================================================
name               design
=================  =============================================================
``baseline``       no instrumentation
``hq-sfestk``      HQ-CFI with safe-stack backward edges (HQ-CFI-SfeStk)
``hq-retptr``      HQ-CFI with messaged return pointers (HQ-CFI-RetPtr)
``clang-cfi``      Clang/LLVM CFI: type classes + guarded safe stack
``ccfi``           Cryptographically-Enforced CFI: keyed MACs
``cpi``            Code-Pointer Integrity: hidden safe store + safe stack
=================  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.cfi.ccfi import CCFIPass, CCFIRuntime
from repro.cfi.clang_cfi import ClangCFIPass, ClangCFIRuntime
from repro.cfi.cpi import CPIPass, CPIRuntime
from repro.compiler.passes.base import ModulePass
from repro.core.runtime import HQRuntime
from repro.ipc.base import Channel
from repro.sim.cpu import ExecOptions, Runtime


@dataclass
class DesignConfig:
    """Everything needed to build and run a program under one design."""

    name: str
    description: str
    #: Builds the pass pipeline; called fresh per compilation.
    passes: Callable[[], List[ModulePass]]
    #: Builds the runtime; HQ designs receive the AppendWrite channel.
    runtime: Callable[[Optional[Channel]], Runtime]
    #: Whether this design runs under the verifier + kernel module.
    monitored: bool = False
    safe_stack: bool = False
    safe_stack_guard: bool = False
    safe_stack_adjacent: bool = False
    fp_precision_loss: bool = False
    register_pressure_factor: float = 1.0
    #: Qualitative properties (Table 3).
    detects_use_after_free: bool = False
    precision: int = 1  # 1=coarse classes, 2=pointer integrity w/ safe
    #                     stack, 3=full pointer integrity

    def exec_options(self, **overrides) -> ExecOptions:
        """This design's execution knobs, with ``overrides`` applied; an
        override that names no :class:`ExecOptions` field raises
        ``TypeError``."""
        return replace(ExecOptions(
            safe_stack=self.safe_stack,
            safe_stack_guard=self.safe_stack_guard,
            safe_stack_adjacent=self.safe_stack_adjacent,
            fp_precision_loss=self.fp_precision_loss,
            register_pressure_factor=self.register_pressure_factor,
        ), **overrides)


def _hq_passes(retptr: bool) -> Callable[[], List[ModulePass]]:
    def build() -> List[ModulePass]:
        from repro.compiler.passes.cfi_finalize import CFIFinalLoweringPass
        from repro.compiler.passes.cfi_initial import CFIInitialLoweringPass
        from repro.compiler.passes.devirtualize import DevirtualizationPass
        from repro.compiler.passes.elision import MessageElisionPass
        from repro.compiler.passes.retptr import ReturnPointerPass
        from repro.compiler.passes.stlf import StoreToLoadForwardingPass
        from repro.compiler.passes.syscall_sync import SyscallSyncPass

        passes: List[ModulePass] = [
            CFIInitialLoweringPass(),
            DevirtualizationPass(),
            StoreToLoadForwardingPass(),
            MessageElisionPass(),
            CFIFinalLoweringPass(),
        ]
        if retptr:
            passes.append(ReturnPointerPass())
        passes.append(SyscallSyncPass())
        return passes
    return build


DESIGNS: Dict[str, DesignConfig] = {
    "baseline": DesignConfig(
        name="baseline",
        description="Uninstrumented baseline",
        passes=lambda: [],
        runtime=lambda channel: Runtime(),
    ),
    "hq-sfestk": DesignConfig(
        name="hq-sfestk",
        description="HQ-CFI-SfeStk: pointer-integrity forward edges via "
                    "AppendWrite, safe-stack backward edges",
        passes=_hq_passes(retptr=False),
        runtime=lambda channel: HQRuntime(channel),
        monitored=True,
        safe_stack=True,
        safe_stack_guard=True,
        detects_use_after_free=True,
        precision=2,
    ),
    "hq-retptr": DesignConfig(
        name="hq-retptr",
        description="HQ-CFI-RetPtr: pointer integrity for forward AND "
                    "backward edges via AppendWrite",
        passes=_hq_passes(retptr=True),
        runtime=lambda channel: HQRuntime(channel),
        monitored=True,
        safe_stack=False,
        detects_use_after_free=True,
        precision=3,
    ),
    "clang-cfi": DesignConfig(
        name="clang-cfi",
        description="Clang/LLVM CFI: language-level type classes, "
                    "guard-paged safe stack",
        passes=lambda: [ClangCFIPass()],
        runtime=lambda channel: ClangCFIRuntime(),
        safe_stack=True,
        safe_stack_guard=True,
        precision=1,
    ),
    "ccfi": DesignConfig(
        name="ccfi",
        description="CCFI: per-pointer cryptographic MACs in reserved "
                    "XMM registers",
        passes=lambda: [CCFIPass()],
        runtime=lambda channel: CCFIRuntime(),
        fp_precision_loss=True,
        register_pressure_factor=1.45,
        precision=3,
    ),
    "arm-pa": DesignConfig(
        name="arm-pa",
        description="ARM pointer authentication (Apple-style): PAC "
                    "signatures without address binding — extension, "
                    "discussed in section 6.2",
        passes=lambda: [_pa_pass()],
        runtime=lambda channel: _pa_runtime(),
        safe_stack=True,
        precision=2,
    ),
    "cpi": DesignConfig(
        name="cpi",
        description="CPI: safe store + safe stack behind information "
                    "hiding",
        passes=lambda: [CPIPass()],
        runtime=lambda channel: CPIRuntime(),
        safe_stack=True,
        safe_stack_adjacent=True,
        precision=2,
    ),
}


def _pa_pass():
    from repro.cfi.pointer_auth import PointerAuthPass
    return PointerAuthPass()


def _pa_runtime():
    from repro.cfi.pointer_auth import PointerAuthRuntime
    return PointerAuthRuntime()


def get_design(name: str) -> DesignConfig:
    """Look up a design configuration by name."""
    key = name.lower()
    if key not in DESIGNS:
        raise KeyError(f"unknown design {name!r}; choose from {sorted(DESIGNS)}")
    return DESIGNS[key]
