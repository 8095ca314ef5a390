"""Pass manager for the instrumentation pipeline.

Mirrors LLVM's legacy pass manager at module granularity: passes run in
order, may rewrite the module in place, and report statistics (number
of checks inserted, messages elided, calls devirtualized...) that the
ablation benchmarks aggregate.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler import ir


class ModulePass:
    """Base class: transforms or analyzes a whole module."""

    name = "pass"

    def __init__(self) -> None:
        self.stats: Dict[str, int] = {}

    def bump(self, key: str, amount: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    def run(self, module: ir.Module) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a pipeline of module passes and collects their statistics."""

    def __init__(self, passes: List[ModulePass]) -> None:
        self.passes = list(passes)

    def run(self, module: ir.Module) -> Dict[str, Dict[str, int]]:
        """Run every pass in order; returns {pass name: stats}.

        Each function's def-use index lives for one pass: it is dropped
        after every pass, so no index outlives the pipeline.
        """
        results: Dict[str, Dict[str, int]] = {}
        for pass_ in self.passes:
            pass_.run(module)
            for function in module.functions.values():
                function.drop_uses()
            module.verify()
            results[pass_.name] = dict(pass_.stats)
        return results
