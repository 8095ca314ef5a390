"""Structured findings emitted by the static-analysis layer.

A :class:`Diagnostic` pins one finding to a rule id, a severity, and an
exact IR location (function, block, instruction), so a tripped audit
points at the instruction a pass mishandled rather than at a failing
benchmark three layers later.  :func:`render_text` produces the human
text; :meth:`Diagnostic.to_dict` feeds the lint CLI's JSON report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.compiler import ir

#: Severities, in increasing order of badness.
INFO = "info"
WARNING = "warning"
ERROR = "error"

_SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}


@dataclass
class Diagnostic:
    """One finding of the instrumentation auditor or the validator."""

    severity: str
    rule: str
    module: str
    function: Optional[str]
    block: Optional[str]
    instruction: Optional[str]
    message: str
    #: Free-form extras (slot keys, counts) for the JSON renderer.
    data: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def at(cls, severity: str, rule: str, instruction: ir.Instruction,
           message: str, **data: object) -> "Diagnostic":
        """Build a diagnostic located at ``instruction``."""
        block = instruction.block
        function = block.function if block is not None else None
        return cls(
            severity=severity,
            rule=rule,
            module=function.module.name if function is not None else "?",
            function=function.name if function is not None else None,
            block=block.name if block is not None else None,
            instruction=instruction.name or instruction.opname,
            message=message,
            data=dict(data),
        )

    @property
    def location(self) -> str:
        parts = [self.module]
        if self.function:
            parts.append(self.function)
        if self.block:
            parts.append(self.block)
        where = ":".join(parts)
        if self.instruction:
            where += f":%{self.instruction}"
        return where

    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "severity": self.severity,
            "rule": self.rule,
            "module": self.module,
            "function": self.function,
            "block": self.block,
            "instruction": self.instruction,
            "message": self.message,
        }
        if self.data:
            payload["data"] = self.data
        return payload


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: errors first, then by location."""
    return sorted(diagnostics,
                  key=lambda d: (-_SEVERITY_RANK.get(d.severity, 0),
                                 d.module, d.function or "", d.block or "",
                                 d.rule))


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """One ``severity rule location: message`` line per finding."""
    lines = []
    for diagnostic in diagnostics:
        lines.append(f"{diagnostic.severity:<7} {diagnostic.rule:<24} "
                     f"{diagnostic.location}: {diagnostic.message}")
    return "\n".join(lines)


def summarize(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    """Counts per severity (always includes all three keys)."""
    counts = {INFO: 0, WARNING: 0, ERROR: 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] = counts.get(diagnostic.severity, 0) + 1
    return counts
