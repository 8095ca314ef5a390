"""HQ-CFI: the paper's fine-grained pointer-integrity policy.

Verifier-side interpretation of the ``POINTER_*`` messages (sections
4.1.3/4.1.5).  Unlike equivalence-class CFI, pointer integrity is
maximally precise: a check passes only if the loaded value equals the
most recent definition for that exact address — so any corruption of a
control-flow pointer, and any use after its invalidation (use-after-
free), is a violation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import Op
from repro.core.policy import Policy, Violation
from repro.cfi.pointer_table import PointerTable


class HQCFIPolicy(Policy):
    """Pointer-integrity policy context for one monitored process.

    Define and check dominate instrumented traffic (one define per
    pointer store, one check per indirect transfer), so those handlers
    skip the :class:`PointerTable` method-call layer and probe its
    entry dict directly.
    """

    name = "hq-cfi"

    def __init__(self) -> None:
        self.table = PointerTable()
        self.use_after_free_hits = 0

    def _define(self, arg0: int, arg1: int, aux: int) -> None:
        self.table._entries[arg0] = arg1

    def _check(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        recorded = self.table._entries.get(arg0)
        if recorded == arg1:
            return None
        if recorded is None:
            self.use_after_free_hits += 1
        return Violation(0, "cfi-pointer-integrity",
                         self.table.check(arg0, arg1))

    def _check_invalidate(self, arg0: int, arg1: int,
                          aux: int) -> Optional[Violation]:
        violation = self._check(arg0, arg1, aux)
        if violation is None:
            del self.table._entries[arg0]
        return violation

    def _invalidate(self, arg0: int, arg1: int, aux: int) -> None:
        self.table._entries.pop(arg0, None)

    def _block_copy(self, arg0: int, arg1: int, aux: int) -> None:
        self.table.block_copy(arg0, arg1, aux)

    def _block_move(self, arg0: int, arg1: int, aux: int) -> None:
        self.table.block_move(arg0, arg1, aux)

    def _block_invalidate(self, arg0: int, arg1: int, aux: int) -> None:
        self.table.block_invalidate(arg0, aux)

    HANDLERS = {
        int(Op.POINTER_DEFINE): _define,
        int(Op.POINTER_CHECK): _check,
        int(Op.POINTER_CHECK_INVALIDATE): _check_invalidate,
        int(Op.POINTER_INVALIDATE): _invalidate,
        int(Op.POINTER_BLOCK_COPY): _block_copy,
        int(Op.POINTER_BLOCK_MOVE): _block_move,
        int(Op.POINTER_BLOCK_INVALIDATE): _block_invalidate,
    }

    def clone(self) -> "HQCFIPolicy":
        child = HQCFIPolicy()
        child.table = self.table.copy()
        return child

    def entry_count(self) -> int:
        return len(self.table)

    def entries_ref(self):
        return self.table._entries
