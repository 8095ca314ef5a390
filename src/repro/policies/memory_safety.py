"""Memory-safety execution policy (paper section 4.2).

Enforces spatial and temporal memory safety by checking creation,
access, and destruction of allocations against an interval map held in
the verifier:

* ``Allocation-Create(a, sz)`` — new allocation; overlap is invalid.
* ``Allocation-Check(a)`` — the address must lie inside a live
  allocation (else: out-of-bounds or use-after-free).
* ``Allocation-Check-Base(a1, a2)`` — both addresses must lie inside
  the *same* live allocation (pointer-arithmetic provenance).
* ``Allocation-Extend(src, dst, sz)`` — realloc.
* ``Allocation-Destroy(a)`` — free; a missing entry is an invalid or
  double free.
* ``Allocation-Destroy-All(a, sz)`` — stack-frame deallocation.

With this policy active, corruption cannot occur in the first place, so
mitigations like CFI and shadow stacks become unnecessary (section 4.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.messages import Op
from repro.core.policy import Policy, Violation


class AllocationMap:
    """Live allocations as a start-address → size map."""

    def __init__(self) -> None:
        self._allocations: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._allocations)

    def containing(self, address: int) -> Optional[Tuple[int, int]]:
        """The (start, size) of the live allocation containing ``address``."""
        for start, size in self._allocations.items():
            if start <= address < start + size:
                return start, size
        return None

    def overlaps(self, address: int, size: int) -> bool:
        for start, existing in self._allocations.items():
            if address < start + existing and start < address + size:
                return True
        return False

    def create(self, address: int, size: int) -> Optional[str]:
        if size <= 0:
            return f"allocation of non-positive size {size}"
        if self.overlaps(address, size):
            return f"allocation [{address:#x}, +{size}) overlaps a live one"
        self._allocations[address] = size
        return None

    def destroy(self, address: int) -> Optional[str]:
        if address not in self._allocations:
            return f"invalid or double free of {address:#x}"
        del self._allocations[address]
        return None

    def destroy_all(self, address: int, size: int) -> Optional[str]:
        doomed = [start for start in self._allocations
                  if address <= start < address + size]
        if not doomed:
            return f"destroy-all of [{address:#x}, +{size}) found nothing"
        for start in doomed:
            del self._allocations[start]
        return None

    def extend(self, src: int, dst: int, size: int) -> Optional[str]:
        if src not in self._allocations:
            return f"extend of non-allocated {src:#x}"
        del self._allocations[src]
        if self.overlaps(dst, size):
            self._allocations[src] = size  # restore for debuggability
            return f"extended allocation [{dst:#x}, +{size}) overlaps"
        self._allocations[dst] = size
        return None

    def copy(self) -> "AllocationMap":
        clone = AllocationMap()
        clone._allocations = dict(self._allocations)
        return clone


def _violation(error: Optional[str]) -> Optional[Violation]:
    return None if error is None else Violation(0, "memory-safety", error)


class MemorySafetyPolicy(Policy):
    """Verifier-side interpretation of the ``ALLOCATION_*`` messages."""

    name = "memory-safety"

    def __init__(self) -> None:
        self.allocations = AllocationMap()

    def _create(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        return _violation(self.allocations.create(arg0, arg1))

    def _check(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        if self.allocations.containing(arg0) is None:
            return _violation(f"access at {arg0:#x} is out-of-bounds "
                              f"or use-after-free")
        return None

    def _check_base(self, arg0: int, arg1: int,
                    aux: int) -> Optional[Violation]:
        first = self.allocations.containing(arg0)
        second = self.allocations.containing(arg1)
        if first is None or second is None or first != second:
            return _violation(f"addresses {arg0:#x} and {arg1:#x} "
                              f"are not within the same live allocation")
        return None

    def _extend(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        return _violation(self.allocations.extend(arg0, arg1, aux))

    def _destroy(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        return _violation(self.allocations.destroy(arg0))

    def _destroy_all(self, arg0: int, arg1: int,
                     aux: int) -> Optional[Violation]:
        return _violation(self.allocations.destroy_all(arg0, aux))

    HANDLERS = {
        int(Op.ALLOCATION_CREATE): _create,
        int(Op.ALLOCATION_CHECK): _check,
        int(Op.ALLOCATION_CHECK_BASE): _check_base,
        int(Op.ALLOCATION_EXTEND): _extend,
        int(Op.ALLOCATION_DESTROY): _destroy,
        int(Op.ALLOCATION_DESTROY_ALL): _destroy_all,
    }

    def clone(self) -> "MemorySafetyPolicy":
        child = MemorySafetyPolicy()
        child.allocations = self.allocations.copy()
        return child

    def entry_count(self) -> int:
        return len(self.allocations)

    def entries_ref(self):
        return self.allocations
