"""Simulated user processes: address-space layout, heap, and stack.

Each :class:`Process` owns a private :class:`~repro.sim.memory.Memory`
(modelling inter-process isolation, which HerQules relies on for
protecting verifier state) plus the allocator state the workloads and
attack suite need: a segment layout mirroring a typical ELF image
(text / rodata / data / bss / heap / stack) so that RIPE-style attacks
can target each overflow origin the paper's Table 5 distinguishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sim.cycles import CycleAccount
from repro.sim.memory import (
    Mapping,
    Memory,
    PAGE_SIZE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    WORD_SIZE,
    align_up,
    SegmentationFault,
)

# Canonical segment bases (byte addresses), loosely following the classic
# x86_64 small-code-model layout.  Distinct bases let attacks and policies
# classify an address by region.
TEXT_BASE = 0x0040_0000
RODATA_BASE = 0x0060_0000
DATA_BASE = 0x0070_0000
BSS_BASE = 0x0080_0000
HEAP_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_0000
STACK_LIMIT = 0x7FF0_0000  # 1 MB default stack
MMAP_BASE = 0x2000_0000

SEGMENT_SIZES = {
    "text": 0x10_0000,
    "rodata": 0x8_0000,
    "data": 0x8_0000,
    "bss": 0x8_0000,
    "heap": 0x100_0000,
}


def _segment_layout() -> Tuple[Mapping, ...]:
    """The six segments every process starts with, mapped once on a
    scratch memory so the alignment and overlap checks still run."""
    memory = Memory()
    memory.map_region(TEXT_BASE, SEGMENT_SIZES["text"],
                      PROT_READ | PROT_EXEC, "text")
    memory.map_region(RODATA_BASE, SEGMENT_SIZES["rodata"],
                      PROT_READ, "rodata")
    memory.map_region(DATA_BASE, SEGMENT_SIZES["data"],
                      PROT_READ | PROT_WRITE, "data")
    memory.map_region(BSS_BASE, SEGMENT_SIZES["bss"],
                      PROT_READ | PROT_WRITE, "bss")
    memory.map_region(HEAP_BASE, SEGMENT_SIZES["heap"],
                      PROT_READ | PROT_WRITE, "heap")
    memory.map_region(STACK_LIMIT, STACK_TOP - STACK_LIMIT,
                      PROT_READ | PROT_WRITE, "stack")
    return tuple(memory.mappings())


#: Shared by every process's fresh memory image; mappings are immutable,
#: and each process gets its own mapping list and page table.
SEGMENT_LAYOUT = _segment_layout()


class HeapError(Exception):
    """Invalid heap operation (double free, bad pointer, exhaustion)."""


@dataclass
class Allocation:
    """A live heap allocation."""

    address: int
    size: int


class Heap:
    """A bump allocator with a live-allocation table.

    Freed chunks are *not* recycled by default, which keeps use-after-free
    deterministic for the attack suite; :attr:`recycle` turns on immediate
    reuse of the most recent free (enough to demonstrate use-after-free
    exploitation, where a stale pointer aliases a new object).
    """

    def __init__(self, base: int, size: int, recycle: bool = False) -> None:
        self.base = base
        self.limit = base + size
        self.cursor = base
        self.recycle = recycle
        self.live: Dict[int, Allocation] = {}
        self._free_list: list = []

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes (word aligned); returns the address."""
        if size <= 0:
            raise HeapError(f"malloc of non-positive size {size}")
        size = align_up(size, WORD_SIZE)
        if self.recycle:
            for i, freed in enumerate(self._free_list):
                if freed.size >= size:
                    del self._free_list[i]
                    allocation = Allocation(freed.address, size)
                    self.live[allocation.address] = allocation
                    return allocation.address
        if self.cursor + size > self.limit:
            raise HeapError("out of heap memory")
        address = self.cursor
        self.cursor += size
        self.live[address] = Allocation(address, size)
        return address

    def free(self, address: int) -> Allocation:
        """Free the allocation at ``address``; raises on double free."""
        allocation = self.live.pop(address, None)
        if allocation is None:
            raise HeapError(f"free of non-allocated address {address:#x}")
        if self.recycle:
            self._free_list.append(allocation)
        return allocation

    def realloc(self, address: int, new_size: int) -> int:
        """Grow/shrink an allocation; may move it (returns new address)."""
        allocation = self.live.get(address)
        if allocation is None:
            raise HeapError(f"realloc of non-allocated address {address:#x}")
        new_size = align_up(new_size, WORD_SIZE)
        if new_size <= allocation.size:
            allocation.size = new_size
            return address
        # Always move on growth: this is the interesting case for the
        # Pointer-Block-Move message and for CPI's missing-update bug.
        new_address = self.malloc(new_size)
        self.live[address] = allocation  # malloc may have consumed the slot
        return new_address

    def allocation_of(self, address: int) -> Optional[Allocation]:
        """Return the live allocation containing ``address``, if any."""
        for allocation in self.live.values():
            if allocation.address <= address < allocation.address + allocation.size:
                return allocation
        return None


_pid_counter = itertools.count(1000)


class Process:
    """A simulated user process.

    Holds the private memory image, the segment layout, the heap, the
    stack pointer, and the cycle ledger.  The interpreter
    (:mod:`repro.sim.cpu`) executes compiled IR against this state; the
    kernel (:mod:`repro.sim.kernel`) manages lifecycle and syscalls.
    """

    def __init__(self, name: str = "a.out", pid: Optional[int] = None,
                 heap_recycle: bool = False) -> None:
        self.name = name
        self.pid = pid if pid is not None else next(_pid_counter)
        self.memory = Memory(SEGMENT_LAYOUT)
        self.cycles = CycleAccount()
        self.exited = False
        self.exit_status: Optional[int] = None
        self.killed_reason: Optional[str] = None

        self.heap = Heap(HEAP_BASE, SEGMENT_SIZES["heap"], recycle=heap_recycle)
        self.stack_pointer = STACK_TOP
        self._mmap_cursor = MMAP_BASE
        #: Cursors for static data placement by the loader.
        self._segment_cursors = {
            "rodata": RODATA_BASE,
            "data": DATA_BASE,
            "bss": BSS_BASE,
            "text": TEXT_BASE,
        }

    # -- stack ---------------------------------------------------------------

    def push_frame(self, size: int) -> int:
        """Reserve ``size`` bytes of stack; returns the new frame base."""
        size = align_up(size, WORD_SIZE)
        new_sp = self.stack_pointer - size
        if new_sp < STACK_LIMIT:
            raise SegmentationFault(new_sp, "write", "stack overflow")
        self.stack_pointer = new_sp
        return new_sp

    def pop_frame(self, size: int) -> None:
        """Release ``size`` bytes of stack."""
        size = align_up(size, WORD_SIZE)
        self.stack_pointer += size
        if self.stack_pointer > STACK_TOP:
            raise SegmentationFault(self.stack_pointer, "write", "stack underflow")

    # -- static data ----------------------------------------------------------

    def place_static(self, segment: str, size: int) -> int:
        """Reserve ``size`` bytes in a static segment (loader use)."""
        cursor = self._segment_cursors[segment]
        size = align_up(size, WORD_SIZE)
        self._segment_cursors[segment] = cursor + size
        return cursor

    # -- anonymous mappings ----------------------------------------------------

    def mmap_anonymous(self, size: int, prot: int, name: str = "anon") -> int:
        """Allocate a fresh anonymous mapping; returns its base."""
        base = self._mmap_cursor
        size = align_up(size, PAGE_SIZE)
        self.memory.map_region(base, size, prot, name)
        self._mmap_cursor = base + size + PAGE_SIZE  # guard gap
        return base

    # -- region classification --------------------------------------------------

    def region_of(self, address: int) -> str:
        """Classify ``address`` into text/rodata/data/bss/heap/stack/mmap."""
        mapping = self.memory.mapping_at(address)
        if mapping is None:
            return "unmapped"
        return mapping.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process pid={self.pid} name={self.name!r} exited={self.exited}>"
