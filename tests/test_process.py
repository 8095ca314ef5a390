"""Tests for processes, heaps, and stacks (repro.sim.process)."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.memory import (
    Memory,
    PAGE_SIZE,
    PROT_EXEC,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
)
from repro.sim.process import (
    BSS_BASE,
    DATA_BASE,
    HEAP_BASE,
    Heap,
    HeapError,
    Process,
    RODATA_BASE,
    SEGMENT_SIZES,
    STACK_LIMIT,
    STACK_TOP,
    TEXT_BASE,
)


class TestHeap:
    @pytest.fixture
    def heap(self):
        return Heap(HEAP_BASE, 1 << 20)

    def test_malloc_returns_distinct_adjacent_blocks(self, heap):
        a = heap.malloc(32)
        b = heap.malloc(16)
        assert a == HEAP_BASE
        assert b == a + 32  # bump allocation: adjacency

    def test_malloc_word_aligns_sizes(self, heap):
        a = heap.malloc(5)
        b = heap.malloc(8)
        assert b == a + 8

    def test_malloc_rejects_nonpositive(self, heap):
        with pytest.raises(HeapError):
            heap.malloc(0)

    def test_malloc_exhaustion(self):
        heap = Heap(HEAP_BASE, 64)
        heap.malloc(64)
        with pytest.raises(HeapError):
            heap.malloc(8)

    def test_free_removes_allocation(self, heap):
        a = heap.malloc(32)
        heap.free(a)
        assert heap.allocation_of(a) is None

    def test_double_free_raises(self, heap):
        a = heap.malloc(32)
        heap.free(a)
        with pytest.raises(HeapError):
            heap.free(a)

    def test_free_of_wild_pointer_raises(self, heap):
        with pytest.raises(HeapError):
            heap.free(0x1234)

    def test_allocation_of_interior_pointer(self, heap):
        a = heap.malloc(32)
        allocation = heap.allocation_of(a + 16)
        assert allocation is not None and allocation.address == a

    def test_no_recycling_by_default(self, heap):
        a = heap.malloc(32)
        heap.free(a)
        b = heap.malloc(32)
        assert b != a  # deterministic UAF semantics

    def test_recycling_reuses_freed_block(self):
        heap = Heap(HEAP_BASE, 1 << 20, recycle=True)
        a = heap.malloc(32)
        heap.free(a)
        assert heap.malloc(32) == a

    def test_realloc_shrink_in_place(self, heap):
        a = heap.malloc(64)
        assert heap.realloc(a, 32) == a

    def test_realloc_growth_moves(self, heap):
        a = heap.malloc(32)
        b = heap.realloc(a, 128)
        assert b != a

    def test_realloc_wild_pointer_raises(self, heap):
        with pytest.raises(HeapError):
            heap.realloc(0x42, 64)


class TestProcess:
    def test_segments_are_mapped(self):
        process = Process()
        for region, prot in [("text", PROT_READ), ("data", PROT_WRITE),
                             ("bss", PROT_WRITE), ("heap", PROT_WRITE),
                             ("stack", PROT_WRITE)]:
            mapping = next(m for m in process.memory.mappings()
                           if m.name == region)
            assert mapping.prot & prot

    def test_rodata_is_readonly(self):
        process = Process()
        rodata = next(m for m in process.memory.mappings()
                      if m.name == "rodata")
        with pytest.raises(SegmentationFault):
            process.memory.store(rodata.start, 1)

    def test_pids_are_unique(self):
        assert Process().pid != Process().pid

    def test_push_pop_frame(self):
        process = Process()
        top = process.stack_pointer
        base = process.push_frame(64)
        assert base == top - 64
        process.pop_frame(64)
        assert process.stack_pointer == top

    def test_stack_overflow_detected(self):
        process = Process()
        with pytest.raises(SegmentationFault):
            process.push_frame(STACK_TOP - STACK_LIMIT + 8)

    def test_stack_underflow_detected(self):
        process = Process()
        with pytest.raises(SegmentationFault):
            process.pop_frame(64)

    def test_region_classification(self):
        process = Process()
        assert process.region_of(process.heap.malloc(16)) == "heap"
        assert process.region_of(process.stack_pointer - 8) == "stack"
        assert process.region_of(0x6666_6666_0000) == "unmapped"

    def test_place_static_advances_cursor(self):
        process = Process()
        a = process.place_static("bss", 16)
        b = process.place_static("bss", 16)
        assert b == a + 16

    def test_mmap_anonymous_with_guard_gap(self):
        process = Process()
        a = process.mmap_anonymous(4096, PROT_READ | PROT_WRITE)
        b = process.mmap_anonymous(4096, PROT_READ | PROT_WRITE)
        assert b >= a + 4096 + 4096  # guard gap between mappings

    def test_stack_writes_work(self):
        process = Process()
        base = process.push_frame(16)
        process.memory.store(base, 77)
        assert process.memory.load(base) == 77


def _allocated_by(build):
    """Bytes allocated by ``build()`` that are still live afterwards."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestFootprint:
    """Mapping records a region; it writes no per-page table."""

    def test_process_construction_allocates_per_mapping(self):
        Process()  # first construction may set up lazy module state
        processes = []
        allocated = _allocated_by(
            lambda: processes.extend(Process() for _ in range(100)))
        assert allocated / 100 < 16 * 1024

    def test_mapping_a_gibibyte_allocates_no_page_table(self):
        memory = Memory()
        allocated = _allocated_by(lambda: memory.map_region(
            HEAP_BASE, 1 << 30, PROT_READ | PROT_WRITE, "huge"))
        assert allocated < 64 * 1024


class TestSharedLayout:
    """Every process starts from one immutable segment layout."""

    def test_one_process_changing_its_mappings_leaves_another_alone(self):
        first, second = Process(), Process()
        mappings = list(second.memory.mappings())
        prots = [second.memory.prot_of(m.start) for m in mappings]
        anon = first.mmap_anonymous(PAGE_SIZE, PROT_READ | PROT_WRITE)
        first.memory.protect_region(DATA_BASE, PAGE_SIZE, PROT_READ)
        first.memory.unmap_region(BSS_BASE)
        assert first.memory.prot_of(DATA_BASE) == PROT_READ
        assert first.region_of(BSS_BASE) == "unmapped"
        assert list(second.memory.mappings()) == mappings
        assert [second.memory.prot_of(m.start) for m in mappings] == prots
        assert second.memory.prot_of(anon) == PROT_NONE
        assert second.region_of(anon) == "unmapped"

    def test_mapping_fields_cannot_be_assigned(self):
        mapping = next(Process().memory.mappings())
        with pytest.raises(dataclasses.FrozenInstanceError):
            mapping.prot = PROT_READ | PROT_WRITE | PROT_EXEC

    def test_fresh_image_equals_six_map_region_calls(self):
        reference = Memory()
        reference.map_region(TEXT_BASE, SEGMENT_SIZES["text"],
                             PROT_READ | PROT_EXEC, "text")
        reference.map_region(RODATA_BASE, SEGMENT_SIZES["rodata"],
                             PROT_READ, "rodata")
        reference.map_region(DATA_BASE, SEGMENT_SIZES["data"],
                             PROT_READ | PROT_WRITE, "data")
        reference.map_region(BSS_BASE, SEGMENT_SIZES["bss"],
                             PROT_READ | PROT_WRITE, "bss")
        reference.map_region(HEAP_BASE, SEGMENT_SIZES["heap"],
                             PROT_READ | PROT_WRITE, "heap")
        reference.map_region(STACK_LIMIT, STACK_TOP - STACK_LIMIT,
                             PROT_READ | PROT_WRITE, "stack")
        memory = Process().memory
        assert list(memory.mappings()) == list(reference.mappings())
        assert memory.prot_epoch == reference.prot_epoch == 6
        for mapping in reference.mappings():
            for address in (mapping.start, mapping.end - PAGE_SIZE):
                assert memory.prot_of(address) == reference.prot_of(address)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(["malloc", "free"]),
                          st.integers(min_value=1, max_value=256)),
                max_size=40))
def test_heap_live_set_invariants(operations):
    """Live allocations never overlap and free tracks malloc exactly."""
    heap = Heap(HEAP_BASE, 1 << 22)
    live = []
    for op, size in operations:
        if op == "malloc":
            address = heap.malloc(size)
            live.append(address)
        elif live:
            heap.free(live.pop())
    intervals = sorted((a.address, a.address + a.size)
                       for a in heap.live.values())
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, "live allocations overlap"
    assert len(heap.live) == len(live)
