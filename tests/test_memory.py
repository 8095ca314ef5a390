"""Tests for the simulated paged memory (repro.sim.memory)."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.memory import (
    AMRWriteFault,
    Mapping,
    Memory,
    PAGE_SIZE,
    PROT_AMR,
    PROT_EXEC,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
    WORD_SIZE,
    align_up,
    align_word,
    page_of,
)

RW = PROT_READ | PROT_WRITE
BASE = 0x10000


@pytest.fixture
def memory():
    mem = Memory()
    mem.map_region(BASE, PAGE_SIZE * 4, RW, "test")
    return mem


class TestMapping:
    def test_map_and_classify(self, memory):
        mapping = memory.mapping_at(BASE + 100)
        assert mapping is not None and mapping.name == "test"

    def test_unmapped_address_has_no_mapping(self, memory):
        assert memory.mapping_at(0x9999_0000) is None

    def test_map_requires_page_alignment(self):
        with pytest.raises(ValueError):
            Memory().map_region(BASE + 1, PAGE_SIZE, RW)

    def test_map_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Memory().map_region(BASE, 0, RW)

    def test_map_rejects_overlap(self, memory):
        with pytest.raises(ValueError):
            memory.map_region(BASE + PAGE_SIZE, PAGE_SIZE, RW, "overlap")

    def test_size_rounds_up_to_pages(self):
        mem = Memory()
        mapping = mem.map_region(BASE, 100, RW)
        assert mapping.size == PAGE_SIZE

    def test_unmap_clears_pages_and_contents(self, memory):
        memory.store(BASE, 42)
        memory.unmap_region(BASE)
        with pytest.raises(SegmentationFault):
            memory.load(BASE)

    def test_unmap_unknown_start_raises(self, memory):
        with pytest.raises(ValueError):
            memory.unmap_region(BASE + PAGE_SIZE)

    def test_protect_region_changes_permissions(self, memory):
        memory.protect_region(BASE, PAGE_SIZE, PROT_READ)
        assert memory.load(BASE) == 0
        with pytest.raises(SegmentationFault):
            memory.store(BASE, 1)

    def test_protect_unmapped_raises(self, memory):
        with pytest.raises(SegmentationFault):
            memory.protect_region(0x900_0000, PAGE_SIZE, RW)

    def test_protect_region_is_all_or_nothing(self):
        # The range runs one page past the mapping: the call fails on
        # that page before changing any other, and bumps no epoch.
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, RW)
        epoch = mem.prot_epoch
        with pytest.raises(SegmentationFault) as fault:
            mem.protect_region(BASE, 2 * PAGE_SIZE, PROT_READ)
        assert fault.value.address == BASE + PAGE_SIZE
        assert mem.prot_of(BASE) == RW
        assert mem.prot_epoch == epoch
        mem.store(BASE, 1)


class TestAccess:
    def test_store_load_roundtrip(self, memory):
        memory.store(BASE + 8, 0xDEAD)
        assert memory.load(BASE + 8) == 0xDEAD

    def test_fresh_memory_reads_zero(self, memory):
        assert memory.load(BASE + 64) == 0

    def test_unaligned_access_uses_containing_word(self, memory):
        memory.store(BASE + 3, 7)
        assert memory.load(BASE) == 7

    def test_read_requires_read_permission(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault):
            mem.load(BASE)

    def test_write_requires_write_permission(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_READ)
        with pytest.raises(SegmentationFault):
            mem.store(BASE, 1)

    def test_unmapped_read_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.load(0x5000_0000)

    def test_fetch_requires_exec(self, memory):
        with pytest.raises(SegmentationFault):
            memory.fetch(BASE)

    def test_fetch_from_exec_page(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_READ | PROT_EXEC)
        assert mem.fetch(BASE) == 0

    def test_physical_access_bypasses_protections(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_NONE)
        mem.store_physical(BASE, 99)
        assert mem.load_physical(BASE) == 99


class TestAMR:
    """The appendable-memory-region protection (section 2.3.2)."""

    @pytest.fixture
    def amr(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_READ | PROT_AMR, "amr")
        return mem

    def test_ordinary_store_to_amr_rejected_by_mmu(self, amr):
        with pytest.raises(AMRWriteFault):
            amr.store(BASE, 1)

    def test_append_store_allowed_on_amr(self, amr):
        amr.append_store(BASE, 1234)
        assert amr.load(BASE) == 1234

    def test_append_store_rejected_on_ordinary_pages(self, memory):
        with pytest.raises(SegmentationFault):
            memory.append_store(BASE, 1)

    def test_amr_pages_remain_readable(self, amr):
        amr.append_store(BASE + 8, 5)
        assert amr.load(BASE + 8) == 5


class TestBlockOps:
    def test_store_load_block(self, memory):
        memory.store_block(BASE, [1, 2, 3])
        assert memory.load_block(BASE, 3) == [1, 2, 3]

    def test_copy_block_disjoint(self, memory):
        memory.store_block(BASE, [10, 20, 30])
        memory.copy_block(BASE, BASE + 64, 3)
        assert memory.load_block(BASE + 64, 3) == [10, 20, 30]

    def test_copy_block_overlapping_memmove_semantics(self, memory):
        memory.store_block(BASE, [1, 2, 3, 4])
        memory.copy_block(BASE, BASE + WORD_SIZE, 4)
        assert memory.load_block(BASE + WORD_SIZE, 4) == [1, 2, 3, 4]

    def test_zero_block(self, memory):
        memory.store_block(BASE, [9, 9, 9])
        memory.zero_block(BASE, 3)
        assert memory.load_block(BASE, 3) == [0, 0, 0]


class TestHelpers:
    def test_page_of(self):
        assert page_of(0) == 0
        assert page_of(PAGE_SIZE) == 1
        assert page_of(PAGE_SIZE - 1) == 0

    def test_align_up(self):
        assert align_up(1) == PAGE_SIZE
        assert align_up(PAGE_SIZE) == PAGE_SIZE
        assert align_up(0) == 0
        assert align_up(13, 8) == 16

    def test_align_word(self):
        assert align_word(13) == 8
        assert align_word(8) == 8


@settings(max_examples=60)
@given(values=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                       min_size=1, max_size=32),
       shift=st.integers(min_value=-16, max_value=16))
def test_copy_block_matches_python_semantics(values, shift):
    """memmove semantics hold for any overlap direction and distance."""
    mem = Memory()
    mem.map_region(0x20000, PAGE_SIZE * 2, RW)
    src = 0x20000 + 64 * WORD_SIZE
    dst = src + shift * WORD_SIZE
    mem.store_block(src, values)
    expected_src_view = list(values)
    mem.copy_block(src, dst, len(values))
    assert mem.load_block(dst, len(values)) == expected_src_view


@settings(max_examples=60)
@given(words=st.dictionaries(st.integers(min_value=0, max_value=255),
                             st.integers(min_value=0, max_value=2**64 - 1),
                             max_size=24))
def test_independent_words_do_not_interfere(words):
    mem = Memory()
    mem.map_region(0x30000, PAGE_SIZE, RW)
    for offset, value in words.items():
        mem.store(0x30000 + offset * WORD_SIZE, value)
    for offset, value in words.items():
        assert mem.load(0x30000 + offset * WORD_SIZE) == value


class EagerMemory:
    """Reference model: one protection entry per page, written at map time.

    The page table ``Memory`` kept before protections were filled on
    demand, with an all-or-nothing ``protect_region``.  It models only
    the protection-checked surface, with the same results and faults.
    """

    def __init__(self):
        self.words = {}
        self.page_prot = {}
        self.mappings = {}  # start -> (end, name), in mapping order
        self.prot_epoch = 0

    def map_region(self, start, size, prot, name=""):
        if start % PAGE_SIZE != 0:
            raise ValueError(f"mapping start {start:#x} is not page-aligned")
        if size <= 0:
            raise ValueError("mapping size must be positive")
        end = start + align_up(size)
        for other, (other_end, other_name) in self.mappings.items():
            if start < other_end and other < end:
                raise ValueError(
                    f"mapping {name!r} at {start:#x} overlaps {other_name!r}")
        self.mappings[start] = (end, name)
        for page in range(page_of(start), page_of(end)):
            self.page_prot[page] = prot
        self.prot_epoch += 1
        return Mapping(start, end - start, prot, name)

    def unmap_region(self, start):
        if start not in self.mappings:
            raise ValueError(f"no mapping starts at {start:#x}")
        end, _ = self.mappings.pop(start)
        for page in range(page_of(start), page_of(end)):
            del self.page_prot[page]
        for word in range(start, end, WORD_SIZE):
            self.words.pop(word, None)
        self.prot_epoch += 1

    def protect_region(self, start, size, prot):
        pages = range(page_of(start), page_of(start + size - 1) + 1)
        for page in pages:
            if page not in self.page_prot:
                raise SegmentationFault(page * PAGE_SIZE, "mprotect", "unmapped")
        for page in pages:
            self.page_prot[page] = prot
        self.prot_epoch += 1

    def prot_of(self, address):
        return self.page_prot.get(page_of(address), PROT_NONE)

    def span_is_amr(self, start, end):
        return all(self.page_prot.get(page, PROT_NONE) & PROT_AMR
                   for page in range(page_of(start), page_of(end - 1) + 1))

    def load(self, address):
        if not self.prot_of(address) & PROT_READ:
            raise SegmentationFault(address, "read", "page not readable")
        return self.words.get(align_word(address), 0)

    def fetch(self, address):
        if not self.prot_of(address) & PROT_EXEC:
            raise SegmentationFault(address, "exec", "page not executable")
        return self.words.get(align_word(address), 0)

    def store(self, address, value):
        prot = self.prot_of(address)
        if prot & PROT_AMR:
            raise AMRWriteFault(address)
        if not prot & PROT_WRITE:
            raise SegmentationFault(address, "write", "page not writable")
        self.words[align_word(address)] = value

    def append_store(self, address, value):
        if not self.prot_of(address) & PROT_AMR:
            raise SegmentationFault(address, "append", "target is not an AMR page")
        self.words[align_word(address)] = value

    def _pages(self, address, values):
        address = align_word(address)
        end = address + len(values) * WORD_SIZE
        return address, range(page_of(address), page_of(end - 1) + 1)

    def store_words(self, address, values):
        if not values:
            return
        address, pages = self._pages(address, values)
        for page in pages:
            prot = self.page_prot.get(page, PROT_NONE)
            if prot & PROT_AMR:
                raise AMRWriteFault(page * PAGE_SIZE)
            if not prot & PROT_WRITE:
                raise SegmentationFault(page * PAGE_SIZE, "write",
                                        "page not writable")
        for i, value in enumerate(values):
            self.words[address + i * WORD_SIZE] = value

    def append_store_words(self, address, values):
        if not values:
            return
        address, pages = self._pages(address, values)
        for page in pages:
            if not self.page_prot.get(page, PROT_NONE) & PROT_AMR:
                raise SegmentationFault(page * PAGE_SIZE, "append",
                                        "target is not an AMR page")
        for i, value in enumerate(values):
            self.words[address + i * WORD_SIZE] = value


#: Mappings start in pages [0, WINDOW) above BASE.
WINDOW = 8
#: Weighted towards writable and AMR pages, which the stores need.
PROTS = [PROT_NONE, PROT_READ, RW, RW, PROT_READ | PROT_EXEC,
         PROT_READ | PROT_AMR, PROT_READ | PROT_AMR, RW | PROT_EXEC]
WORDS_PER_PAGE = PAGE_SIZE // WORD_SIZE

#: An address relative to a mapping picked when the operation runs: a
#: page from the one before it to a few past its start (its own pages,
#: a neighbour or a gap), and a word biased to the page's end.
_addresses = st.tuples(
    st.integers(0, 7),
    st.one_of(st.just(0), st.integers(-1, 4)),
    st.one_of(st.just(0), st.integers(0, WORDS_PER_PAGE - 1),
              st.integers(WORDS_PER_PAGE - 16, WORDS_PER_PAGE - 1)),
    st.sampled_from([0, 0, 0, 3]))
#: The last few words before a page of the picked mapping, where a
#: multi-word access straddles the edge into that page.
_edge_addresses = st.tuples(
    st.integers(0, 7),
    st.one_of(st.just(1), st.integers(-1, 4)),
    st.integers(-8, -1),
    st.just(0))
_sizes = st.one_of(st.integers(1, 4).map(lambda pages: pages * PAGE_SIZE),
                   st.integers(1, 4 * PAGE_SIZE))
_maps = st.tuples(st.just("map"), st.integers(0, WINDOW - 1),
                  st.sampled_from([0, 0, 0, WORD_SIZE]), _sizes,
                  st.sampled_from(PROTS))
_operations = st.one_of(
    _maps,
    st.tuples(st.just("unmap"), st.integers(0, WINDOW), st.booleans()),
    st.tuples(st.just("protect"), _addresses, _sizes, st.sampled_from(PROTS)),
    st.tuples(st.sampled_from(["load", "fetch"]), _addresses),
    st.tuples(st.sampled_from(["store", "append_store"]), _addresses,
              st.integers(1, 2**64 - 1)),
    st.tuples(st.sampled_from(["store_words", "append_store_words"]),
              st.one_of(_addresses, _edge_addresses), st.integers(0, 16)),
    st.tuples(st.just("span_is_amr"), _addresses, _sizes),
)


def _call(operation, reference):
    """The method name and arguments ``operation`` stands for, resolved
    against the mappings of ``reference`` before either side runs."""
    starts = list(reference.mappings) or [BASE]

    def address(spec):
        index, page, word, byte = spec
        return (starts[index % len(starts)] + page * PAGE_SIZE
                + word * WORD_SIZE + byte)

    kind, *args = operation
    if kind == "map":
        page, misalign, size, prot = args
        return "map_region", (BASE + page * PAGE_SIZE + misalign, size, prot,
                              f"m{page}")
    if kind == "unmap":
        index, existing = args
        start = (starts[index % len(starts)] if existing
                 else BASE + index * PAGE_SIZE)
        return "unmap_region", (start,)
    if kind == "protect":
        spec, size, prot = args
        return "protect_region", (address(spec), size, prot)
    if kind in ("store_words", "append_store_words"):
        spec, n_words = args
        start = address(spec)
        return kind, (start, [start + i for i in range(n_words)])
    if kind == "span_is_amr":
        spec, size = args
        start = address(spec)
        return kind, (start, start + size)
    return kind, (address(args[0]), *args[1:])


def _run(target, name, args):
    try:
        return ("ok", getattr(target, name)(*args))
    except (SegmentationFault, ValueError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=200, deadline=None)
@given(layout=st.lists(_maps, min_size=1, max_size=4),
       operations=st.lists(_operations, min_size=8, max_size=40))
def test_demand_filled_protections_match_eager_page_table(layout, operations):
    """Demand filling is invisible: every result, fault and epoch matches
    the eager reference, and the cache holds only live-mapping pages."""
    mem = Memory()
    ref = EagerMemory()
    for operation in layout + operations:
        name, args = _call(operation, ref)
        assert _run(mem, name, args) == _run(ref, name, args), operation
        assert mem.prot_epoch == ref.prot_epoch
        assert [(m.start, m.end, m.name) for m in mem.mappings()] == [
            (start, end, label) for start, (end, label) in ref.mappings.items()]
        live = [range(page_of(start), page_of(end))
                for start, (end, _) in ref.mappings.items()]
        assert all(any(page in pages for pages in live)
                   for page in mem._page_prot)
        # Probe a copy, so the probes fill no cache entry the next
        # operation would otherwise have to fill itself.
        probe = copy.deepcopy(mem)
        for pages in live:
            for page in range(pages.start - 1, pages.stop + 1):
                address = page * PAGE_SIZE
                assert probe.prot_of(address) == ref.prot_of(address)
