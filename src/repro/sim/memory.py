"""Simulated process memory with page-granularity protections.

The paper's target machine is an x86_64 host whose MMU enforces
inter-process isolation and, under AppendWrite-uarch, rejects ordinary
writes to *appendable memory region* (AMR) pages (section 2.3.2).  This
module provides the equivalent functional model: a sparse, word-granular
memory with per-page protection bits, used by every simulated process.

Protections are filled on demand.  Mapping a region records one
:class:`Mapping`; the first protection-checked access to a page looks
its protection up in the mapping list and caches it per page, so
building a process costs O(mappings), not O(pages), while a repeat
access stays one dict probe.  ``Memory.prot_epoch`` is bumped only on
map, unmap or protect, never on a cache fill.

Addresses are byte addresses, but storage is word-granular (8-byte words,
matching the paper's 8-byte operation arguments).  This is sufficient for
every policy in the paper, all of which reason about pointer-sized values.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

PAGE_SIZE = 4096
WORD_SIZE = 8

#: Page protection bits.
PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4
#: AMR pages may only be written via the AppendWrite instruction
#: (kernel/AppendWrite hardware bypass normal protection checks).
PROT_AMR = 8


class MemoryError_(Exception):
    """Base class for simulated memory faults."""


class SegmentationFault(MemoryError_):
    """Access to unmapped memory or a protection violation.

    Equivalent to SIGSEGV delivered by the host MMU.
    """

    def __init__(self, address: int, access: str, reason: str = "") -> None:
        self.address = address
        self.access = access
        self.reason = reason
        detail = f" ({reason})" if reason else ""
        super().__init__(f"segfault: {access} at {address:#x}{detail}")


class AMRWriteFault(SegmentationFault):
    """Ordinary (non-AppendWrite) store targeting an AMR page.

    Under AppendWrite-uarch, "other unprivileged writes to AMR memory
    pages must be rejected by the MMU" (section 2.3.2).
    """

    def __init__(self, address: int) -> None:
        super().__init__(address, "write", "ordinary store to AMR page")


def page_of(address: int) -> int:
    """Return the page number containing ``address``."""
    return address // PAGE_SIZE


def align_up(address: int, alignment: int = PAGE_SIZE) -> int:
    """Round ``address`` up to the next multiple of ``alignment``."""
    return (address + alignment - 1) // alignment * alignment


def align_word(address: int) -> int:
    """Round ``address`` down to word granularity."""
    return address - (address % WORD_SIZE)


@dataclass(frozen=True)
class Mapping:
    """A contiguous virtual mapping, as created by ``mmap``/``brk``.

    Immutable, so one mapping can sit in many memories' mapping lists
    (every process shares its segment layout);
    :meth:`Memory.protect_region` changes page protections, never a
    mapping.
    """

    start: int
    size: int
    prot: int
    name: str = ""

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end


class Memory:
    """Sparse word-granular memory with page protections.

    Words default to zero, like freshly mapped anonymous pages.  All
    reads/writes check page protections; the ``physical`` accessors
    bypass them and model DMA (FPGA writes to pinned host memory) or
    privileged kernel access.

    Page protections are filled on demand from the mapping list: a
    page's first protection-checked access caches its mapping's bits in
    a per-page table, which :meth:`protect_region` writes through and
    :meth:`unmap_region` evicts.  Unmapped pages are never cached.
    """

    def __init__(self, layout: Sequence[Mapping] = ()) -> None:
        """``layout`` seeds the mapping list, as if each mapping had
        been passed to :meth:`map_region` in order; it must come from
        :meth:`mappings` of a memory that validated it."""
        self._words: Dict[int, int] = {}
        #: Per-page protection cache: holds only pages of live mappings,
        #: filled by :meth:`_prot` and written by :meth:`protect_region`.
        self._page_prot: Dict[int, int] = {}
        self._mappings: List[Mapping] = list(layout)
        #: Bumped on every protection change (map/unmap/mprotect), never
        #: on a cache fill, so callers that pre-validated a page range —
        #: the AppendWrite datapath — know when their validation went
        #: stale.
        self.prot_epoch = len(self._mappings)

    # -- mapping management -------------------------------------------------

    def map_region(self, start: int, size: int, prot: int, name: str = "") -> Mapping:
        """Map ``[start, start + size)`` with protection ``prot``.

        ``start`` must be page-aligned; ``size`` is rounded up to a whole
        number of pages.  Overlapping an existing mapping is an error,
        mirroring ``MAP_FIXED_NOREPLACE`` semantics.
        """
        if start % PAGE_SIZE != 0:
            raise ValueError(f"mapping start {start:#x} is not page-aligned")
        if size <= 0:
            raise ValueError("mapping size must be positive")
        size = align_up(size)
        new = Mapping(start, size, prot, name)
        for existing in self._mappings:
            if new.start < existing.end and existing.start < new.end:
                raise ValueError(
                    f"mapping {name!r} at {start:#x} overlaps {existing.name!r}"
                )
        self._mappings.append(new)
        self.prot_epoch += 1
        return new

    def unmap_region(self, start: int) -> None:
        """Remove the mapping that begins at ``start`` and clear its pages."""
        for i, mapping in enumerate(self._mappings):
            if mapping.start == start:
                del self._mappings[i]
                for page in range(page_of(start), page_of(mapping.end - 1) + 1):
                    self._page_prot.pop(page, None)
                    base = page * PAGE_SIZE
                    for word in range(base, base + PAGE_SIZE, WORD_SIZE):
                        self._words.pop(word, None)
                self.prot_epoch += 1
                return
        raise ValueError(f"no mapping starts at {start:#x}")

    def protect_region(self, start: int, size: int, prot: int) -> None:
        """Change protections on pages covering ``[start, start + size)``.

        All or nothing: if any page of the range is unmapped, no page
        changes and :attr:`prot_epoch` stays put, so a pre-validated
        AppendWrite span is never silently downgraded.
        """
        pages = range(page_of(start), page_of(start + size - 1) + 1)
        page_prot = self._page_prot
        for page in pages:
            # _prot caches every mapped page it resolves, so a page still
            # absent from the cache afterwards is unmapped.
            self._prot(page)
            if page not in page_prot:
                raise SegmentationFault(page * PAGE_SIZE, "mprotect", "unmapped")
        for page in pages:
            page_prot[page] = prot
        self.prot_epoch += 1

    def mapping_at(self, address: int) -> Optional[Mapping]:
        """Return the mapping containing ``address``, if any."""
        for mapping in self._mappings:
            if mapping.contains(address):
                return mapping
        return None

    def mappings(self) -> Iterator[Mapping]:
        return iter(self._mappings)

    def _prot(self, page: int) -> int:
        """Protection bits of ``page``; the one place they are resolved.

        A cached page is one dict probe.  Otherwise the page's mapping
        supplies them and they are cached; an unmapped page reads as
        ``PROT_NONE`` and is not cached.
        """
        prot = self._page_prot.get(page)
        if prot is None:
            mapping = self.mapping_at(page * PAGE_SIZE)
            if mapping is None:
                return PROT_NONE
            prot = self._page_prot[page] = mapping.prot
        return prot

    def prot_of(self, address: int) -> int:
        """Return protection bits of the page containing ``address``."""
        return self._prot(address // PAGE_SIZE)

    def span_is_amr(self, start: int, end: int) -> bool:
        """True iff every page of ``[start, end)`` is ``PROT_AMR``.

        Lets the AppendWrite datapath validate its whole region once per
        :attr:`prot_epoch` instead of re-checking pages on every store.
        """
        resolve = self._prot
        return all(resolve(page) & PROT_AMR
                   for page in range(page_of(start), page_of(end - 1) + 1))

    # -- protected accessors (what program instructions use) ----------------

    def load(self, address: int) -> int:
        """Read the word at ``address`` subject to page protections."""
        prot = self._prot(address // PAGE_SIZE)
        if not prot & PROT_READ:
            raise SegmentationFault(address, "read", "page not readable")
        return self._words.get(align_word(address), 0)

    def store(self, address: int, value: int) -> None:
        """Write the word at ``address`` subject to page protections.

        AMR pages reject ordinary stores — only :meth:`append_store`
        (the AppendWrite datapath) may write them.
        """
        prot = self._prot(address // PAGE_SIZE)
        if prot & PROT_AMR:
            raise AMRWriteFault(address)
        if not prot & PROT_WRITE:
            raise SegmentationFault(address, "write", "page not writable")
        self._words[align_word(address)] = value

    def append_store(self, address: int, value: int) -> None:
        """AppendWrite datapath store: allowed on AMR pages.

        The hardware "bypass[es] the TLB check for writable memory pages
        in the AMR" (section 3.1.2); any non-AMR target is rejected so a
        misconfigured AppendAddr cannot scribble on ordinary memory.
        """
        prot = self._prot(address // PAGE_SIZE)
        if not prot & PROT_AMR:
            raise SegmentationFault(address, "append", "target is not an AMR page")
        self._words[align_word(address)] = value

    def fetch(self, address: int) -> int:
        """Instruction fetch: requires an executable page."""
        prot = self._prot(address // PAGE_SIZE)
        if not prot & PROT_EXEC:
            raise SegmentationFault(address, "exec", "page not executable")
        return self._words.get(align_word(address), 0)

    # -- privileged accessors (kernel / DMA) ---------------------------------

    def load_physical(self, address: int) -> int:
        """Privileged read bypassing protections (kernel or device DMA)."""
        return self._words.get(align_word(address), 0)

    def store_physical(self, address: int, value: int) -> None:
        """Privileged write bypassing protections (kernel or device DMA)."""
        self._words[align_word(address)] = value

    # -- bulk word accessors (message-stream fast paths) ----------------------

    def load_words(self, address: int, n_words: int) -> "array":
        """Privileged bulk read of ``n_words`` consecutive words.

        The verifier's AMR drain: one ranged read replaces a
        :meth:`load_physical` call per word.  Returns a packed
        ``array('Q')``.
        """
        address = align_word(address)
        words = self._words
        span = range(address, address + n_words * WORD_SIZE, WORD_SIZE)
        try:
            # Fast path: every word present (always true for a region the
            # append datapath filled) — C-level map, no per-word bytecode.
            return array("Q", map(words.__getitem__, span))
        except KeyError:
            return array("Q", [words.get(a, 0) for a in span])

    def store_words(self, address: int, values: Sequence[int]) -> None:
        """Protection-checked bulk write of consecutive words.

        Checks each page boundary once instead of re-deriving the
        protection per word; AMR pages reject the whole write, like
        :meth:`store`.
        """
        if not values:
            return
        address = align_word(address)
        end = address + len(values) * WORD_SIZE
        for page in range(page_of(address), page_of(end - 1) + 1):
            prot = self._prot(page)
            if prot & PROT_AMR:
                raise AMRWriteFault(page * PAGE_SIZE)
            if not prot & PROT_WRITE:
                raise SegmentationFault(page * PAGE_SIZE, "write",
                                        "page not writable")
        words = self._words
        for i, value in enumerate(values):
            words[address + i * WORD_SIZE] = value

    def append_store_words(self, address: int, values: Sequence[int]) -> None:
        """AppendWrite datapath bulk store: one message (or more) of
        consecutive words onto AMR pages.

        Page protections are checked per page touched rather than per
        word; any non-AMR page in the range rejects the whole store,
        mirroring :meth:`append_store`.
        """
        if not values:
            return
        address = align_word(address)
        end = address + len(values) * WORD_SIZE
        resolve = self._prot
        for page in range(page_of(address), page_of(end - 1) + 1):
            if not resolve(page) & PROT_AMR:
                raise SegmentationFault(page * PAGE_SIZE, "append",
                                        "target is not an AMR page")
        words = self._words
        for i, value in enumerate(values):
            words[address + i * WORD_SIZE] = value

    # -- block helpers --------------------------------------------------------

    def load_block(self, address: int, n_words: int) -> List[int]:
        """Read ``n_words`` consecutive words starting at ``address``."""
        return [self.load(address + i * WORD_SIZE) for i in range(n_words)]

    def store_block(self, address: int, values: List[int]) -> None:
        """Write consecutive words starting at ``address``."""
        for i, value in enumerate(values):
            self.store(address + i * WORD_SIZE, value)

    def copy_block(self, src: int, dst: int, n_words: int) -> None:
        """memmove semantics: correct even for overlapping ranges."""
        values = [self.load(src + i * WORD_SIZE) for i in range(n_words)]
        for i, value in enumerate(values):
            self.store(dst + i * WORD_SIZE, value)

    def zero_block(self, address: int, n_words: int) -> None:
        """memset(0) over ``n_words`` words."""
        for i in range(n_words):
            self.store(address + i * WORD_SIZE, 0)
