"""Data-flow integrity policy (section 4.3 lists it; design follows
Castro et al., OSDI'06 [26]).

DFI checks that every value *read* was produced by a store that the
static data-flow analysis says may legitimately reach that read.  The
compiler assigns each tracked store a *definition id* and each tracked
load the set of definition ids that may reach it; the verifier keeps a
last-writer table and flags loads whose last writer is not in the set.

Unlike CFI, DFI protects *all* data the analysis tracks — a buffer
overflow that corrupts a decision variable (not a code pointer) is
caught too, because the overflowing store's definition id is not in the
victim load's reaching set.

Messages (carried in ``EVENT`` with an auxiliary argument):

* ``DFI_STORE(address, def_id)`` — an instrumented store executed;
* ``DFI_BLOCK_STORE(address, size, def_id)`` — a block write (memcpy/
  memset) covered a range;
* ``DFI_CHECK(address, set_id)`` — an instrumented load; the last
  writer of ``address`` must be in reaching set ``set_id``.

The static reaching sets travel out of band (the verifier receives the
compiler's table at registration), mirroring how the original DFI
embeds its sets in the binary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.compiler import ir
from repro.compiler.passes.base import ModulePass
from repro.core.messages import Op
from repro.core.policy import Policy, Violation

#: EVENT kinds.
DFI_STORE = 20
DFI_BLOCK_STORE = 21
DFI_CHECK = 22

#: Pseudo definition id for "initialized by the loader / never written".
DEF_INITIAL = 0


class DFIPolicy(Policy):
    """Verifier-side last-writer tracking.

    ``reaching_sets`` maps set id → frozenset of allowed definition ids;
    it comes from :class:`DFIPass` (``module.dfi_reaching_sets``).
    """

    name = "dfi"

    def __init__(self,
                 reaching_sets: Optional[Dict[int, FrozenSet[int]]] = None
                 ) -> None:
        self.reaching_sets = dict(reaching_sets or {})
        self.last_writer: Dict[int, int] = {}

    def _event(self, arg0: int, arg1: int, aux: int) -> Optional[Violation]:
        if arg0 == DFI_STORE:
            self.last_writer[arg1] = aux
        elif arg0 == DFI_BLOCK_STORE:
            last_writer = self.last_writer
            size, def_id = aux >> 16, aux & 0xFFFF
            for offset in range(0, size, 8):
                last_writer[arg1 + offset] = def_id
        elif arg0 == DFI_CHECK:
            writer = self.last_writer.get(arg1, DEF_INITIAL)
            allowed = self.reaching_sets.get(aux, frozenset())
            if writer not in allowed:
                return Violation(
                    0, "dfi",
                    f"load at {arg1:#x} saw definition {writer}, "
                    f"allowed set {aux} is {sorted(allowed)}")
        return None

    HANDLERS = {int(Op.EVENT): _event}

    def clone(self) -> "DFIPolicy":
        child = DFIPolicy(self.reaching_sets)
        child.last_writer = dict(self.last_writer)
        return child

    def entry_count(self) -> int:
        return len(self.last_writer)

    def entries_ref(self):
        return self.last_writer


class DFIPass(ModulePass):
    """Assign definition ids and reaching sets; insert messaging.

    The analysis is slot-based (the granularity production DFI uses
    after its points-to analysis): every tracked store to a slot is a
    definition of that slot; every tracked load of the slot may observe
    any of the slot's definitions plus the loader's initialization.
    Tracked slots are global variables and struct fields thereof —
    stack locals are covered by the cheaper escape-based reasoning the
    CFI passes already use.

    The computed table is stored on the module as
    ``module.dfi_reaching_sets`` for the verifier.
    """

    name = "dfi"

    def run(self, module: ir.Module) -> None:
        from repro.compiler.passes.stlf import _slot_key

        next_def_id = 1
        slot_defs: Dict[Tuple, set] = {}
        store_ids: Dict[int, int] = {}
        block_ids: Dict[int, int] = {}

        # Pass 1: number the definitions.  Loads establish the slot
        # universe too: a slot that is only ever read still gets the
        # {DEF_INITIAL} reaching set, so any runtime write to it (an
        # overflow) is a foreign definition.
        for function in module.functions.values():
            for instruction in function.instructions():
                if isinstance(instruction, ir.Load):
                    key = _slot_key(instruction.pointer)
                    if key is not None and key[0] == "global":
                        slot_defs.setdefault(key, {DEF_INITIAL})
                if isinstance(instruction, ir.Store):
                    key = _slot_key(instruction.pointer)
                    if key is None or key[0] != "global":
                        continue
                    store_ids[id(instruction)] = next_def_id
                    slot_defs.setdefault(key, {DEF_INITIAL}).add(
                        next_def_id)
                    next_def_id += 1
                elif isinstance(instruction, (ir.MemCopy, ir.MemSet)):
                    key = _slot_key(instruction.dst)
                    block_ids[id(instruction)] = next_def_id
                    if key is not None and key[0] == "global":
                        # Object-based points-to: the block write is a
                        # definition of the object its destination
                        # points at — and nothing else.  A write that
                        # runs past that object is therefore a foreign
                        # definition wherever it lands: exactly the
                        # overflow DFI exists to catch.
                        slot_defs.setdefault(key, {DEF_INITIAL}).add(
                            next_def_id)
                    else:
                        # Unknown destination: conservatively a
                        # definition of every tracked slot.
                        for defs in slot_defs.values():
                            defs.add(next_def_id)
                    next_def_id += 1

        # Pass 2: build reaching sets per slot and instrument.
        reaching_sets: Dict[int, FrozenSet[int]] = {}
        set_of_slot: Dict[Tuple, int] = {}
        for key, defs in slot_defs.items():
            set_id = len(reaching_sets) + 1
            reaching_sets[set_id] = frozenset(defs)
            set_of_slot[key] = set_id

        for function in module.functions.values():
            if function.is_declaration:
                continue
            for block in list(function.blocks):
                for instruction in list(block.instructions):
                    if isinstance(instruction, ir.Store) and \
                            id(instruction) in store_ids:
                        block.insert_after(instruction, ir.RuntimeCall(
                            "hq_event3",
                            [ir.Constant(DFI_STORE), instruction.pointer,
                             ir.Constant(store_ids[id(instruction)])]))
                        self.bump("stores")
                    elif isinstance(instruction,
                                    (ir.MemCopy, ir.MemSet)) and \
                            id(instruction) in block_ids:
                        def_id = block_ids[id(instruction)]
                        block.insert_after(instruction, ir.RuntimeCall(
                            "hq_dfi_block_store",
                            [instruction.dst, instruction.size,
                             ir.Constant(def_id)]))
                        self.bump("block-stores")
                    elif isinstance(instruction, ir.Load):
                        from repro.compiler.passes.stlf import _slot_key
                        key = _slot_key(instruction.pointer)
                        if key is None or key not in set_of_slot:
                            continue
                        block.insert_before(instruction, ir.RuntimeCall(
                            "hq_event3",
                            [ir.Constant(DFI_CHECK), instruction.pointer,
                             ir.Constant(set_of_slot[key])]))
                        self.bump("checks")

        module.dfi_reaching_sets = reaching_sets  # type: ignore[attr-defined]


def policy_factory_for(module: ir.Module):
    """A policy factory bound to the module's computed reaching sets."""
    sets = getattr(module, "dfi_reaching_sets", {})

    def factory() -> DFIPolicy:
        return DFIPolicy(sets)
    return factory
