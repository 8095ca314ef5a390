"""Tests for the mini IR and type system (repro.compiler.ir/types)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfi.designs import get_design
from repro.compiler import ir
from repro.compiler.builder import IRBuilder
from repro.compiler.passes.base import PassManager
from repro.compiler.printer import format_module
from repro.compiler.types import (ArrayType,
                                  F64,
                                  I64,
                                  StructType,
                                  VOID,
                                  contains_function_pointer,
                                  func,
                                  is_function_pointer,
                                  is_vtable_pointer,
                                  pointer_slot_offsets,
                                  ptr)
from repro.workloads.generator import build_module
from repro.workloads.profiles import get_profile


class TestTypes:
    def test_scalar_sizes(self):
        assert I64.size() == 8
        assert F64.size() == 8
        assert ptr(I64).size() == 8
        assert VOID.size() == 0

    def test_function_type_has_no_size(self):
        with pytest.raises(TypeError):
            func(I64).size()

    def test_array_size(self):
        assert ArrayType(I64, 5).size() == 40

    def test_struct_layout(self):
        s = StructType("S", [("a", I64), ("b", ptr(I64)), ("c", I64)])
        assert s.size() == 24
        assert s.field_offset("b") == 8
        assert s.field_type("c") == I64
        assert s.field_index("c") == 2

    def test_struct_unknown_field(self):
        s = StructType("S", [("a", I64)])
        with pytest.raises(KeyError):
            s.field_offset("zz")

    def test_structs_are_nominal(self):
        assert StructType("S", [("a", I64)]) == StructType("S", [("b", F64)])
        assert StructType("S", []) != StructType("T", [])

    def test_type_equality_and_hash(self):
        assert ptr(I64) == ptr(I64)
        assert hash(func(I64, [I64])) == hash(func(I64, [I64]))
        assert func(I64, [I64]) != func(I64, [I64, I64])
        assert func(I64, [I64], vararg=True) != func(I64, [I64])

    def test_is_function_pointer(self):
        assert is_function_pointer(ptr(func(VOID)))
        assert not is_function_pointer(ptr(I64))
        assert not is_function_pointer(I64)

    def test_is_vtable_pointer(self):
        vtable = ArrayType(ptr(func(VOID)), 4)
        assert is_vtable_pointer(ptr(vtable))
        assert not is_vtable_pointer(ptr(ArrayType(I64, 4)))

    def test_contains_function_pointer_through_nesting(self):
        inner = StructType("Inner", [("fp", ptr(func(VOID)))])
        outer = StructType("Outer", [("x", I64),
                                     ("arr", ArrayType(inner, 2))])
        assert contains_function_pointer(outer)
        clean = StructType("Clean", [("x", I64), ("y", ArrayType(I64, 3))])
        assert not contains_function_pointer(clean)

    def test_contains_function_pointer_vptr_struct(self):
        cpp = StructType("Obj", [("__vptr", I64)], has_vptr=True)
        assert contains_function_pointer(cpp)

    def test_pointer_slot_offsets(self):
        record = StructType("R", [("x", I64), ("fp", ptr(func(VOID))),
                                  ("y", I64), ("fp2", ptr(func(VOID)))])
        assert pointer_slot_offsets(record) == [8, 24]

    def test_pointer_slot_offsets_in_array(self):
        record = StructType("R", [("fp", ptr(func(VOID))), ("d", I64)])
        offsets = pointer_slot_offsets(ArrayType(record, 3))
        assert offsets == [0, 16, 32]


class TestModule:
    def test_duplicate_function_rejected(self):
        module = ir.Module()
        module.add_function("f", func(I64))
        with pytest.raises(ValueError):
            module.add_function("f", func(I64))

    def test_duplicate_global_rejected(self):
        module = ir.Module()
        module.add_global("g", I64)
        with pytest.raises(ValueError):
            module.add_global("g", I64)

    def test_global_type_is_pointer_to_value(self):
        module = ir.Module()
        g = module.add_global("g", I64)
        assert g.type == ptr(I64)

    def test_verify_catches_missing_terminator(self):
        module = ir.Module()
        f = module.add_function("f", func(I64))
        f.add_block("entry")  # empty, no terminator
        with pytest.raises(ValueError):
            module.verify()

    def test_verify_catches_mid_block_terminator(self):
        module = ir.Module()
        f = module.add_function("f", func(I64))
        block = f.add_block("entry")
        block.append(ir.Ret(ir.Constant(0)))
        # Force a second instruction after the terminator.
        bad = ir.BinOp("add", ir.Constant(1), ir.Constant(2))
        bad.block = block
        block.instructions.append(bad)
        block.instructions.append(ir.Ret(ir.Constant(0)))
        with pytest.raises(ValueError):
            module.verify()

    def test_declaration_has_no_entry(self):
        module = ir.Module()
        f = module.add_function("f", func(I64))
        assert f.is_declaration
        with pytest.raises(ValueError):
            _ = f.entry


class TestInstructions:
    def _one_block(self):
        module = ir.Module()
        f = module.add_function("f", func(I64, [I64]))
        return module, f, IRBuilder(f.add_block("entry"))

    def test_block_append_after_terminator_rejected(self):
        _, f, b = self._one_block()
        b.ret(b.const(0))
        with pytest.raises(ValueError):
            b.add(b.const(1), b.const(2))

    def test_operands_listed(self):
        _, f, b = self._one_block()
        s = b.add(f.params[0], b.const(2))
        assert f.params[0] in s.operands

    def test_replace_operand(self):
        _, f, b = self._one_block()
        c1 = b.const(1)
        s = b.add(f.params[0], c1)
        c2 = b.const(2)
        s.replace_operand(c1, c2)
        assert s.rhs is c2

    def test_phi_replace_operand(self):
        module = ir.Module()
        f = module.add_function("f", func(I64))
        entry = f.add_block("entry")
        phi = ir.Phi(I64)
        old = ir.Constant(1)
        phi.add_incoming(old, entry)
        new = ir.Constant(2)
        phi.replace_operand(old, new)
        assert phi.incoming[0][0] is new

    def test_gep_field_type(self):
        module = ir.Module()
        record = StructType("R", [("a", I64), ("fp", ptr(func(VOID)))])
        f = module.add_function("f", func(I64, [ptr(record)]))
        b = IRBuilder(f.add_block("entry"))
        g = b.gep_field(f.params[0], "fp")
        assert g.type == ptr(ptr(func(VOID)))

    def test_gep_requires_field_or_index(self):
        module = ir.Module()
        f = module.add_function("f", func(I64, [ptr(I64)]))
        with pytest.raises(ValueError):
            ir.Gep(f.params[0])

    def test_gep_field_on_non_struct_rejected(self):
        module = ir.Module()
        f = module.add_function("f", func(I64, [ptr(I64)]))
        with pytest.raises(TypeError):
            ir.Gep(f.params[0], field="x")

    def test_branch_successors(self):
        module = ir.Module()
        f = module.add_function("f", func(I64))
        a, c, d = f.add_block("a"), f.add_block("c"), f.add_block("d")
        b = IRBuilder(a)
        br = b.cond_br(b.const(1), c, d)
        assert br.successors == [c, d]
        assert ir.Br(c).successors == [c]
        assert ir.Ret().successors == []

    def test_call_result_type(self):
        module = ir.Module()
        callee = module.add_function("g", func(I64, [I64]))
        f = module.add_function("f", func(I64))
        b = IRBuilder(f.add_block("entry"))
        call = b.call(callee, [b.const(1)])
        assert call.type == I64

    def test_function_ref_type(self):
        module = ir.Module()
        g = module.add_function("g", func(I64, [I64]))
        assert is_function_pointer(g.ref().type)

    def test_memcopy_carries_static_type_info(self):
        module = ir.Module()
        f = module.add_function("f", func(VOID, [ptr(I64), ptr(I64)]))
        b = IRBuilder(f.add_block("entry"))
        op = b.memcpy(f.params[0], f.params[1], b.const(16),
                      element_type=ArrayType(I64, 2), decayed=True)
        assert op.element_type == ArrayType(I64, 2)
        assert op.decayed

    def test_instruction_names_unique_by_default(self):
        names = {ir.BinOp("add", ir.Constant(1), ir.Constant(2)).name
                 for _ in range(10)}
        assert len(names) == 10


@settings(max_examples=40)
@given(field_count=st.integers(min_value=1, max_value=12),
       fp_positions=st.sets(st.integers(min_value=0, max_value=11)))
def test_struct_pointer_slots_match_layout(field_count, fp_positions):
    """pointer_slot_offsets finds exactly the function-pointer fields."""
    fields = []
    expected = []
    offset = 0
    for i in range(field_count):
        if i in fp_positions:
            fields.append((f"f{i}", ptr(func(VOID))))
            expected.append(offset)
        else:
            fields.append((f"f{i}", I64))
        offset += 8
    record = StructType("S", fields)
    assert pointer_slot_offsets(record) == expected
    assert contains_function_pointer(record) == bool(
        fp_positions & set(range(field_count)))


class TestAutoNames:
    """Unnamed instructions are numbered per function when first placed."""

    def test_same_pair_compiles_identically_twice(self):
        def compile_once():
            module = build_module(get_profile("403.gcc"))
            PassManager(get_design("hq-sfestk").passes()).run(module)
            return format_module(module)

        first = compile_once()
        assert compile_once() == first

    def test_auto_names_never_collide_with_explicit_v_names(self):
        module = ir.Module()
        f = module.add_function("f", func(I64, [I64]))
        b = IRBuilder(f.add_block("entry"))
        x = b.add(f.params[0], b.const(1))
        v1 = b.add(x, b.const(2), "v1")
        y = b.add(v1, b.const(3))
        v2 = b.add(y, b.const(4), "v2")
        b.ret(b.add(v2, x))
        names = [instruction.name for instruction in f.instructions()
                 if instruction.type is not VOID]
        assert len(set(names)) == len(names) == 5
        assert [x.name, y.name] == ["0", "1"]
        assert len(f.value_numbering()) == 1 + len(f.entry.instructions)

    def test_numbering_is_per_function(self):
        module = ir.Module()
        names = []
        for function_name in ("f", "g"):
            f = module.add_function(function_name, func(I64, [I64]))
            b = IRBuilder(f.add_block("entry"))
            names.append(b.add(f.params[0], b.const(1)).name)
        assert names == ["0", "0"]

    def test_moved_instruction_keeps_its_name(self):
        module = ir.Module()
        f = module.add_function("f", func(I64, [I64]))
        b = IRBuilder(f.add_block("entry"))
        first = b.add(f.params[0], b.const(1))
        second = b.add(first, b.const(2))
        b.ret(second)
        f.entry.remove(second)
        f.entry.insert(1, second)
        assert [first.name, second.name] == ["0", "1"]
        fresh = f.entry.insert(0, ir.BinOp("mul", f.params[0],
                                           ir.Constant(3)))
        assert fresh.name == "3"  # "2" went to the ret
