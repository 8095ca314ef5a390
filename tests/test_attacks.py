"""Tests for the RIPE attack suite (repro.attacks.ripe)."""

import pytest

from repro.attacks.ripe import (
    Attack,
    FAMILY_COUNTS,
    ORIGINS,
    attack_matrix,
    attack_succeeded,
    build_victim,
    family_count,
    run_attack,
)


class TestMatrix:
    def test_baseline_totals_match_ripe64(self):
        """Per-origin combination counts equal Table 5's baseline row."""
        totals = {origin: 0 for origin in ORIGINS}
        for counts in FAMILY_COUNTS.values():
            for origin, count in counts.items():
                totals[origin] += count
        assert totals == {"bss": 214, "data": 234, "heap": 234,
                         "stack": 272}
        assert sum(totals.values()) == 954

    def test_full_matrix_enumerates_all_combinations(self):
        attacks = attack_matrix(dedup=False)
        assert len(attacks) == 954

    def test_dedup_matrix_has_one_per_family_origin(self):
        attacks = attack_matrix(dedup=True)
        keys = {(a.family, a.payload, a.origin) for a in attacks}
        assert len(attacks) == len(keys)
        # Credit-weighting recovers the full totals.
        assert sum(family_count(a) for a in attacks) == 954

    def test_variants_vary_buffer_sizes(self):
        sizes = {Attack("fp-direct", "noclass", "stack", v).buf_words
                 for v in range(6)}
        assert len(sizes) > 1


class TestVictimConstruction:
    @pytest.mark.parametrize("attack", attack_matrix(dedup=True),
                             ids=lambda a: f"{a.family}-{a.payload}-{a.origin}")
    def test_victims_build_and_verify(self, attack):
        module, pre_run = build_victim(attack)
        module.verify()
        assert "main" in module.functions
        assert callable(pre_run)

    def test_payload_targets_present(self):
        module, _ = build_victim(Attack("fp-direct", "sameclass", "heap"))
        assert "libc_system" in module.functions
        assert "shellcode" in module.functions
        # The return-into-libc target is address-taken and same-typed.
        assert module.functions["libc_system"].address_taken
        assert module.functions["libc_system"].signature == \
            module.functions["legit"].signature


class TestAttackOutcomes:
    """Individual attack/design outcomes that define Table 5's shape.

    Full-row verification lives in benchmarks/test_table5_ripe.py; these
    tests pin the *reasons* individual cells hold.
    """

    def test_baseline_falls_to_everything(self):
        for family, payload, origin in [
                ("fp-direct", "noclass", "stack"),
                ("ret-direct", "-", "stack"),
                ("disclosure-arb", "-", "heap")]:
            result = run_attack(Attack(family, payload, origin), "baseline")
            assert attack_succeeded(result), (family, origin)

    def test_clang_allows_same_class_code_reuse(self):
        result = run_attack(Attack("fp-direct", "sameclass", "data"),
                            "clang-cfi")
        assert attack_succeeded(result)

    def test_clang_blocks_shellcode_targets(self):
        result = run_attack(Attack("fp-direct", "noclass", "data"),
                            "clang-cfi")
        assert not attack_succeeded(result)
        assert result.outcome == "violation"

    def test_clang_safestack_blocks_ret_smash(self):
        result = run_attack(Attack("ret-direct", "-", "stack"), "clang-cfi")
        assert not attack_succeeded(result)

    def test_ccfi_blocks_all_fp_corruption(self):
        for payload in ("sameclass", "noclass"):
            result = run_attack(Attack("fp-direct", payload, "heap"), "ccfi")
            assert not attack_succeeded(result)

    def test_ccfi_ret_macs_block_disclosure(self):
        result = run_attack(Attack("disclosure-arb", "-", "bss"), "ccfi")
        assert not attack_succeeded(result)

    def test_cpi_safe_store_neutralizes_fp_corruption(self):
        """CPI doesn't *detect* the attack — the corrupt value is simply
        never used (the icall reads the safe store)."""
        result = run_attack(Attack("fp-direct", "noclass", "heap"), "cpi")
        assert not attack_succeeded(result)
        assert result.outcome == "ok"  # silent neutralization

    def test_cpi_adjacent_safe_stack_falls_to_linear_sweep(self):
        result = run_attack(Attack("disclosure-linear", "-", "stack"), "cpi")
        assert attack_succeeded(result)

    def test_guarded_safe_stacks_stop_linear_sweep(self):
        for design in ("clang-cfi", "hq-sfestk"):
            result = run_attack(Attack("disclosure-linear", "-", "stack"),
                                design)
            assert not attack_succeeded(result), design

    def test_hq_sfestk_blocks_fp_attacks_asynchronously(self):
        result = run_attack(Attack("fp-direct", "noclass", "bss"),
                            "hq-sfestk")
        assert not attack_succeeded(result)
        # The kill happens at the syscall barrier, not inline.
        assert result.outcome == "killed"
        assert result.violations

    def test_hq_sfestk_falls_to_ret_slot_disclosure(self):
        """The safe stack has no verifier copy: disclosure + arbitrary
        write hijacks the return (Table 5's 10/10/10/0 row)."""
        result = run_attack(Attack("disclosure-arb", "-", "heap"),
                            "hq-sfestk")
        assert attack_succeeded(result)

    def test_hq_retptr_blocks_ret_slot_disclosure(self):
        result = run_attack(Attack("disclosure-arb", "-", "heap"),
                            "hq-retptr")
        assert not attack_succeeded(result)
        assert result.outcome == "killed"

    def test_hq_retptr_blocks_classic_stack_smash(self):
        result = run_attack(Attack("ret-direct", "-", "stack"), "hq-retptr")
        assert not attack_succeeded(result)

    def test_fp_indirect_arbitrary_write_blocked_by_hq(self):
        result = run_attack(Attack("fp-indirect", "noclass", "heap"),
                            "hq-sfestk")
        assert not attack_succeeded(result)

    def test_fp_indirect_same_class_passes_clang(self):
        result = run_attack(Attack("fp-indirect", "sameclass", "bss"),
                            "clang-cfi")
        assert attack_succeeded(result)


class TestBoundedAsynchronyProperty:
    def test_evidence_precedes_exploitation(self):
        """The check message is sent before the corrupt icall executes,
        so even total compromise cannot retract it (section 2.2)."""
        attack = Attack("fp-direct", "noclass", "heap")
        result = run_attack(attack, "hq-sfestk")
        assert result.violations  # evidence arrived
        assert not result.win_executed  # side effect prevented
