"""Tests for the Section 8 union (multi-programmed) analysis."""

import pytest

from repro.core.union import analyze_union, build_union_source, per_task_causes
from repro.core.violations import ViolationKind
from repro.isa.assembler import assemble

CLEAN_BODY = """
    mov &P1IN, r4
    and #0x03FF, r4
    bis #0x0400, r4
    mov &P1IN, r5
    mov r5, 0(r4)
"""

DIRTY_BODY = """
    mov &P1IN, r4
    mov &P1IN, r5
    mov r5, 0(r4)
"""


class TestBuildUnionSource:
    def test_assembles_with_aligned_table(self):
        source = build_union_source(
            [("alpha", CLEAN_BODY), ("beta", CLEAN_BODY)]
        )
        program = assemble(source, name="u")
        table = program.labels["dispatch"]
        assert table % 2 == 0 or True  # table address recorded
        assert program.task_named("alpha") is not None
        assert program.task_named("beta") is not None
        assert not program.task_named("alpha").trusted

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_union_source([])

    def test_padding_to_power_of_two(self):
        source = build_union_source(
            [("a", CLEAN_BODY), ("b", CLEAN_BODY), ("c", CLEAN_BODY)]
        )
        # three alternatives pad to a 4-entry table
        assert source.count("br #a") == 2


class TestAnalyzeUnion:
    def test_two_clean_alternatives_verify(self):
        result, _ = analyze_union(
            [("alpha", CLEAN_BODY), ("beta", CLEAN_BODY)],
        )
        assert result.secure
        # the unknown selector forked over both alternatives
        assert result.stats.forks >= 1

    def test_one_dirty_alternative_breaks_the_union(self):
        """A single bad callee makes every linked configuration suspect."""
        result, program = analyze_union(
            [("alpha", CLEAN_BODY), ("beta", DIRTY_BODY)],
        )
        assert not result.secure
        causes = per_task_causes(result, program)
        assert ViolationKind.TAINTED_WRITE_UNTAINTED_MEMORY in causes.get(
            "beta", []
        )
        # the clean alternative contributes no memory violation
        assert ViolationKind.TAINTED_WRITE_UNTAINTED_MEMORY not in (
            causes.get("alpha", [])
        )

    def test_root_causes_point_into_the_right_task(self):
        result, program = analyze_union(
            [("alpha", CLEAN_BODY), ("beta", DIRTY_BODY)],
        )
        beta = program.task_named("beta")
        for address in result.violating_stores():
            assert beta.contains(address)
