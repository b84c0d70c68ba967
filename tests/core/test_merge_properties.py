"""Property-based tests for the code-lattice merge algebra.

The tracker's merge table keeps one conservative state per site,
widened by every visit in serial order, and stops a path once that
state covers it; checkpoints save the table and a resumed run keeps
widening it.  That is sound only if ``codes_merge`` is a commutative,
associative, idempotent least upper bound under the ``codes_cover``
partial order, and the drain-time ``_widen_to_top`` state must cover
everything.  Hypothesis hunts for counterexamples over the full code
alphabet (value in {0,1,X} x taint in {0,1} -> codes 0..5).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracker import TaintTracker, codes_cover, codes_merge
from repro.isa.assembler import assemble

#: Every legal per-DFF code: value*2 + taint with value in {0, 1, 2=X}.
CODES = list(range(6))


def codes_array(min_size=1, max_size=64):
    return st.lists(
        st.sampled_from(CODES), min_size=min_size, max_size=max_size
    ).map(lambda values: np.array(values, dtype=np.uint8))


def same_shape_codes(min_size=1, max_size=64):
    """Two or three equally-sized code vectors."""
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.tuples(
            codes_array(n, n), codes_array(n, n), codes_array(n, n)
        )
    )


@settings(max_examples=200, deadline=None)
@given(arrays=same_shape_codes())
def test_merge_commutative(arrays):
    a, b, _ = arrays
    assert (codes_merge(a, b) == codes_merge(b, a)).all()


@settings(max_examples=200, deadline=None)
@given(arrays=same_shape_codes())
def test_merge_associative(arrays):
    a, b, c = arrays
    left = codes_merge(codes_merge(a, b), c)
    right = codes_merge(a, codes_merge(b, c))
    assert (left == right).all()


@settings(max_examples=200, deadline=None)
@given(a=codes_array())
def test_merge_idempotent(a):
    assert (codes_merge(a, a) == a).all()


@settings(max_examples=200, deadline=None)
@given(a=codes_array())
def test_cover_reflexive(a):
    assert codes_cover(a, a)


@settings(max_examples=200, deadline=None)
@given(arrays=same_shape_codes())
def test_cover_antisymmetric(arrays):
    a, b, _ = arrays
    if codes_cover(a, b) and codes_cover(b, a):
        assert (a == b).all()


@settings(max_examples=200, deadline=None)
@given(arrays=same_shape_codes())
def test_cover_transitive_through_merge(arrays):
    """Merge chains give non-vacuous cover pairs: c >= b >= a."""
    a, b, c = arrays
    ab = codes_merge(a, b)
    abc = codes_merge(ab, c)
    assert codes_cover(ab, a)
    assert codes_cover(abc, ab)
    assert codes_cover(abc, a)


@settings(max_examples=200, deadline=None)
@given(arrays=same_shape_codes())
def test_merge_is_upper_bound(arrays):
    """The property the tracker's termination argument uses directly:
    the stored conservative state covers everything merged into it."""
    a, b, _ = arrays
    merged = codes_merge(a, b)
    assert codes_cover(merged, a)
    assert codes_cover(merged, b)


@settings(max_examples=200, deadline=None)
@given(arrays=same_shape_codes())
def test_merge_is_least_upper_bound(arrays):
    """Any common upper bound also covers the merge -- so merging loses
    no precision beyond what coverage already demands."""
    a, b, c = arrays
    if codes_cover(c, a) and codes_cover(c, b):
        assert codes_cover(c, codes_merge(a, b))


@settings(max_examples=200, deadline=None)
@given(a=codes_array())
def test_top_code_covers_everything(a):
    """Code 5 (tainted X) is the lattice top ``_widen_to_top`` fills
    DFF snapshots with."""
    top = np.full_like(a, 5)
    assert codes_cover(top, a)
    assert (codes_merge(top, a) == top).all()


def test_widen_to_top_is_upper_bound_on_real_snapshots():
    """Full-state check: the drain-time top state covers live snapshots
    taken at several points of a real exploration (the soundness of
    budget degradation rests on exactly this)."""
    program = assemble(
        ".task sys trusted\n"
        "start:\n"
        "    mov #0x0FFE, sp\n"
        "    call #app\n"
        "    jmp start\n"
        ".task app untrusted\n"
        "app:\n"
        "    mov &P1IN, r4\n"
        "    and #0x0007, r4\n"
        "    mov r4, &P2OUT\n"
        "    ret\n",
        name="widen_probe",
    )
    tracker = TaintTracker(program)
    soc = tracker.runner.soc
    snapshots = [soc.snapshot()]
    for _ in range(40):
        soc.step()
        snapshots.append(soc.snapshot())
    for snapshot in snapshots:
        top = tracker._widen_to_top(snapshot)
        assert tracker._covers(top, snapshot)
        # and the top state is a fixpoint of further widening
        assert tracker._covers(top, top)
