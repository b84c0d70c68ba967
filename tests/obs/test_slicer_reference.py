"""The indexed backward slicer against the frozen list-scanning walk.

Random recorder streams repeat and reorder cycle numbers, as the
tracker's restored paths do, and mix every record call (including
smeared stores past ``RAM_WRITE_CAP``).  Rings small enough to wrap,
restores into a smaller ring, sinks that reappear as sources and tiny
``max_nodes``/``max_edges`` caps are all drawn.  Every slice must equal
:func:`tests.obs.slice_reference.reference_slice`: the same edges in the
same order (duplicates included), leaves, chain and truncation flag.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.provenance import RAM_WRITE_CAP, ProvenanceRecorder
from tests.obs.slice_reference import reference_slice

NUM_NETS = 8
nets = st.integers(0, NUM_NETS - 1)
net_lists = st.lists(nets, min_size=1, max_size=4)


def _ids(values):
    return np.asarray(values, dtype=np.int64)


@st.composite
def records(draw):
    """One record call as ``(cycle, method name, args)``."""
    cycle = draw(st.integers(0, 6))
    kind = draw(
        st.sampled_from(
            ["gate", "latch", "input", "ram_read", "ram_write", "cross"]
        )
    )
    if kind in ("gate", "latch"):
        pairs = draw(st.lists(st.tuples(nets, nets), min_size=1, max_size=4))
        dsts, srcs = zip(*pairs)
        name = "record_gate" if kind == "gate" else "record_latch"
        return cycle, name, (_ids(dsts), _ids(srcs))
    if kind == "input":
        label = draw(st.sampled_from(["P1IN", "rom[0x0001]"]))
        return cycle, "record_input", (
            draw(net_lists), draw(st.integers(0, 15)), label,
        )
    if kind == "ram_read":
        return cycle, "record_ram_read", (
            draw(net_lists), draw(st.integers(0, 15)),
            draw(st.integers(0, 3)),
        )
    if kind == "ram_write":
        words = draw(
            st.lists(
                st.integers(0, 3), min_size=1, max_size=RAM_WRITE_CAP + 3
            )
        )
        return cycle, "record_ram_write", (words, _ids(draw(net_lists)))
    dsts, srcs = draw(net_lists), draw(net_lists)
    return cycle, "record_cross", (_ids(dsts), _ids(srcs))


#: Mostly the default caps, so most slices run to completion.
queries = st.tuples(
    st.lists(nets, min_size=1, max_size=4),  # sinks (repeats allowed)
    st.integers(0, 7),  # cycle
    st.sampled_from([4096] * 4 + [0, 1, 3]),  # max_nodes
    st.sampled_from([100_000] * 4 + [0, 2, 10]),  # max_edges
)


def _as_tuples(flow):
    def edge(e):
        return (e.src, e.dst, e.cycle, e.kind, e.src_name, e.dst_name)

    return (
        [edge(e) for e in flow.edges],
        [(leaf.node, leaf.name, leaf.cycle, leaf.labelled)
         for leaf in flow.leaves],
        [edge(e) for e in flow.chain],
        flow.truncated,
    )


def _check(recorder, query):
    sinks, cycle, max_nodes, max_edges = query
    flow = recorder.slice_to(
        sinks, cycle, max_nodes=max_nodes, max_edges=max_edges
    )
    expected = reference_slice(
        recorder, sinks, cycle, max_nodes=max_nodes, max_edges=max_edges
    )
    assert _as_tuples(flow) == expected


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.one_of(st.integers(1, 48), st.just(1024)),
    stream=st.lists(records(), max_size=30),
    split=st.integers(0, 30),
    restore_into=st.one_of(st.none(), st.none(), st.integers(1, 48)),
    first=queries,
    second=queries,
)
def test_indexed_slicer_matches_reference(
    capacity, stream, split, restore_into, first, second
):
    recorder = ProvenanceRecorder(capacity=capacity)
    recorder.bind_raw(NUM_NETS, [f"n{net}" for net in range(NUM_NETS)])
    for index, (cycle, name, args) in enumerate(stream):
        if index == split:
            # A query between appends: the index must be rebuilt after.
            _check(recorder, first)
        recorder.begin_cycle(cycle)
        getattr(recorder, name)(*args)
    if restore_into is not None:
        clone = ProvenanceRecorder(capacity=restore_into)
        clone.bind_raw(NUM_NETS, [f"n{net}" for net in range(NUM_NETS)])
        clone.restore_state(recorder.export_state())
        recorder = clone
    _check(recorder, first)
    _check(recorder, second)


@settings(max_examples=50, deadline=None)
@given(stream=st.lists(records(), max_size=20), query=queries)
def test_unbound_recorder_matches_reference(stream, query):
    """Without a bound net space, RAM pseudo-nets alias plain nets and
    only interned labels are origins."""
    recorder = ProvenanceRecorder(capacity=64)
    for cycle, name, args in stream:
        recorder.begin_cycle(cycle)
        getattr(recorder, name)(*args)
    _check(recorder, query)
