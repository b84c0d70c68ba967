"""A frozen copy of the list-scanning backward slicer, for testing.

:meth:`repro.obs.provenance.ProvenanceRecorder.slice_to` walks a sorted
destination index with binary searches.  This module keeps the walk it
replaced -- a per-node list of stream positions, scanned in full on
every visit -- so a differential test can hold the two to the same
edges (order and duplicates included), leaves, chain and truncation
flag.  It reads the recorder only through public calls
(``export_state``, ``node_name``, ``is_source_node``, ``truncated``)
and returns plain tuples, so it shares no code with the slicer under
test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

KIND_NAMES = ("gate", "dff", "ram", "input")

#: ``(src, dst, cycle, kind, src_name, dst_name)``
Edge = Tuple[int, int, int, str, str, str]
#: ``(node, name, cycle, labelled)``
Leaf = Tuple[int, str, int, bool]


def reference_slice(
    recorder,
    sink_nets: Sequence[int],
    cycle: int,
    max_nodes: int = 4096,
    max_edges: int = 100_000,
) -> Tuple[List[Edge], List[Leaf], List[Edge], bool]:
    """``(edges, leaves, chain, truncated)`` of the backward slice from
    *sink_nets* at *cycle*, as the list-scanning walk computed it."""
    state = recorder.export_state()
    at = [int(value) for value in state["at"]]
    src_of = [int(value) for value in state["src"]]
    kind_of = [KIND_NAMES[int(value)] for value in state["kind"]]
    # dst node -> stream positions, oldest first
    index: Dict[int, List[int]] = {}
    for position, dst in enumerate(state["dst"]):
        index.setdefault(int(dst), []).append(position)

    def causes_of(node: int) -> List[int]:
        entries = index.get(node)
        if not entries:
            return []
        best = -1
        for scan in range(len(entries) - 1, -1, -1):
            if at[entries[scan]] <= cycle:
                best = scan
                break
        if best < 0:
            return []
        picked = [entries[best]]
        scan = best - 1
        while scan >= 0 and at[entries[scan]] == at[entries[best]]:
            picked.append(entries[scan])
            scan -= 1
        return picked

    name = recorder.node_name
    is_source = recorder.is_source_node
    edges: List[Edge] = []
    leaves: List[Leaf] = []
    parents: Dict[int, Optional[Edge]] = {}
    bounds: Dict[int, int] = {}
    sliced = False
    frontier: List[Tuple[int, int, int]] = []
    sinks = []
    for net in sink_nets:
        if net in parents:
            continue
        parents[net] = None
        sinks.append(int(net))
        entry = causes_of(int(net))
        if entry:
            frontier.append((int(net), cycle, max(entry) + 1))
        else:
            frontier.append((int(net), cycle, 0))
    seen_leaf_labels = set()

    def note_leaf(node: int, when: int, labelled: bool, label: str) -> None:
        if label not in seen_leaf_labels:
            seen_leaf_labels.add(label)
            leaves.append((node, label, when, labelled))

    while frontier:
        if len(parents) > max_nodes or len(edges) > max_edges:
            sliced = True
            break
        node, when, before = frontier.pop(0)
        if bounds.get(node, -1) >= before:
            continue
        bounds[node] = before
        entries = [
            position
            for position in index.get(node, ())
            if position < before
            and (node not in sinks or at[position] <= cycle)
        ]
        if not entries:
            if is_source(node) or node in sinks:
                note_leaf(node, when, is_source(node), name(node))
            else:
                note_leaf(node, when, False, name(node) + " (unrecorded)")
            continue
        for position in entries:
            src = src_of[position]
            edge = (
                src, node, at[position], kind_of[position],
                name(src), name(node),
            )
            edges.append(edge)
            if src not in parents:
                parents[src] = edge
            if src < 0:
                note_leaf(src, edge[2], True, name(src))
            elif is_source(src):
                note_leaf(src, edge[2], True, name(src))
                frontier.append((src, edge[2], position))
            else:
                frontier.append((src, edge[2], position))

    chain: List[Edge] = []
    ordered = sorted(leaves, key=lambda leaf: (not leaf[3], leaf[0] >= 0))
    for leaf in ordered:
        walk: List[Edge] = []
        edge = parents.get(leaf[0])
        while edge is not None:
            walk.append(edge)
            edge = parents.get(edge[1])
        if walk:
            chain = walk
            break
    return edges, leaves, chain, recorder.truncated or sliced
