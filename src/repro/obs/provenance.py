"""Per-bit taint provenance: *why* is this net tainted?

An opt-in :class:`ProvenanceRecorder` rides along with the gate-level
simulation and records, for every net that *becomes* tainted, the edge
that caused it:

* ``gate``  -- a combinational gate's output picked up taint from a
  tainted fan-in (one edge per tainted fan-in);
* ``dff``   -- a flip-flop latched a tainted D input;
* ``ram``   -- taint moved between the data memory and the CPU's memory
  interface (RAM words are modelled as pseudo-nets above the netlist's
  net-id space, so store->load flows stay connected);
* ``input`` -- taint was *introduced* at a labelled source: a tainted
  input port (``P1IN``), tainted program memory (``rom``), or an
  initially-tainted RAM partition.

Edges live in a fixed-capacity ring of numpy arrays (25 bytes a row;
the arrays are zero-allocated, so only rows written so far are resident)
with string labels interned once, so memory stays bounded no matter how
long the analysis runs.  When the ring wraps, the oldest edges are
overwritten; when a smeared store exceeds :data:`RAM_WRITE_CAP`, some
RAM words lose their link.  Either sets
:attr:`ProvenanceRecorder.truncated` and names the cause in
:attr:`~ProvenanceRecorder.truncated_by` -- the analysis keeps its
verdict, only explanations may bottom out early (flagged
``provenance_truncated``, never an error).

On top of the store, :func:`explain_violation` computes a backward slice
from a checker violation's sink (the store/port/PC nets at the violation
cycle) through gates and cycles to the originally-labelled tainted
inputs, returning a :class:`FlowSlice` that renders as text, exports as
a Graphviz DOT flow graph, and feeds the HTML report.  The slicer walks a
destination index (the valid rows stably sorted by ``dst``, built once
per batch of appends) with one binary search per expanded node.  Each
node's events become a shared run of :class:`FlowEdge` objects, built as
far as a walk's bound reaches and reused by every later slice of the same
index, so an expansion extends its slice by a prefix of the run instead
of building an edge per event; edges resolve node names only when
rendered.

The recorder rides on the run's :class:`~repro.obs.Instruments`, which
the tracker arms on its own SoC for the duration of ``run()``; the
compiled circuit's passes read them from the SoC's circuit state, so the
hot paths pay a single ``None`` check when nobody asked for
provenance::

    recorder = ProvenanceRecorder()
    result = TaintTracker(program, policy, provenance=recorder).run()
    print(explain_violation(result, 0).render())

Caveat: the tracker explores many paths by restoring snapshots, so the
edge stream interleaves sibling paths and cycle numbers are not globally
monotonic.  Backward queries pick the *most recently recorded* cause at
or before the sink cycle -- across paths this can conflate siblings, but
only ever by showing an additional feasible flow (the same conservative
direction as the analysis itself).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import (
    Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

#: Edge kinds (stored as int8 in the ring).
KIND_GATE = 0
KIND_DFF = 1
KIND_RAM = 2
KIND_INPUT = 3

KIND_NAMES = ("gate", "dff", "ram", "input")
_KIND_NAME_ARRAY = np.array(KIND_NAMES, dtype=object)
#: A frontier entry's stream position (a run's hops are in its order).
_POSITION = itemgetter(2)

#: Per-event cap on cross-product edges (e.g. tainted-address smears).
CROSS_EDGE_CAP = 256

#: Per-store cap on RAM pseudo-net fanout for smeared writes; beyond it
#: the remaining matched words keep their taint but lose the link (their
#: slices bottom out at the ``ram[0x....]`` leaf).
RAM_WRITE_CAP = 16

#: Why a recorder is truncated (:attr:`ProvenanceRecorder.truncated_by`):
#: the ring overwrote its oldest edges, so any slice may bottom out at an
#: ``(unrecorded)`` node ...
RING_WRAPPED = "ring_wrapped"
#: ... or a smeared store hit :data:`RAM_WRITE_CAP`, so only slices
#: through the unlinked RAM words stop at their ``ram[0x....]`` leaf.
RAM_WRITE_CAPPED = "ram_write_cap"


class ProvenanceRecorder:
    """Bounded per-bit taint-cause store for one analysis.

    *capacity* bounds the edge ring (rows of ``(cycle, dst, src, kind)``,
    25 bytes each, resident only once written).  Binding to a circuit
    (automatic on first simulated cycle) fixes the net-id space and
    enables name resolution.
    """

    def __init__(self, capacity: int = 1 << 20):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._at = np.zeros(capacity, dtype=np.int64)
        self._dst = np.zeros(capacity, dtype=np.int64)
        self._src = np.zeros(capacity, dtype=np.int64)
        self._kind = np.zeros(capacity, dtype=np.int8)
        #: total edges ever recorded (>= capacity once the ring wrapped)
        self.recorded = 0
        #: True once the ring wrapped (oldest edges overwritten) or a
        #: smeared store exceeded RAM_WRITE_CAP: slices may bottom out
        #: before reaching a labelled input
        self.truncated = False
        #: which of RING_WRAPPED / RAM_WRITE_CAPPED set ``truncated``, in
        #: the order they first happened
        self.truncated_by: List[str] = []
        self.cycle = 0
        #: edges recorded during the current cycle (step-event telemetry)
        self.edges_this_cycle = 0
        self._labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self._num_nets = 0
        self._net_names: Tuple[str, ...] = ()
        self._port_names: Dict[int, str] = {}
        self._index: Optional[_DstIndex] = None

    # ------------------------------------------------------------------
    # Binding and naming
    # ------------------------------------------------------------------
    def ensure_bound(self, circuit) -> None:
        """Adopt *circuit*'s net-id space (idempotent, first step only)."""
        if self._num_nets:
            return
        port_names: Dict[int, str] = {}
        netlist = circuit.netlist
        for port in list(netlist.outputs) + list(netlist.inputs):
            for bit, net in enumerate(port.nets):
                # Outputs win over the driving gate's internal name;
                # keep the first (output) name when a net serves both.
                port_names.setdefault(int(net), f"{port.name}[{bit}]")
        self.bind_raw(
            circuit.num_nets,
            tuple(netlist.net_names),
            port_names,
        )

    def bind_raw(
        self,
        num_nets: int,
        net_names: Sequence[str] = (),
        port_names: Optional[Dict[int, str]] = None,
    ) -> None:
        """Testing/back-door bind without a compiled circuit."""
        self._num_nets = num_nets
        self._net_names = tuple(net_names)
        self._port_names = port_names if port_names is not None else {}

    def label_id(self, label: str) -> int:
        """Interned node id (< 0) for a labelled taint source."""
        index = self._label_ids.get(label)
        if index is None:
            index = len(self._labels)
            self._labels.append(label)
            self._label_ids[label] = index
        return -1 - index

    def ram_node(self, word: int) -> int:
        """Pseudo-net id for data-memory word *word*."""
        return self._num_nets + word

    def node_name(self, node: int) -> str:
        if node < 0:
            return self._labels[-1 - node]
        if self._num_nets and node >= self._num_nets:
            return f"ram[0x{node - self._num_nets:04x}]"
        port_name = self._port_names.get(node)
        if port_name is not None:
            return port_name
        if node < len(self._net_names) and self._net_names[node]:
            return self._net_names[node]
        return f"net{node}"

    def is_source_node(self, node: int) -> bool:
        """Labelled inputs and RAM pseudo-nets are policy-labelled
        origins; plain nets are intermediate circuit state."""
        return node < 0 or (bool(self._num_nets) and node >= self._num_nets)

    # ------------------------------------------------------------------
    # Recording (hot path: called from the compiled simulator)
    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        self.cycle = cycle
        self.edges_this_cycle = 0

    def _append(self, dsts, srcs, kind: int) -> None:
        """Ring-append equal-length dst/src id vectors."""
        count = len(dsts)
        if count == 0:
            return
        self._index = None
        capacity = self.capacity
        if count >= capacity:
            # Degenerate burst larger than the whole ring: keep the tail.
            dsts = dsts[-capacity:]
            srcs = srcs[-capacity:]
            count = capacity
        start = self.recorded % capacity
        end = start + count
        if end <= capacity:
            rows = slice(start, end)
            self._at[rows] = self.cycle
            self._dst[rows] = dsts
            self._src[rows] = srcs
            self._kind[rows] = kind
        else:
            head = capacity - start
            self._at[start:] = self.cycle
            self._dst[start:] = dsts[:head]
            self._src[start:] = srcs[:head]
            self._kind[start:] = kind
            tail = end - capacity
            self._at[:tail] = self.cycle
            self._dst[:tail] = dsts[head:]
            self._src[:tail] = srcs[head:]
            self._kind[:tail] = kind
        self.recorded += count
        self.edges_this_cycle += count
        if self.recorded > capacity:
            self._truncate(RING_WRAPPED)

    def _truncate(self, reason: str) -> None:
        self.truncated = True
        if reason not in self.truncated_by:
            self.truncated_by.append(reason)

    def record_gate(self, dsts, srcs) -> None:
        """Newly-tainted gate outputs <- their tainted fan-in nets."""
        self._append(dsts, srcs, KIND_GATE)

    def record_latch(self, q_nets, d_nets) -> None:
        """Newly-tainted flip-flop Qs <- their (tainted) D nets."""
        self._append(q_nets, d_nets, KIND_DFF)

    def record_input(self, nets, tmask: int, label: str) -> None:
        """Taint introduced on *nets* (bits set in *tmask*) by *label*."""
        dsts = [net for bit, net in enumerate(nets) if (tmask >> bit) & 1]
        if not dsts:
            return
        src = self.label_id(label)
        self._append(
            np.asarray(dsts, dtype=np.int64),
            np.full(len(dsts), src, dtype=np.int64),
            KIND_INPUT,
        )

    def record_ram_read(self, nets, tmask: int, word: int) -> None:
        """Tainted load data <- the RAM word's pseudo-net."""
        dsts = [net for bit, net in enumerate(nets) if (tmask >> bit) & 1]
        if not dsts:
            return
        self._append(
            np.asarray(dsts, dtype=np.int64),
            np.full(len(dsts), self.ram_node(word), dtype=np.int64),
            KIND_RAM,
        )

    def record_ram_write(self, words, src_nets) -> None:
        """Possibly-written RAM pseudo-nets <- tainted store-data/address
        nets.  Smeared stores are capped at :data:`RAM_WRITE_CAP` words;
        words beyond the cap keep their taint but lose the link."""
        if len(src_nets) == 0 or len(words) == 0:
            return
        if len(words) > RAM_WRITE_CAP:
            words = words[:RAM_WRITE_CAP]
            self._truncate(RAM_WRITE_CAPPED)
        srcs = np.asarray(src_nets, dtype=np.int64)
        for word in words:
            self._append(
                np.full(len(srcs), self.ram_node(int(word)), dtype=np.int64),
                srcs,
                KIND_RAM,
            )

    def record_cross(self, dsts, srcs, kind: int = KIND_GATE) -> None:
        """Every dst <- every src, capped at :data:`CROSS_EDGE_CAP` pairs
        (used for address-steered smears where which source bit caused
        which destination bit is not bit-resolvable)."""
        if len(dsts) == 0 or len(srcs) == 0:
            return
        if len(dsts) * len(srcs) > CROSS_EDGE_CAP:
            srcs = srcs[: max(1, CROSS_EDGE_CAP // max(1, len(dsts)))]
        dst_grid = np.repeat(np.asarray(dsts, dtype=np.int64), len(srcs))
        src_grid = np.tile(np.asarray(srcs, dtype=np.int64), len(dsts))
        self._append(dst_grid, src_grid, kind)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _rows_chronological(self) -> np.ndarray:
        """Valid ring rows, oldest first."""
        if self.recorded <= self.capacity:
            return np.arange(self.recorded)
        start = self.recorded % self.capacity
        return np.concatenate(
            [np.arange(start, self.capacity), np.arange(start)]
        )

    def _dst_index(self) -> "_DstIndex":
        """The valid rows sorted by destination (stable, so each node's
        events stay oldest first); built lazily, dropped on append."""
        if self._index is None:
            rows = self._rows_chronological()
            order = np.argsort(self._dst[rows], kind="stable")
            by_dst = rows[order]
            dsts = self._dst[by_dst]
            spans: Dict[int, Tuple[int, int]] = {}
            if len(dsts):
                cuts = np.flatnonzero(dsts[1:] != dsts[:-1]) + 1
                starts = [0] + cuts.tolist()
                ends = cuts.tolist() + [len(dsts)]
                spans = dict(zip(dsts[starts].tolist(), zip(starts, ends)))
            self._index = _DstIndex(
                spans=spans,
                position=order.tolist(),
                src=self._src[by_dst],
                at=self._at[by_dst],
                kind=self._kind[by_dst],
                runs={},
            )
        return self._index

    def _row_of(self, position: int) -> int:
        """Ring row of stream *position* (0 = oldest retained edge)."""
        if self.recorded <= self.capacity:
            return position
        return (self.recorded + position) % self.capacity

    def causes_of(
        self,
        node: int,
        cycle: int,
        before_position: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """``(stream position, ring row)`` pairs of the most recent taint
        event for *node*, with all fan-in edges of that one event.

        With *before_position* the event must precede that stream
        position -- a cause is always recorded before its effect, and
        honouring that keeps backward slices acyclic even though the
        tracker re-simulates the same cycle numbers on many restored
        paths.  Without it, the latest event at or before *cycle* is
        used (the entry query from a violation's sink).
        """
        index = self._dst_index()
        span = index.spans.get(node)
        if span is None:
            return []
        start, end = span
        positions, at = index.position, index.at
        if before_position is not None:
            best = bisect_left(positions, before_position, start, end) - 1
        else:
            best = end - 1
            while best >= start and at[best] > cycle:
                best -= 1
        if best < start:
            return []
        first = best
        while first > start and at[first - 1] == at[best]:
            first -= 1
        return [
            (positions[i], self._row_of(positions[i]))
            for i in range(best, first - 1, -1)
        ]

    def slice_to(
        self,
        sink_nets: Sequence[int],
        cycle: int,
        max_nodes: int = 4096,
        max_edges: int = 100_000,
    ) -> "FlowSlice":
        """Backward slice from *sink_nets* at *cycle* to taint origins.

        Chases *every* taint event of a visited node that precedes the
        stream position it was reached through (a cause is recorded
        before its effect, so the walk is causally sound and
        terminates).  Chasing only the most recent event is not enough:
        the tracker re-simulates the same cycles on restored paths, so a
        register's latest re-taint event can recirculate through hold
        muxes without ever touching the original labelled-input edge.

        A node rediscovered with a higher position bound is expanded
        again, and re-emits the edges it emitted under the lower bound;
        the slice keeps those duplicates.

        An expansion reads the node's shared :class:`_Run`: its edges up
        to the bound extend the slice, its net-sourced hops extend the
        frontier, and only each source's first event is looked at one by
        one (a node's parent edge and leaf are its first), so a walk
        costs per expanded node, not per emitted edge.
        """
        index = self._dst_index()
        spans, positions, runs = index.spans, index.position, index.runs
        num_nets = self._num_nets
        edges: List[FlowEdge] = []
        leaves: List[FlowLeaf] = []
        parents: Dict[int, Optional[FlowEdge]] = {}
        #: tightest (highest) stream-position bound processed per node;
        #: a node is re-expanded when rediscovered with a higher bound
        bounds: Dict[int, int] = {}
        sliced = False
        frontier: Deque[Tuple[int, int, int]] = deque()
        sinks = set()
        for net in sink_nets:
            if net in parents:
                continue
            parents[net] = None
            sinks.add(int(net))
            # Entry query: the sink's latest event at or before the
            # violation cycle anchors the position bound.
            entry = self.causes_of(int(net), cycle)
            if entry:
                anchor = max(position for position, _ in entry) + 1
                frontier.append((int(net), cycle, anchor))
            else:
                frontier.append((int(net), cycle, 0))
        seen_leaf_nodes = set()
        seen_leaf_labels = set()

        def note_leaf(
            node: int, at: int, labelled: bool, suffix: str = ""
        ) -> None:
            # A node always resolves to the same leaf name, so a node
            # seen once needs no second lookup.
            if node in seen_leaf_nodes:
                return
            seen_leaf_nodes.add(node)
            name = self.node_name(node) + suffix
            if name not in seen_leaf_labels:
                seen_leaf_labels.add(name)
                leaves.append(
                    FlowLeaf(node=node, name=name, cycle=at, labelled=labelled)
                )

        while frontier:
            if len(parents) > max_nodes or len(edges) > max_edges:
                sliced = True
                break
            node, at, before = frontier.popleft()
            if bounds.get(node, -1) >= before:
                continue
            bounds[node] = before
            count = 0
            span = spans.get(node)
            if span is not None:
                start, end = span
                stop = bisect_left(positions, before, start, end)
                if node in sinks:
                    # A sink's own events past the violation cycle are
                    # not its cause: a run of this query's rows alone.
                    columns = index.columns(start, stop)
                    keep = [when <= cycle for when in columns[1]]
                    run = _Run()
                    run.grow(self, node, *[
                        compress(column, keep) for column in columns
                    ])
                    count = len(run.edges)
                else:
                    run = runs.get(node)
                    if run is None:
                        run = runs[node] = _Run()
                    count = stop - start
                    built = start + len(run.edges)
                    if built < stop:
                        run.grow(self, node, *index.columns(built, stop))
            if not count:
                source = self.is_source_node(node)
                if source or node in sinks:
                    note_leaf(node, at, source)
                else:
                    # Tainted before recording started (or evicted from
                    # the ring): an honest dead end, not an origin.
                    note_leaf(node, at, False, " (unrecorded)")
                continue
            run_edges = run.edges
            edges.extend(run_edges[:count])
            hops = run.hops
            frontier.extend(hops[:bisect_left(hops, before, key=_POSITION)])
            first_rows = run.first_rows
            for row in first_rows[:bisect_left(first_rows, count)]:
                edge = run_edges[row]
                src = edge.src
                parents.setdefault(src, edge)
                if src < 0 or (num_nets and src >= num_nets):
                    # Interned labels are origins; RAM pseudo-nets are
                    # both origins (initially-tainted partitions) and
                    # conduits (store->load), so their hops are chased
                    # too.
                    note_leaf(src, edge.cycle, True)
        chain = self._chain_for(parents, leaves)
        return FlowSlice(
            sink_nets=[int(net) for net in sink_nets],
            sink_names=[self.node_name(int(n)) for n in sink_nets],
            cycle=cycle,
            edges=edges,
            leaves=leaves,
            chain=chain,
            truncated=self.truncated or sliced,
        )

    def _chain_for(
        self,
        parents: Dict[int, Optional[FlowEdge]],
        leaves: List["FlowLeaf"],
    ) -> List["FlowEdge"]:
        """One sink->origin path, preferring a policy-labelled leaf.

        Interned label nodes (``P1IN``, ``rom[...]``) outrank RAM
        pseudo-nets: a store->load flow *through* memory should chain
        back to the input that tainted the store, not stop at the word.
        """
        ordered = sorted(
            leaves, key=lambda leaf: (not leaf.labelled, leaf.node >= 0)
        )
        for leaf in ordered:
            # parents[n] is the edge with n as *source*, pointing toward
            # the sink -- so the walk already runs origin -> sink.
            chain: List[FlowEdge] = []
            edge = parents.get(leaf.node)
            while edge is not None:
                chain.append(edge)
                edge = parents.get(edge.dst)
            if chain:
                return chain
        return []

    # ------------------------------------------------------------------
    # Telemetry / export
    # ------------------------------------------------------------------
    def cycle_activity(self, buckets: int = 64) -> List[dict]:
        """Taint-propagation activity bucketed over the recorded cycle
        range (feeds the HTML heatmap)."""
        count = min(self.recorded, self.capacity)
        if count == 0:
            return []
        at = self._at[:count] if self.recorded <= self.capacity else self._at
        low = int(at.min())
        high = int(at.max()) + 1
        buckets = max(1, min(buckets, high - low))
        width = max(1, -(-(high - low) // buckets))
        histogram, _ = np.histogram(
            at, bins=buckets, range=(low, low + buckets * width)
        )
        return [
            {
                "from_cycle": low + index * width,
                "to_cycle": low + (index + 1) * width - 1,
                "edges": int(value),
            }
            for index, value in enumerate(histogram)
        ]

    def snapshot(self) -> dict:
        """JSON-ready summary (no edge dump)."""
        return {
            "edges_recorded": self.recorded,
            "edges_retained": min(self.recorded, self.capacity),
            "capacity": self.capacity,
            "truncated": self.truncated,
            "truncated_by": list(self.truncated_by),
            "labels": list(self._labels),
        }

    def export_state(self) -> dict:
        """Everything a checkpoint needs to restore this recorder."""
        retained = min(self.recorded, self.capacity)
        order = self._rows_chronological()
        return {
            "capacity": self.capacity,
            "at": self._at[order].copy(),
            "dst": self._dst[order].copy(),
            "src": self._src[order].copy(),
            "kind": self._kind[order].copy(),
            "recorded": self.recorded,
            "truncated": self.truncated,
            "truncated_by": list(self.truncated_by),
            "labels": list(self._labels),
            "num_nets": self._num_nets,
            "retained": retained,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed edge store (chronological layout)."""
        retained = int(state["retained"])
        capacity = self.capacity
        if retained > capacity:
            # Restoring into a smaller ring keeps the newest edges.
            offset = retained - capacity
            retained = capacity
        else:
            offset = 0
        self._at[:retained] = state["at"][offset:]
        self._dst[:retained] = state["dst"][offset:]
        self._src[:retained] = state["src"][offset:]
        self._kind[:retained] = state["kind"][offset:]
        # Re-anchor the ring so position `retained % capacity` is next.
        self.recorded = int(state["recorded"])
        if self.recorded > retained:
            # Lay the retained window so the ring cursor lines up.
            shift = self.recorded % capacity
            for array in (self._at, self._dst, self._src, self._kind):
                array[:] = np.roll(array, shift - retained)
        self.truncated = bool(state["truncated"])
        # Absent from checkpoints written before causes were recorded.
        self.truncated_by = list(state.get("truncated_by", ()))
        if offset > 0:
            self._truncate(RING_WRAPPED)
        self._labels = list(state["labels"])
        self._label_ids = {
            label: index for index, label in enumerate(self._labels)
        }
        if not self._num_nets:
            self._num_nets = int(state["num_nets"])
        self._index = None


class _DstIndex(NamedTuple):
    """The recorder's valid rows, stably sorted by destination node.

    Row ``i`` of the sorted order is event ``i`` of these columns; a
    node's events are ``spans[node] = (start, end)``, oldest first, so the
    ones before a stream position are one ``bisect_left`` on
    ``position``.  Only ``position`` is a list; the other columns stay
    arrays until a run reads its rows (:meth:`columns`), so the index
    holds no Python object per event it is never asked for.
    """

    spans: Dict[int, Tuple[int, int]]
    #: stream position (0 = oldest retained edge) of each event
    position: List[int]
    src: np.ndarray
    at: np.ndarray
    #: ``KIND_*`` code of each event
    kind: np.ndarray
    #: each expanded node's shared edge run, filled by the slices
    runs: Dict[int, "_Run"]

    def columns(
        self, start: int, stop: int
    ) -> Tuple[List[int], List[int], List[str], List[int]]:
        """Sources, cycles, kind names and stream positions of rows
        ``start`` to ``stop``, as lists."""
        return (
            self.src[start:stop].tolist(),
            self.at[start:stop].tolist(),
            _KIND_NAME_ARRAY.take(self.kind[start:stop]).tolist(),
            self.position[start:stop],
        )


class _Run:
    """One destination's events as shared slice pieces, oldest first.

    Row ``k`` is the node's ``k``-th event in its index span.  ``edges``
    holds a :class:`FlowEdge` per row; ``hops`` the frontier entry
    ``(src, cycle, position)`` of each row whose source is a net (a
    plain net or a RAM pseudo-net); ``first_rows`` the row of each
    source's first event.  The rows before a bound are therefore a
    prefix of each list.  Runs grow as far as the walks' bounds reach and
    are shared by every slice until an append drops the index.
    """

    __slots__ = ("edges", "hops", "first_rows")

    def __init__(self) -> None:
        self.edges: List[FlowEdge] = []
        self.hops: List[Tuple[int, int, int]] = []
        self.first_rows: List[int] = []

    def grow(
        self,
        recorder: ProvenanceRecorder,
        node: int,
        srcs: Iterable[int],
        ats: Iterable[int],
        kinds: Iterable[str],
        positions: Iterable[int],
    ) -> None:
        """Append *node*'s next events, given column by column."""
        edges, hops, first_rows = self.edges, self.hops, self.first_rows
        sources = {edges[row].src for row in first_rows}
        rows = enumerate(zip(srcs, ats, kinds, positions), len(edges))
        for row, (src, at, kind, position) in rows:
            edges.append(FlowEdge(src, node, at, kind, recorder))
            if src >= 0:
                hops.append((src, at, position))
            if src not in sources:
                sources.add(src)
                first_rows.append(row)


class FlowEdge:
    """One taint-flow hop (dst became tainted because of src).

    Node names resolve through the recorder on access: a slice holds
    tens of thousands of edges and only rendering reads their names.
    The slices of one recorder share edge objects, so treat them as
    read-only.
    """

    __slots__ = ("src", "dst", "cycle", "kind", "_recorder")

    def __init__(
        self,
        src: int,
        dst: int,
        cycle: int,
        kind: str,
        recorder: ProvenanceRecorder,
    ):
        self.src = src
        self.dst = dst
        self.cycle = cycle
        self.kind = kind
        self._recorder = recorder

    @property
    def src_name(self) -> str:
        return self._recorder.node_name(self.src)

    @property
    def dst_name(self) -> str:
        return self._recorder.node_name(self.dst)

    def __repr__(self) -> str:
        return (
            f"FlowEdge(src={self.src}, dst={self.dst}, cycle={self.cycle}, "
            f"kind={self.kind!r})"
        )

    def render(self) -> str:
        return (
            f"{self.src_name} --{self.kind}@{self.cycle}--> {self.dst_name}"
        )


@dataclass
class FlowLeaf:
    """A slice endpoint; ``labelled`` means a policy-labelled origin."""

    node: int
    name: str
    cycle: int
    labelled: bool


@dataclass
class FlowSlice:
    """The backward slice explaining one violation's taint."""

    sink_nets: List[int]
    sink_names: List[str]
    cycle: int
    #: every chased event, in walk order (duplicates included); the list
    #: is this slice's own, but its :class:`FlowEdge` objects are shared
    #: with other slices of the same recorder, so treat them as read-only
    edges: List[FlowEdge]
    leaves: List[FlowLeaf]
    #: one linear sink->origin path (root first, origin last)
    chain: List[FlowEdge]
    truncated: bool = False
    #: filled by explain_violation
    violation: Optional[object] = None

    @property
    def origins(self) -> List[str]:
        """Names of the labelled taint sources reached by the slice."""
        return sorted({leaf.name for leaf in self.leaves if leaf.labelled})

    def summary(self) -> str:
        origins = self.origins
        source = ", ".join(origins) if origins else "<unrecorded taint>"
        sink = self.chain[-1].dst_name if self.chain else (
            self.sink_names[0] if self.sink_names else "<sink>"
        )
        text = (
            f"taint from {source} reaches {sink} at cycle {self.cycle} "
            f"({len(self.edges)} edge(s), {len(self.chain)} hop chain)"
        )
        if self.truncated:
            text += " [provenance_truncated]"
        return text

    def render(self) -> str:
        lines = [self.summary()]
        if self.chain:
            lines.append("  chain (origin -> sink):")
            first = self.chain[0]
            lines.append(f"    {first.src_name}")
            for edge in self.chain:
                lines.append(
                    f"      --{edge.kind}@{edge.cycle}--> {edge.dst_name}"
                )
        dead_ends = [leaf.name for leaf in self.leaves if not leaf.labelled]
        if dead_ends:
            lines.append(
                "  unrecorded-taint dead end(s): "
                + ", ".join(sorted(set(dead_ends))[:4])
            )
        return "\n".join(lines)

    def to_document(self) -> dict:
        """JSON-ready form for ``--json`` outputs and the HTML report."""
        return {
            "cycle": self.cycle,
            "sinks": list(self.sink_names),
            "origins": self.origins,
            "edges": len(self.edges),
            "truncated": self.truncated,
            "chain": [
                {
                    "src": edge.src_name,
                    "dst": edge.dst_name,
                    "kind": edge.kind,
                    "cycle": edge.cycle,
                }
                for edge in self.chain
            ],
        }

    def to_dot(self, title: str = "taint flow") -> str:
        """The sliced subgraph as a Graphviz DOT digraph."""

        def quote(name: str) -> str:
            return '"' + name.replace('"', r"\"") + '"'

        named = [(edge, edge.src_name, edge.dst_name) for edge in self.edges]
        node_kind: Dict[str, str] = {}
        for edge, src_name, dst_name in named:
            node_kind.setdefault(src_name, "net")
            node_kind.setdefault(dst_name, "net")
            if edge.src < 0:
                node_kind[src_name] = "label"
            elif edge.kind == "ram" and src_name.startswith("ram["):
                node_kind[src_name] = "ram"
            if dst_name.startswith("ram["):
                node_kind[dst_name] = "ram"
        for name in self.sink_names:
            node_kind.setdefault(name, "net")
            node_kind[name] = "sink"
        shapes = {
            "label": "box",
            "ram": "cylinder",
            "net": "ellipse",
            "sink": "doubleoctagon",
        }
        lines = [
            "digraph taint_flow {",
            f"  label={quote(title)};",
            "  rankdir=LR;",
            "  node [fontname=monospace fontsize=10];",
        ]
        for name, kind in sorted(node_kind.items()):
            style = f"shape={shapes[kind]}"
            if kind == "label":
                style += " style=filled fillcolor=lightcoral"
            elif kind == "sink":
                style += " style=filled fillcolor=gold"
            lines.append(f"  {quote(name)} [{style}];")
        seen = set()
        for edge, src_name, dst_name in named:
            key = (src_name, dst_name, edge.kind)
            if key in seen:
                continue
            seen.add(key)
            lines.append(
                f"  {quote(src_name)} -> {quote(dst_name)} "
                f'[label="{edge.kind}@{edge.cycle}"];'
            )
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Violation -> sink mapping and the explain() entry point
# ---------------------------------------------------------------------------
#: Which circuit ports hold the tainted payload for each violation kind.
SINK_PORTS: Dict[str, Tuple[str, ...]] = {
    "tainted_write_untainted_memory": ("dmem_wdata", "dmem_addr"),
    "tainted_write_untainted_port": ("dmem_wdata", "dmem_addr"),
    "trusted_read_tainted_memory": ("dmem_rdata",),
    "trusted_read_tainted_port": ("dmem_rdata",),
    "tainted_control_flow": ("dbg_pc",),
    "tainted_state_in_trusted_code": ("dbg_pc",),
    "watchdog_tainted": ("dmem_wdata", "dmem_addr"),
}


def sink_nets_for(circuit, kind: str) -> List[int]:
    """Net ids of the violation kind's sink ports on *circuit*."""
    nets: List[int] = []
    for port in SINK_PORTS.get(kind, ("dmem_wdata",)):
        try:
            nets.extend(circuit.output_nets(port))
        except KeyError:
            nets.extend(circuit.input_nets(port))
    return nets


def explain_violation(
    result,
    violation,
    recorder: Optional[ProvenanceRecorder] = None,
    circuit=None,
    max_nodes: int = 4096,
) -> FlowSlice:
    """Backward-slice one violation to its labelled taint origins.

    *violation* is a :class:`repro.core.violations.Violation` or an index
    into ``result.violations``.  The recorder defaults to
    ``result.provenance`` (armed via ``TaintTracker(provenance=...)``).
    """
    if isinstance(violation, int):
        try:
            violation = result.violations[violation]
        except IndexError:
            raise IndexError(
                f"violation index {violation} out of range; the analysis "
                f"found {len(result.violations)} violation(s)"
            ) from None
    recorder = recorder if recorder is not None else result.provenance
    if recorder is None:
        raise ValueError(
            "no provenance was recorded for this analysis; re-run with "
            "TaintTracker(provenance=ProvenanceRecorder()) or the CLI's "
            "--provenance flag"
        )
    if circuit is None:
        circuit = getattr(result, "circuit", None)
    if circuit is None:
        raise ValueError(
            "explain_violation needs the compiled circuit the analysis "
            "ran on (pass circuit=...)"
        )
    recorder.ensure_bound(circuit)
    flow = recorder.slice_to(
        sink_nets_for(circuit, violation.kind),
        violation.cycle,
        max_nodes=max_nodes,
    )
    if not flow.edges:
        # The primary sink ports saw no recorded taint event (e.g. a
        # strict-mode state violation): fall back to the full DFF state.
        flow = recorder.slice_to(
            [int(net) for net in circuit.dff_nets()],
            violation.cycle,
            max_nodes=max_nodes,
        )
        flow.sink_names = [f"<processor state at cycle {violation.cycle}>"]
    flow.violation = violation
    return flow
