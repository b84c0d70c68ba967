"""Compiled gate-level GLIFT simulator.

A :class:`CompiledCircuit` turns a :class:`~repro.netlist.netlist.Netlist`
into one vectorised gate kernel:

* the netlist is levelised once (:mod:`repro.netlist.levelize`), and each
  topological rank becomes one group of gates;
* each cell type's full ternary+taint behaviour -- the GLIFT semantics of
  :func:`repro.logic.glift.glift_eval` -- is baked into a lookup table over
  per-net *codes*.

A net's code packs its ternary value and taint into one byte::

    code = value * 2 + taint        # value in {0, 1, X=2}, taint in {0, 1}

Every gate is evaluated as a four-input gate whose padded input columns
repeat input 0; an arity-k cell's table ignores those inputs, so the
padding is don't-care and exact.  A gate's *key* is eight bytes read as
one little-endian 64-bit integer, so it does not depend on host byte
order: its four input codes, a type code (``6 + type index``, above
every net code) and three zero bytes.  The type codes and the zero byte
sit in a constant suffix of the state buffer past the nets, so one
gather reads all eight bytes, and a rank evaluates as::

    buffer[outputs] = table[buffer[columns].view('<i8') % HASH_MODULUS]

-- one gather, one modulo, one table lookup and one scatter per rank,
whatever its mix of cell types (DESIGN.md section 13).  ``HASH_MODULUS``
is the smallest modulus that is injective over the keys of every library
cell type, so any netlist's table has ``HASH_MODULUS`` entries and needs
no search at set-up.  Full passes, cone-plan passes, provenance-recording
passes and perf-timed passes all run that one kernel
(:meth:`CompiledCircuit._sweep`).
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.logic.glift import GATE_FUNCTIONS, glift_eval
from repro.logic.ternary import UNKNOWN
from repro.logic.words import TWord
from repro.netlist.cells import CONSTANT_CELLS
from repro.netlist.levelize import levelize
from repro.netlist.netlist import Netlist
from repro.obs import get_observer
from repro.obs.perf import get_perf
from repro.obs.provenance import get_recorder

#: Codes for common states.
CODE_0 = 0  # value 0, untainted
CODE_1 = 2  # value 1, untainted
CODE_X = 4  # value X, untainted

#: Every gate is evaluated with this many (padded) inputs.
MAX_ARITY = 4
#: Entries in one cell type's padded table (every input-code combination).
LUT_ENTRIES = 6 ** MAX_ARITY
#: Combinational cell types in type-index order; a gate's type code is
#: ``6 + index``, above every net code.
CELL_TYPES: Tuple[str, ...] = tuple(sorted(GATE_FUNCTIONS))
#: Bytes in a gate key: MAX_ARITY input codes, the type code, zero bytes.
KEY_BYTES = 8
#: Smallest modulus under which ``key % HASH_MODULUS`` is injective over
#: every key of every type in :data:`CELL_TYPES`; it is the table size.
HASH_MODULUS = 32515
#: ``HASH_MODULUS`` as a numpy scalar: the kernel converts nothing per rank.
_MODULUS = np.int64(HASH_MODULUS)
#: A key's eight bytes as one little-endian integer.  Every key is below
#: ``2**40``, so the signed reading equals the unsigned one, and a signed
#: key indexes the table without numpy's uint64-to-intp index cast.
_KEY = np.dtype("<i8")
#: Key of each padded-table index with a zero type byte: input code *i*
#: is byte *i*, matching the base-6 index order of :func:`_padded_lut`.
_CODE_KEYS = np.array(
    [
        sum(code << (8 * position) for position, code in enumerate(codes))
        for codes in itertools.product(range(6), repeat=MAX_ARITY)
    ],
    dtype=np.int64,
)
#: The state buffer's suffix past the nets: every type code, then a zero.
_SUFFIX = np.array(
    [6 + index for index in range(len(CELL_TYPES))] + [0], dtype=np.uint8
)


def code_of(value: int, taint: int) -> int:
    """Pack a ternary value and a taint bit into a net code."""
    return value * 2 + taint


def decode_code(code: int) -> Tuple[int, int]:
    """Unpack a net code into ``(ternary value, taint)``."""
    return code >> 1, code & 1


def unpack_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`decode_code`: ``(values, taints)`` arrays.

    Values are ternary (0, 1, or 2 for X); taints are 0/1.  Used by the
    timeline scrub API and viewer, which reconstruct whole code arrays
    per frame.
    """
    return codes >> 1, codes & 1


def _lut_for(cell_type: str, taint_mode: str = "glift") -> np.ndarray:
    """Exhaustive taint lookup table for one cell type, indexed base-6.

    ``taint_mode="glift"`` uses the value-aware semantics of
    :func:`repro.logic.glift.glift_eval` (the paper's Figure 1);
    ``taint_mode="naive"`` uses conservative DIFT-style propagation --
    the output is tainted whenever *any* input is -- used by the ablation
    study to show why value-awareness is load-bearing (a naive tracker
    can never verify the masking repair: AND with an untainted constant
    would stay tainted).
    """
    func = GATE_FUNCTIONS[cell_type]
    arity = 1 if cell_type in ("BUF", "NOT") else (
        3 if cell_type == "MUX2" else int(cell_type[-1])
    )
    lut = np.zeros(6 ** arity, dtype=np.uint8)
    for codes in itertools.product(range(6), repeat=arity):
        values = [c >> 1 for c in codes]
        taints = [c & 1 for c in codes]
        index = 0
        for code in codes:
            index = index * 6 + code
        value, taint = glift_eval(func, values, taints)
        if taint_mode == "naive":
            taint = 1 if any(taints) else 0
        elif taint_mode != "glift":
            raise ValueError(f"unknown taint mode {taint_mode!r}")
        lut[index] = code_of(value, taint)
    return lut


_LUT_CACHE: Dict[Tuple[str, str], np.ndarray] = {}


def _padded_lut(cell_type: str, taint_mode: str = "glift") -> np.ndarray:
    """A cell type's table broadcast to :data:`MAX_ARITY` inputs.

    Each entry of the arity-k table repeats over the ``6**(4 - k)``
    values of the padded digits, so those inputs cannot change the
    result.
    """
    key = (cell_type, taint_mode)
    if key not in _LUT_CACHE:
        lut = _lut_for(cell_type, taint_mode)
        _LUT_CACHE[key] = np.repeat(lut, LUT_ENTRIES // len(lut))
    return _LUT_CACHE[key]


class _Rank(NamedTuple):
    """The gates of one topological rank (or a cone plan's subset).

    Gates are ordered by cell type, then netlist order; provenance
    ranks and the recorded edge stream depend on that order.
    """

    inputs: np.ndarray  # (n, MAX_ARITY) net ids, padded with input 0
    outputs: np.ndarray  # (n,) net ids
    columns: np.ndarray  # (n * KEY_BYTES,) buffer index of each key byte
    types: np.ndarray  # (n,) index into CELL_TYPES
    cells: Tuple[Tuple[str, int], ...]  # (cell type, gates), sorted


class _Plan:
    """Ranks in evaluation order plus their per-pass gate counts."""

    __slots__ = ("ranks", "gates_by_type", "total")

    def __init__(self, ranks: List[_Rank]):
        self.ranks = ranks
        by_type: Dict[str, int] = {}
        for rank in ranks:
            for cell_type, count in rank.cells:
                by_type[cell_type] = by_type.get(cell_type, 0) + count
        self.gates_by_type = by_type
        self.total = sum(by_type.values())


class CircuitState:
    """Per-net codes for one simulation state (mutable, cheap to copy).

    ``buffer`` holds the net codes followed by the constant key suffix
    the gate kernel gathers from; ``codes`` is a view of just the nets.
    """

    __slots__ = ("buffer", "codes")

    def __init__(self, buffer: np.ndarray, num_nets: int):
        self.buffer = buffer
        self.codes = buffer[:num_nets]

    def copy(self) -> "CircuitState":
        return CircuitState(self.buffer.copy(), len(self.codes))


class CompiledCircuit:
    """A netlist compiled for fast ternary+taint cycle simulation."""

    def __init__(self, netlist: Netlist, taint_mode: str = "glift"):
        netlist.validate()
        self.netlist = netlist
        self.taint_mode = taint_mode
        self.num_nets = netlist.num_nets

        self._const_nets: List[int] = []
        self._const_codes: List[int] = []
        for gate in netlist.gates:
            if gate.cell_type in CONSTANT_CELLS:
                self._const_nets.append(gate.output)
                self._const_codes.append(
                    CODE_1 if gate.cell_type == "TIE1" else CODE_0
                )
        self._const_nets_arr = np.array(self._const_nets, dtype=np.int64)
        self._const_codes_arr = np.array(self._const_codes, dtype=np.uint8)

        with get_observer().span("levelize"):
            levels = [
                sorted(level, key=lambda gate: gate.cell_type)
                for level in levelize(netlist)[1:]
            ]
        type_of = {
            cell_type: index for index, cell_type in enumerate(CELL_TYPES)
        }
        arity_of = {
            gate.cell_type: len(gate.inputs)
            for level in levels
            for gate in level
        }
        #: arity of each cell type, by type index (0 for types not present)
        self._arity = np.array(
            [arity_of.get(cell_type, 0) for cell_type in CELL_TYPES],
            dtype=np.int64,
        )
        #: the hashed table: entry ``key % HASH_MODULUS`` is the output
        #: code of the gate whose key is *key*
        self._table = np.zeros(HASH_MODULUS, dtype=np.uint8)
        for index in np.flatnonzero(self._arity).tolist():
            keys = _CODE_KEYS | (6 + index) << 32
            self._table[keys % HASH_MODULUS] = _padded_lut(
                CELL_TYPES[index], taint_mode
            )
        ranks = []
        for gates in levels:
            inputs = np.array(
                [
                    list(gate.inputs)
                    + [gate.inputs[0]] * (MAX_ARITY - len(gate.inputs))
                    for gate in gates
                ],
                dtype=np.int64,
            )
            outputs = np.array([gate.output for gate in gates],
                               dtype=np.int64)
            types = np.array([type_of[gate.cell_type] for gate in gates],
                             dtype=np.int64)
            ranks.append(self._rank(inputs, outputs, types))
        self._full_plan = _Plan(ranks)
        #: cone plans by output-port tuple (see :meth:`cone_plan`)
        self._cone_plans: Dict[Tuple[str, ...], _Plan] = {}
        #: gate-eval counter increments per plan, valid for
        #: ``_counter_registry`` only (see :meth:`_count_gate_evals`)
        self._counter_registry = None
        self._counter_cache: Dict[_Plan, list] = {}

        self._dff_q = np.array([d.q for d in netlist.dffs], dtype=np.int64)
        self._dff_d = np.array([d.d for d in netlist.dffs], dtype=np.int64)

        self._inputs = {p.name: p.nets for p in netlist.inputs}
        self._outputs = {p.name: p.nets for p in netlist.outputs}
        #: per-port net-id arrays for one-gather port reads/writes
        self._input_arrays = {
            name: np.array(nets, dtype=np.int64)
            for name, nets in self._inputs.items()
        }
        self._output_arrays = {
            name: np.array(nets, dtype=np.int64)
            for name, nets in self._outputs.items()
        }

    def _rank(self, inputs: np.ndarray, outputs: np.ndarray,
              types: np.ndarray) -> _Rank:
        columns = np.empty((len(outputs), KEY_BYTES), dtype=np.int64)
        columns[:, :MAX_ARITY] = inputs
        columns[:, MAX_ARITY] = self.num_nets + types
        columns[:, MAX_ARITY + 1:] = self.num_nets + len(CELL_TYPES)
        counts = np.bincount(types, minlength=len(CELL_TYPES)).tolist()
        cells = tuple(
            (cell_type, count)
            for cell_type, count in zip(CELL_TYPES, counts)
            if count
        )
        return _Rank(inputs, outputs, columns.ravel(), types, cells)

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def new_state(self) -> CircuitState:
        """Fresh state: every net (including all flip-flops) untainted X.

        This is Algorithm 1 line 2: "initialize all memory cells and all
        gates in design_netlist to untainted X".
        """
        buffer = np.concatenate(
            [np.full(self.num_nets, CODE_X, dtype=np.uint8), _SUFFIX]
        )
        return CircuitState(buffer, self.num_nets)

    def dff_state(self, state: CircuitState) -> np.ndarray:
        """The flip-flop snapshot (copy) -- the circuit's true state."""
        return state.codes[self._dff_q].copy()

    def set_dff_state(self, state: CircuitState, snapshot: np.ndarray) -> None:
        state.codes[self._dff_q] = snapshot

    @property
    def num_dffs(self) -> int:
        return len(self._dff_q)

    # ------------------------------------------------------------------
    # Port access
    # ------------------------------------------------------------------
    def set_input(self, state: CircuitState, name: str, word: TWord) -> None:
        nets = self._input_arrays[name]
        if len(nets) != word.width:
            raise ValueError(
                f"port {name} is {len(nets)} bits, got {word.width}"
            )
        self._scatter_word(state, nets, word)

    def read_output(self, state: CircuitState, name: str) -> TWord:
        return self._gather_word(state, self._output_arrays[name])

    def set_nets(
        self, state: CircuitState, nets: Sequence[int], word: TWord
    ) -> None:
        if not isinstance(nets, np.ndarray):
            nets = np.array(nets, dtype=np.int64)
        self._scatter_word(state, nets, word)

    def read_nets(self, state: CircuitState, nets: Sequence[int]) -> TWord:
        if not isinstance(nets, np.ndarray):
            nets = np.array(nets, dtype=np.int64)
        return self._gather_word(state, nets)

    def _scatter_word(
        self, state: CircuitState, nets: np.ndarray, word: TWord
    ) -> None:
        """One fancy-indexed write instead of a per-bit scalar loop."""
        width = len(nets)
        bits, xmask, tmask = word.bits, word.xmask, word.tmask
        buffer = bytearray(width)
        for index in range(width):
            probe = 1 << index
            if xmask & probe:
                value = UNKNOWN
            else:
                value = 1 if bits & probe else 0
            buffer[index] = value * 2 + (1 if tmask & probe else 0)
        state.codes[nets] = np.frombuffer(bytes(buffer), dtype=np.uint8)

    def _gather_word(
        self, state: CircuitState, nets: np.ndarray
    ) -> TWord:
        """One gather + a bytes loop: numpy scalar indexing is ~10x the
        cost of iterating a ``bytes`` of the same codes."""
        bits = 0
        xmask = 0
        tmask = 0
        probe = 1
        for code in state.codes[nets].tobytes():
            value = code >> 1
            if value == UNKNOWN:
                xmask |= probe
            elif value:
                bits |= probe
            if code & 1:
                tmask |= probe
            probe <<= 1
        return TWord(bits, xmask, tmask, len(nets))

    def input_nets(self, name: str) -> Tuple[int, ...]:
        return self._inputs[name]

    def output_nets(self, name: str) -> Tuple[int, ...]:
        return self._outputs[name]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def eval_combinational(self, state: CircuitState) -> None:
        """Propagate codes through all combinational logic (one pass)."""
        self._evaluate(state, self._full_plan, "full")

    def eval_plan(self, state: CircuitState, plan: _Plan) -> None:
        """Evaluate a pre-grouped cone (see :meth:`cone_plan`)."""
        self._evaluate(state, plan, "interface")

    def _evaluate(self, state: CircuitState, plan: _Plan, kind: str) -> None:
        """One pass over *plan*, recorded or timed when a provenance or
        perf recorder is armed (provenance wins if both are)."""
        codes = state.codes
        if len(self._const_nets_arr):
            codes[self._const_nets_arr] = self._const_codes_arr
        recorder = get_recorder()
        perf = get_perf() if recorder is None else None
        if recorder is not None:
            before = codes.copy()
            self._sweep(state.buffer, plan)
            self._record_fresh_taint(codes, before, recorder)
        elif perf is not None:
            perf.ensure_bound(self)
            slots = perf.group_slots(plan, kind)
            pass_start = perf_counter()
            self._sweep(state.buffer, plan, slots)
            perf.note_pass(kind, perf_counter() - pass_start)
            if kind == "full":
                perf.sample(codes)
        else:
            self._sweep(state.buffer, plan)
        obs = get_observer()
        if obs.enabled:
            self._count_gate_evals(obs.metrics, plan)

    def _sweep(
        self,
        buffer: np.ndarray,
        plan: _Plan,
        slots: Optional[List[float]] = None,
    ) -> None:
        """The gate kernel: evaluate *plan*'s ranks in order on a state
        *buffer* (net codes plus the key suffix).

        With *slots* (perf attribution), each rank's wall time is added
        to its slot: one ``perf_counter`` call and one float add per
        rank, benched under 15% by
        ``benchmarks/bench_perf_attribution.py``.
        """
        table = self._table
        mark = perf_counter() if slots is not None else 0.0
        for index, (_inputs, outputs, columns, _types, _cells) in enumerate(
            plan.ranks
        ):
            buffer[outputs] = table[buffer[columns].view(_KEY) % _MODULUS]
            if slots is not None:
                now = perf_counter()
                slots[index] += now - mark
                mark = now

    def _producer_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-net fan-in table and topological rank for provenance.

        ``table`` is ``(num_nets, max_arity)``: row *n* holds the input
        net ids of the gate driving net *n* (-1 padded, including the
        kernel's repeated padding inputs; nets without a combinational
        producer -- DFF Qs, ports, constants -- stay all -1).
        ``rank[n]`` is the driving gate's position in evaluation order,
        used to emit a pass's edges cause-before-effect.  Built lazily
        on the first provenance-recording pass.
        """
        cached = getattr(self, "_prod_tables", None)
        if cached is None:
            width = int(self._arity.max(initial=1))
            table = np.full((self.num_nets, width), -1, dtype=np.int64)
            rank = np.zeros(self.num_nets, dtype=np.int64)
            counter = 0
            for inputs, outputs, _columns, types, _cells in (
                self._full_plan.ranks
            ):
                arity = self._arity[types]
                for position in range(width):
                    real = arity > position
                    table[outputs[real], position] = inputs[real, position]
                rank[outputs] = np.arange(counter, counter + len(outputs))
                counter += len(outputs)
            cached = self._prod_tables = (table, rank)
        return cached

    def _record_fresh_taint(
        self, codes: np.ndarray, before: np.ndarray, recorder
    ) -> None:
        """Per-gate taint provenance for the pass that turned *before*
        into *codes*.

        Provenance costs two whole-array operations per pass -- the
        snapshot taken before, the taint diff here -- plus fan-in
        resolution for just the newly-tainted nets.  Each net is written
        at most once per pass and its fan-ins come from earlier ranks,
        so the post-pass codes are exactly what the producing gate read,
        and the diff attributes every new taint bit to the right edges.
        Edges are emitted in the gates' evaluation order: the backward
        slicer relies on a cause being recorded before its effect.
        """
        fresh = np.nonzero(codes & ~before & 1)[0]
        if len(fresh) == 0:
            return
        table, rank = self._producer_tables()
        fresh = fresh[np.argsort(rank[fresh])]
        fan_in = table[fresh]  # (n, max_arity)
        # Row-major ravel keeps each gate's fan-in edges consecutive, so
        # the stream stays topologically ordered within the pass.
        src_flat = fan_in.ravel()
        dst_flat = np.repeat(fresh, fan_in.shape[1])
        mask = (src_flat >= 0) & (
            (codes[np.maximum(src_flat, 0)] & 1).astype(bool)
        )
        if mask.any():
            recorder.record_gate(dst_flat[mask], src_flat[mask])

    def _count_gate_evals(self, metrics, plan: _Plan) -> None:
        """Add one pass over *plan* to the gate-eval counters.

        The counter objects are cached per plan, and the cache belongs
        to one registry held by reference: a new registry is a different
        object even when it reuses a freed one's address, so a run's
        increments never land in a dead registry's counters.
        """
        if self._counter_registry is not metrics:
            self._counter_registry = metrics
            self._counter_cache = {}
        increments = self._counter_cache.get(plan)
        if increments is None:
            increments = [
                (metrics.counter("sim.eval_passes"), 1),
                (metrics.counter("sim.gate_evals"), plan.total),
            ]
            increments.extend(
                (metrics.counter(f"sim.gate_evals.{cell_type}"), count)
                for cell_type, count in plan.gates_by_type.items()
            )
            self._counter_cache[plan] = increments
        for counter, amount in increments:
            counter.value += amount

    def cone_plan(self, port_names: Sequence[str]) -> _Plan:
        """The rank rows feeding the named output ports.

        Used by the SoC's first evaluation pass, which only needs the
        memory-interface signals; the full pass runs after read data is
        applied.  Memoised per port tuple, so every SoC on this circuit
        shares one plan and the per-plan caches (gate-eval counters,
        perf slots) stay bounded.
        """
        key = tuple(port_names)
        plan = self._cone_plans.get(key)
        if plan is None:
            plan = self._cone_plans[key] = self._build_cone_plan(key)
        return plan

    def _build_cone_plan(self, port_names: Tuple[str, ...]) -> _Plan:
        producers = {gate.output: gate.inputs for gate in self.netlist.gates}
        needed = set()
        stack = [net for name in port_names for net in self._outputs[name]]
        while stack:
            net = stack.pop()
            if net not in needed:
                needed.add(net)
                stack.extend(producers.get(net, ()))
        in_cone = np.zeros(self.num_nets, dtype=bool)
        in_cone[list(needed)] = True
        ranks = []
        for rank in self._full_plan.ranks:
            keep = in_cone[rank.outputs]
            if keep.all():
                ranks.append(rank)
            elif keep.any():
                ranks.append(
                    self._rank(
                        rank.inputs[keep],
                        rank.outputs[keep],
                        rank.types[keep],
                    )
                )
        return _Plan(ranks)

    def clock_edge(self, state: CircuitState) -> None:
        """Latch every flip-flop: ``Q <= D``."""
        perf = get_perf()
        edge_start = perf_counter() if perf is not None else 0.0
        recorder = get_recorder()
        if recorder is not None:
            codes = state.codes
            newly = (codes[self._dff_d] & 1) & (codes[self._dff_q] & 1 ^ 1)
            picks = np.nonzero(newly)[0]
            if len(picks):
                recorder.record_latch(
                    self._dff_q[picks], self._dff_d[picks]
                )
        state.codes[self._dff_q] = state.codes[self._dff_d]
        if perf is not None:
            perf.note_clock_edge(perf_counter() - edge_start)

    def dff_nets(self) -> np.ndarray:
        """Net ids of every flip-flop Q (read-only view)."""
        return self._dff_q

    def taint_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently tainted (used by the *-logic study)."""
        return float(np.mean(state.codes & 1))

    def unknown_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently unknown."""
        return float(np.mean(state.codes >= 4))
