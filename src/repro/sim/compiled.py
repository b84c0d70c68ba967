"""Compiled gate-level GLIFT simulator.

A :class:`CompiledCircuit` turns a :class:`~repro.netlist.netlist.Netlist`
into one vectorised table-lookup kernel.  A net's code packs its ternary
value and taint into one byte::

    code = value * 2 + taint        # value in {0, 1, X=2}, taint in {0, 1}

Each cell type's full ternary+taint behaviour -- the GLIFT semantics of
:func:`repro.logic.glift.glift_eval` -- is baked into a lookup table over
its input codes (:func:`_lut_for`).

The circuit holds two plans of the same logic (DESIGN.md section 13):

* the **per-gate** plan: each topological rank of
  :func:`~repro.netlist.levelize.levelize` is one group, every gate one
  lookup, and a pass writes every net (65 ranks on the LP430);
* the **cut-mapped** plan: a depth-oriented priority-cut pass, as FPGA
  K-LUT mappers do (FlowMap, Cong & Ding 1994), covers the logic
  feeding every flip-flop D and every output-port net with cuts of at
  most four leaves (30 ranks on the LP430).  A cut's table composes its
  gates' tables over every leaf-code combination, so each root gets the
  per-gate code bit for bit; nets inside a cut are not written.

A pass runs the mapped plan unless the state's owner reads nets inside
the cuts (:meth:`CompiledCircuit.pass_plan`).

Every gate or cut evaluates as a four-input function whose padded input
columns repeat input 0; its table ignores them, so the padding is exact.
Its *key* is eight bytes read as one little-endian 64-bit integer, so it
does not depend on host byte order: the four input codes, then the four
bytes of its function's *suffix word*.  The suffix words sit past the
nets in the state buffer, so one gather reads a whole key, and a rank
evaluates as::

    buffer[outputs] = table[buffer[columns].view('<i8') % modulus]

-- one gather, one modulo, one table lookup and one scatter per rank,
whatever its mix of functions.  The modulus is built, not searched for:
with F functions (the library cell types plus the netlist's distinct
multi-gate cut functions), ``modulus = CODE_MODULUS * F'`` for the
smallest odd ``F' >= F``, and function *f*'s suffix word makes its keys
congruent to ``codes + f * CODE_MODULUS``, so no two keys share an entry
(:func:`_suffix_words`).  Full passes, cone- and fanout-plan passes and
provenance-recording passes all run that one kernel
(:meth:`CompiledCircuit._sweep`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.logic.glift import GATE_FUNCTIONS
from repro.logic.ternary import UNKNOWN
from repro.logic.words import TWord
from repro.netlist.cells import CELL_LIBRARY, CONSTANT_CELLS
from repro.netlist.levelize import levelize
from repro.netlist.netlist import Gate, Netlist
from repro.obs import NO_INSTRUMENTS, NULL_OBSERVER, Instruments

#: Codes for common states.
CODE_0 = 0  # value 0, untainted
CODE_1 = 2  # value 1, untainted
CODE_X = 4  # value X, untainted

#: Every gate and cut is evaluated with this many (padded) inputs.
MAX_ARITY = 4
#: Entries in one function's padded table (every input-code combination).
LUT_ENTRIES = 6 ** MAX_ARITY
#: Combinational cell types; a cell type's function index is its index
#: here, and cut functions follow them.
CELL_TYPES: Tuple[str, ...] = tuple(sorted(GATE_FUNCTIONS))
#: Bytes in a key: MAX_ARITY input codes, then the function's suffix word.
KEY_BYTES = 8
#: Bytes in a function's suffix word.
SUFFIX_BYTES = KEY_BYTES - MAX_ARITY
#: The smallest modulus under which the input-code half of every key
#: (the LUT_ENTRIES combinations of four codes) is injective.
CODE_MODULUS = 1535
#: Most gates one cut's expression may hold (8 is the LP430's largest).
MAX_CUT_GATES = 16
#: Taint semantics a circuit can bake into its tables.
TAINT_MODES = ("glift", "naive")
#: A key's eight bytes as one little-endian integer.  Every key is below
#: ``2**63``, so the signed reading equals the unsigned one, and a signed
#: key indexes the table without numpy's uint64-to-intp index cast.
_KEY = np.dtype("<i8")
#: Input codes of every padded-table index, one column per input, in the
#: base-6 order of :func:`_lut_for` (input 0 most significant).
_CODE_DIGITS = np.indices((6,) * MAX_ARITY, dtype=np.int64).reshape(
    MAX_ARITY, -1
).T
#: The input-code half of each padded-table index's key: code *i* is
#: byte *i*.
_CODE_KEYS = _CODE_DIGITS @ np.array(
    [1 << (8 * position) for position in range(MAX_ARITY)], dtype=np.int64
)

#: A cut's expression: a leaf (net id, or leaf position once relabelled)
#: or a cell type applied to its inputs' expressions.
Expr = Union[int, tuple]


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

    The table is computed on bitmasks over the cell's ``2**k`` concrete
    input assignments (assignment *a* gives input *i* bit *i* of *a*),
    one numpy pass per input over all ``6**k`` code combinations:

    * the output value is known iff the function is constant over the
      assignments consistent with every known input value;
    * the output is tainted iff, among the assignments consistent with
      the known *untainted* inputs, two that differ only in tainted
      inputs give different outputs -- ``glift_eval``'s definition.
    """
    if taint_mode not in TAINT_MODES:
        raise ValueError(f"unknown taint mode {taint_mode!r}")
    func = GATE_FUNCTIONS[cell_type]
    arity = CELL_LIBRARY[cell_type].arity
    assignments = range(1 << arity)
    full = (1 << len(assignments)) - 1
    ones = sum(
        1 << a
        for a in assignments
        if func(*((a >> i) & 1 for i in range(arity)))
    )
    # Every code combination of k inputs: the first 6**k rows of the
    # four-input digits, whose leading digits are 0.
    codes = _CODE_DIGITS[: 6 ** arity, MAX_ARITY - arity:]
    values, taints = codes >> 1, codes & 1
    high = [  # assignments whose input i is 1
        sum(1 << a for a in assignments if (a >> i) & 1)
        for i in range(arity)
    ]
    consistent = np.full(len(codes), full, dtype=np.int64)
    steady = consistent.copy()  # consistent with the untainted inputs
    for i in range(arity):
        allowed = np.where(values[:, i] == 1, high[i], full ^ high[i])
        allowed[values[:, i] == UNKNOWN] = full
        consistent &= allowed
        steady &= np.where(taints[:, i] == 1, full, allowed)
    lifted = consistent & ones
    value = np.where(
        lifted == consistent, 1, np.where(lifted == 0, 0, UNKNOWN)
    )
    if taint_mode == "naive":
        taint = taints.any(axis=1)
    else:
        # Close the steady 1-assignments under flipping tainted inputs;
        # a steady 0-assignment in the closure is a tainted flow.
        reach = steady & ones
        for i in range(arity):
            shift = 1 << i
            flipped = ((reach & (full ^ high[i])) << shift) | (
                (reach & high[i]) >> shift
            )
            reach = np.where(taints[:, i] == 1, reach | flipped, reach)
        taint = (reach & steady & (full ^ ones)) != 0
    return (value * 2 + taint).astype(np.uint8)


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


def _table_modulus(num_functions: int) -> int:
    """The table size for *num_functions* functions: ``CODE_MODULUS``
    times the smallest odd number not below *num_functions*."""
    return CODE_MODULUS * (num_functions | 1)


def _suffix_words(num_functions: int) -> np.ndarray:
    """Each function's suffix word, ``f * CODE_MODULUS / 2**32`` modulo
    :func:`_table_modulus`.

    The word is the key's upper four bytes, so a key of function *f* is
    congruent to ``codes + f * CODE_MODULUS`` modulo the table size M
    (M is odd, so ``2**32`` is invertible).  M is a multiple of
    ``CODE_MODULUS``, so an entry index modulo ``CODE_MODULUS`` is
    ``codes % CODE_MODULUS``, which fixes the codes; what remains,
    ``f * CODE_MODULUS`` modulo M, fixes *f* because ``f < M /
    CODE_MODULUS``.  So every key of every function has its own entry.
    """
    modulus = _table_modulus(num_functions)
    step = CODE_MODULUS * pow(1 << 32, -1, modulus) % modulus
    return np.array(
        [f * step % modulus for f in range(num_functions)], dtype="<u4"
    )


def _map_cuts(
    gates: Sequence[Gate], num_nets: int, roots: Sequence[int]
) -> Dict[int, Tuple[int, Tuple[int, ...], Expr]]:
    """Cover the logic feeding *roots* with cuts of at most
    :data:`MAX_ARITY` leaves, minimising depth.

    A depth-oriented priority-cut pass keeping one cut per net.  In
    topological order, a gate whose deepest inputs (its *critical*
    inputs) sit at depth *d* takes the cut that replaces each critical
    input by that input's cut, at depth *d* -- no merge of input cuts
    goes lower -- when it has at most :data:`MAX_ARITY` leaves, and its
    own inputs, at depth *d + 1*, otherwise.  Sources (ports, flip-flop
    Qs, constants) have depth 0.  A cut carries its expression (the cell
    type applied to its inputs' expressions, a leaf being its net id),
    so its table needs no second walk; a merge whose expression would
    hold more than :data:`MAX_CUT_GATES` gates is refused, which bounds
    tabulation where reconvergent logic would double the tree at every
    level.  The cover then takes each
    root's cut and, recursively, the cuts of its gate-driven leaves.
    Returns ``{net: (depth, sorted leaves, expression)}`` for every net
    of the cover.
    """
    depth = [0] * num_nets
    # each gate-driven net's cut: its leaves, expression and gate count
    cut_leaves: List[Optional[Tuple[int, ...]]] = [None] * num_nets
    cut_expr: List[Expr] = [0] * num_nets
    cut_size = [0] * num_nets
    for gate in gates:
        inputs = gate.inputs
        critical = max([depth[net] for net in inputs])
        leaves = inputs
        expr = (gate.cell_type,) + inputs
        size = 1
        if critical:
            merged = set()
            exprs = [gate.cell_type]
            grown = 1
            for net in inputs:
                if depth[net] == critical:
                    merged.update(cut_leaves[net])
                    exprs.append(cut_expr[net])
                    grown += cut_size[net]
                else:
                    merged.add(net)
                    exprs.append(net)
            if len(merged) <= MAX_ARITY and grown <= MAX_CUT_GATES:
                leaves, expr, size = tuple(merged), tuple(exprs), grown
            else:
                critical += 1
        else:
            critical = 1
        out = gate.output
        depth[out] = critical
        cut_leaves[out], cut_expr[out], cut_size[out] = leaves, expr, size
    cover: Dict[int, Tuple[int, Tuple[int, ...], Expr]] = {}
    stack = [net for net in roots if cut_leaves[net] is not None]
    while stack:
        net = stack.pop()
        if net not in cover:
            leaves = cut_leaves[net]
            cover[net] = (depth[net], tuple(sorted(set(leaves))),
                          cut_expr[net])
            stack.extend(
                leaf for leaf in leaves if cut_leaves[leaf] is not None
            )
    return cover


def _relabel(expr: Expr, position: Dict[int, int]) -> Expr:
    """*expr* with each leaf net replaced by its leaf position."""
    return (expr[0],) + tuple([
        position[child] if child.__class__ is int
        else _relabel(child, position)
        for child in expr[1:]
    ])


def _tabulate(structure: Expr, taint_mode: str) -> np.ndarray:
    """A cut's padded table: its gates' padded tables composed over
    every leaf-code combination, in :data:`_CODE_DIGITS` order.

    Leaves past the cut's own repeat leaf 0 and are never read, so they
    are don't-care exactly as a gate's padded inputs are.  Per-gate
    composition is what the per-gate plan computes; a cut's precise
    whole-function GLIFT would be more precise and change verdicts.
    """
    index = 0
    for child in structure[1:]:
        index = index * 6 + (
            _CODE_DIGITS[:, child] if child.__class__ is int
            else _tabulate(child, taint_mode)
        )
    # The arity-k index scaled past the padded digits, which repeat the
    # entry (see _padded_lut).
    index *= 6 ** (MAX_ARITY + 1 - len(structure))
    return _padded_lut(structure[0], taint_mode)[index].astype(np.int64)


class _Rank(NamedTuple):
    """The gates (or cuts) of one rank, or a cone or fanout plan's subset.

    In a per-gate rank, gates are ordered by cell type, then netlist
    order; provenance ranks and the recorded edge stream depend on that
    order.
    """

    inputs: np.ndarray  # (n, MAX_ARITY) net ids, padded with input 0
    outputs: np.ndarray  # (n,) net ids
    columns: np.ndarray  # (n * KEY_BYTES,) buffer index of each key byte
    functions: np.ndarray  # (n,) function index (a CELL_TYPES index)
    cells: Tuple[Tuple[str, int], ...]  # (cell type, gates), per-gate only


class _Plan:
    """Ranks in evaluation order plus their per-pass gate counts.

    A per-gate plan carries its cut-mapped form in ``mapped``; the gate
    counts are always the per-gate plan's, so gate-eval counters count
    netlist gates whichever form runs.
    """

    __slots__ = ("ranks", "gates_by_type", "total", "mapped")

    def __init__(self, ranks: List[_Rank], mapped: Optional["_Plan"] = None):
        self.ranks = ranks
        self.mapped = mapped
        by_type: Dict[str, int] = {}
        for rank in ranks:
            for cell_type, count in rank.cells:
                by_type[cell_type] = by_type.get(cell_type, 0) + count
        self.gates_by_type = by_type
        self.total = sum(by_type.values())


class CircuitState:
    """Per-net codes for one simulation state (mutable, cheap to copy).

    ``buffer`` holds the net codes followed by the constant suffix words
    the gate kernel gathers from; ``codes`` is a view of just the nets.
    ``every_net`` says whether this state's readers may read any net
    (the default) or only flip-flops and ports, which lets passes run the
    cut-mapped plan (see :meth:`CompiledCircuit.pass_plan`).
    ``instruments`` are what records this state's passes (the default
    records nothing; a copy starts with the default).  A SoC arms both
    (:meth:`repro.sim.soc.SoC.arm`): the circuit is shared, so a run's
    instruments ride on its state, never on the circuit.
    """

    __slots__ = ("buffer", "codes", "every_net", "instruments")

    def __init__(
        self, buffer: np.ndarray, num_nets: int, every_net: bool = True
    ):
        self.buffer = buffer
        self.codes = buffer[:num_nets]
        self.every_net = every_net
        self.instruments: Instruments = NO_INSTRUMENTS

    def copy(self) -> "CircuitState":
        return CircuitState(
            self.buffer.copy(), len(self.codes), self.every_net
        )


class CompiledCircuit:
    """A netlist compiled for fast ternary+taint cycle simulation.

    One compiled circuit may serve many SoCs and runs (see
    :func:`repro.cpu.compiled_cpu`), so it holds no run's instruments:
    *obs* only times the compile phases, and each pass reads its run's
    :class:`~repro.obs.Instruments` from the state it evaluates.
    """

    def __init__(
        self, netlist: Netlist, taint_mode: str = "glift",
        obs=NULL_OBSERVER,
    ):
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

        with obs.span("levelize"):
            levels = [
                sorted(level, key=lambda gate: gate.cell_type)
                for level in levelize(netlist)[1:]
            ]
        type_of = {
            cell_type: index for index, cell_type in enumerate(CELL_TYPES)
        }
        #: arity of each cell type, by type index
        self._arity = np.array(
            [CELL_LIBRARY[cell_type].arity for cell_type in CELL_TYPES],
            dtype=np.int64,
        )
        roots = [dff.d for dff in netlist.dffs] + [
            net for port in netlist.outputs for net in port.nets
        ]
        with obs.span("map_cuts"):
            cover = _map_cuts(
                [gate for level in levels for gate in level],
                self.num_nets,
                roots,
            )
        with obs.span("tabulate_cuts"):
            tables = [
                _padded_lut(cell_type, taint_mode) for cell_type in CELL_TYPES
            ]
            mapped_rows = self._cut_rows(cover, tables, type_of)
            self._build_table(tables)

        ranks = []
        for gates in levels:
            inputs = np.array(
                [_padded(gate.inputs) for gate in gates], dtype=np.int64
            )
            outputs = np.array([gate.output for gate in gates],
                               dtype=np.int64)
            functions = np.array([type_of[gate.cell_type] for gate in gates],
                                 dtype=np.int64)
            ranks.append(self._rank(inputs, outputs, functions))
        self._full_plan = _Plan(ranks, _Plan(self._mapped_ranks(mapped_rows)))
        #: cone and fanout plans by kind and port tuple (see
        #: :meth:`cone_plan` and :meth:`fanout_plan`)
        self._subplans: Dict[Tuple[str, Tuple[str, ...]], _Plan] = {}
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

    def _cut_rows(
        self,
        cover: Dict[int, Tuple[int, Tuple[int, ...], Expr]],
        tables: List[np.ndarray],
        type_of: Dict[str, int],
    ) -> List[Tuple[int, int, int, Tuple[int, ...]]]:
        """One ``(depth, function, root, padded leaves)`` row per cut.

        A one-gate cut is its cell type over the gate's own inputs.  A
        larger cut's leaves are sorted, its expression is relabelled to
        leaf positions (its *structure*), and each new structure is
        tabulated once; structures with equal tables share a function,
        appended to *tables*.  ``_cut_structures`` keeps one structure
        per cut function, in function order.
        """
        function_of: Dict[Expr, int] = {}
        by_table = {
            table.tobytes(): index for index, table in enumerate(tables)
        }
        self._cut_structures: List[Expr] = []
        rows = []
        for root, (depth, leaves, expr) in cover.items():
            if all(isinstance(child, int) for child in expr[1:]):
                function, inputs = type_of[expr[0]], expr[1:]
            else:
                inputs = leaves
                structure = _relabel(
                    expr, {leaf: index for index, leaf in enumerate(leaves)}
                )
                function = function_of.get(structure)
                if function is None:
                    table = _tabulate(structure, self.taint_mode).astype(
                        np.uint8
                    )
                    function = by_table.setdefault(
                        table.tobytes(), len(tables)
                    )
                    if function == len(tables):
                        tables.append(table)
                        self._cut_structures.append(structure)
                    function_of[structure] = function
            rows.append((depth, function, root, _padded(inputs)))
        return rows

    def _build_table(self, tables: List[np.ndarray]) -> None:
        """The table, modulus and suffix words for *tables* (one padded
        table per function, in function order)."""
        words = _suffix_words(len(tables))
        modulus = _table_modulus(len(tables))
        #: the table size, as a numpy scalar: the kernel converts nothing
        self._modulus = np.int64(modulus)
        #: the state buffer's suffix past the nets: each function's word
        self._suffix = words.view(np.uint8)
        #: entry ``key % modulus`` is the output code of the key's
        #: function at the key's input codes
        self._table = np.zeros(modulus, dtype=np.uint8)
        for word, table in zip(words.tolist(), tables):
            self._table[(_CODE_KEYS + (word << 32)) % modulus] = table

    def _mapped_ranks(
        self, rows: List[Tuple[int, int, int, Tuple[int, ...]]]
    ) -> List[_Rank]:
        """Cut rows grouped into ranks by depth, each rank sorted by
        function, then root net."""
        by_depth: Dict[int, list] = {}
        for depth, function, root, inputs in sorted(rows):
            by_depth.setdefault(depth, []).append((function, root, inputs))
        ranks = []
        for depth in sorted(by_depth):
            functions, outputs, inputs = zip(*by_depth[depth])
            ranks.append(
                self._rank(
                    np.array(inputs, dtype=np.int64),
                    np.array(outputs, dtype=np.int64),
                    np.array(functions, dtype=np.int64),
                    per_gate=False,
                )
            )
        return ranks

    def _rank(self, inputs: np.ndarray, outputs: np.ndarray,
              functions: np.ndarray, per_gate: bool = True) -> _Rank:
        """A rank; its ``inputs`` are a view of its key columns."""
        columns = np.empty((len(outputs), KEY_BYTES), dtype=np.int64)
        columns[:, :MAX_ARITY] = inputs
        columns[:, MAX_ARITY:] = (
            self.num_nets
            + SUFFIX_BYTES * functions[:, None]
            + np.arange(SUFFIX_BYTES)
        )
        cells: Tuple[Tuple[str, int], ...] = ()
        if per_gate:
            counts = np.bincount(functions, minlength=len(CELL_TYPES))
            cells = tuple(
                (cell_type, count)
                for cell_type, count in zip(CELL_TYPES, counts.tolist())
                if count
            )
        return _Rank(
            columns[:, :MAX_ARITY], outputs, columns.ravel(), functions, cells
        )

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def new_state(self) -> CircuitState:
        """Fresh state: every net (including all flip-flops) untainted X.

        This is Algorithm 1 line 2: "initialize all memory cells and all
        gates in design_netlist to untainted X".
        """
        buffer = np.concatenate(
            [np.full(self.num_nets, CODE_X, dtype=np.uint8), self._suffix]
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
        self._evaluate(state, self._full_plan)

    def eval_plan(self, state: CircuitState, plan: _Plan) -> None:
        """Evaluate a pre-grouped subset of the rows (see
        :meth:`cone_plan` and :meth:`fanout_plan`)."""
        self._evaluate(state, plan)

    def pass_plan(self, state: CircuitState, plan: _Plan) -> _Plan:
        """The form of the per-gate *plan* a pass on *state* runs.

        The cut-mapped form writes only cut roots -- flip-flop Ds and
        output ports -- which is all the tracker, the checker and the
        runner read.  A state whose owner reads the nets inside the cuts
        sets ``state.every_net`` and gets the per-gate plan, which
        writes every net: direct circuit users, the *-logic baseline,
        and a SoC carrying a provenance recorder or timeline.
        """
        return plan if state.every_net else plan.mapped

    def _evaluate(self, state: CircuitState, plan: _Plan) -> None:
        """One pass over *plan* (or its mapped form, see
        :meth:`pass_plan`), counted and recorded by the state's
        instruments."""
        codes = state.codes
        if len(self._const_nets_arr):
            codes[self._const_nets_arr] = self._const_codes_arr
        runs = self.pass_plan(state, plan)
        instruments = state.instruments
        recorder = instruments.provenance
        if recorder is not None:
            before = codes.copy()
            self._sweep(state.buffer, runs)
            self._record_fresh_taint(codes, before, recorder)
        else:
            self._sweep(state.buffer, runs)
        obs = instruments.obs
        if obs.enabled:
            self._count_gate_evals(obs.metrics, plan)

    def _sweep(self, buffer: np.ndarray, plan: _Plan) -> None:
        """The gate kernel: evaluate *plan*'s ranks in order on a state
        *buffer* (net codes plus the suffix words)."""
        table = self._table
        modulus = self._modulus
        for _inputs, outputs, columns, _functions, _cells in plan.ranks:
            buffer[outputs] = table[buffer[columns].view(_KEY) % modulus]

    def _producer_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-net fan-in table and topological rank for provenance.

        ``table`` is ``(num_nets, max_arity)``: row *n* holds the input
        net ids of the gate driving net *n* (-1 padded, including the
        kernel's repeated padding inputs; nets without a combinational
        producer -- DFF Qs, ports, constants -- stay all -1).
        ``rank[n]`` is the driving gate's position in evaluation order,
        used to emit a pass's edges cause-before-effect.  Built lazily
        on the first provenance-recording pass, from the per-gate plan
        such passes run.
        """
        cached = getattr(self, "_prod_tables", None)
        if cached is None:
            ranks = self._full_plan.ranks
            used = np.concatenate([rank.functions for rank in ranks])
            width = int(self._arity[used].max(initial=1))
            table = np.full((self.num_nets, width), -1, dtype=np.int64)
            rank = np.zeros(self.num_nets, dtype=np.int64)
            counter = 0
            for inputs, outputs, _columns, functions, _cells in ranks:
                arity = self._arity[functions]
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

        A provenance-recording SoC's first pass runs it to read the
        memory interface before the full pass.  Memoised per port tuple,
        so every SoC on this circuit shares one plan and the per-plan
        gate-eval counter cache stays bounded.
        """
        return self._subplan("cone", tuple(port_names))

    def fanout_plan(self, port_names: Sequence[str]) -> _Plan:
        """The rank rows the named input ports reach.

        After a pass, new codes on those ports followed by a pass over
        this plan leave every root as a full pass would: each row
        downstream of the ports is evaluated again, in rank order, and
        no other row reads the ports.  The SoC runs it on read cycles
        once ``dmem_rdata`` is applied.  Memoised like :meth:`cone_plan`.
        """
        return self._subplan("fanout", tuple(port_names))

    def _subplan(self, kind: str, port_names: Tuple[str, ...]) -> _Plan:
        """The memoised cone or fanout plan of *port_names*, with its
        mapped form: the cuts rooted in the same nets, whose leaves
        then lie in those nets or outside the ports' reach."""
        plan = self._subplans.get((kind, port_names))
        if plan is None:
            nets = (
                self._cone_nets(port_names) if kind == "cone"
                else self.fanout_nets(port_names)
            )
            plan = self._subplans[kind, port_names] = _Plan(
                self._cone_ranks(self._full_plan, nets),
                _Plan(self._cone_ranks(self._full_plan.mapped, nets)),
            )
        return plan

    def _cone_nets(self, port_names: Sequence[str]) -> np.ndarray:
        """Mask over nets: the named output ports' nets and every net
        whose gates feed them."""
        producers = {gate.output: gate.inputs for gate in self.netlist.gates}
        return self._closure(
            [net for name in port_names for net in self._outputs[name]],
            producers,
        )

    def fanout_nets(self, port_names: Sequence[str]) -> np.ndarray:
        """Mask over nets: the named input ports' nets and every net
        driven by a gate they reach."""
        consumers: Dict[int, List[int]] = {}
        for gate in self.netlist.gates:
            for net in gate.inputs:
                consumers.setdefault(net, []).append(gate.output)
        return self._closure(
            [net for name in port_names for net in self._inputs[name]],
            consumers,
        )

    def _closure(self, start: List[int], edges) -> np.ndarray:
        """Mask over nets: *start* and every net reached from it along
        *edges* (net -> nets)."""
        reached = set()
        stack = start
        while stack:
            net = stack.pop()
            if net not in reached:
                reached.add(net)
                stack.extend(edges.get(net, ()))
        mask = np.zeros(self.num_nets, dtype=bool)
        mask[list(reached)] = True
        return mask

    def _cone_ranks(self, plan: _Plan, in_cone: np.ndarray) -> List[_Rank]:
        """*plan*'s rank rows whose outputs are *in_cone* (a mask over
        nets)."""
        ranks = []
        for rank in plan.ranks:
            keep = in_cone[rank.outputs]
            if keep.all():
                ranks.append(rank)
            elif keep.any():
                ranks.append(
                    self._rank(
                        rank.inputs[keep],
                        rank.outputs[keep],
                        rank.functions[keep],
                        per_gate=bool(rank.cells),
                    )
                )
        return ranks

    def clock_edge(self, state: CircuitState) -> None:
        """Latch every flip-flop: ``Q <= D``."""
        recorder = state.instruments.provenance
        if recorder is not None:
            codes = state.codes
            newly = (codes[self._dff_d] & 1) & (codes[self._dff_q] & 1 ^ 1)
            picks = np.nonzero(newly)[0]
            if len(picks):
                recorder.record_latch(
                    self._dff_q[picks], self._dff_d[picks]
                )
        state.codes[self._dff_q] = state.codes[self._dff_d]

    def dff_nets(self) -> np.ndarray:
        """Net ids of every flip-flop Q (read-only view)."""
        return self._dff_q

    def taint_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently tainted (used by the *-logic study).

        Like :meth:`unknown_fraction`, it reads every net, so it is
        meaningful on a state whose passes run the per-gate plan
        (``state.every_net``, the default).
        """
        return float(np.mean(state.codes & 1))

    def unknown_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently unknown."""
        return float(np.mean(state.codes >= 4))


def _padded(inputs: Sequence[int]) -> Tuple[int, ...]:
    """*inputs* padded to :data:`MAX_ARITY` by repeating input 0."""
    return tuple(inputs) + (inputs[0],) * (MAX_ARITY - len(inputs))

