"""Compiled gate-level GLIFT simulator.

A :class:`CompiledCircuit` turns a :class:`~repro.netlist.netlist.Netlist`
into one vectorised table-lookup kernel.  A net's code packs its ternary
value and taint into one byte::

    code = value * 2 + taint        # value in {0, 1, X=2}, taint in {0, 1}

Each cell type's full ternary+taint behaviour -- the GLIFT semantics of
:func:`repro.logic.glift.glift_eval` -- is baked into a lookup table over
its input codes (:func:`_lut_for`).

The circuit holds two forms of the same logic (DESIGN.md section 13):

* the **cut-mapped** plan: a depth-oriented priority-cut pass, as FPGA
  K-LUT mappers do (FlowMap, Cong & Ding 1994), gives every gate-driven
  net a cut of at most four leaves, and the cuts covering the logic
  feeding every flip-flop D and every output-port net form this plan
  (30 ranks on the LP430).  A cut's table composes its gates' tables
  over every leaf-code combination, so each root gets the per-gate code
  bit for bit; nets inside a cut are not written.
* the **every-net** plan: every gate-driven net's own cut, at the depth
  the mapping gave it (also 30 ranks on the LP430).  A cut's leaves sit
  lower than its net, so each rank reads only nets earlier ranks wrote,
  and every net gets its per-gate code bit for bit.

A pass runs the mapped plan unless the state's owner reads nets inside
the cuts, and the every-net plan then (:meth:`CompiledCircuit.pass_plan`).
The gates themselves are kept only as the levelized gate list (each
:func:`~repro.netlist.levelize.levelize` level sorted by cell type),
which numbers them in the order provenance edges are emitted
(:meth:`CompiledCircuit._producer_tables`).  Every gate drives exactly
one every-net row, so a plan's gate-eval counts are the cell types of
its every-net roots.

Every gate or cut evaluates as a four-input function whose padded input
columns repeat input 0; its table ignores them, so the padding is exact.
Its *key* is eight bytes read as one little-endian 64-bit integer, so it
does not depend on host byte order: the four input codes, then the four
bytes of its function's *suffix word*.  The suffix words sit past the
nets in the state buffer, so one gather reads a whole key.  A pass runs
in a *work row* (:class:`_Kernel`): the state buffer's bytes, one slot
per constant net of each state row, then one slot per row of the form,
in rank order.
Each rank's key columns are remapped to the slots that hold its leaves'
codes, so a pass is::

    work[:len(buffer)] = buffer
    for each rank:
        work.take(columns, None, keys, 'clip')
        np.remainder(keys64, modulus, keys64)    # keys64: keys as '<i8'
        table.take(keys64, None, slots, 'clip')  # slots: the rank's slice
    buffer[outputs] = work[len(buffer):]

-- three calls per rank into preallocated memory, whatever its mix of
functions, and one write-back of every row and constant net per pass.
The modulus is built, not searched for:
with F functions (the library cell types plus the netlist's distinct
multi-gate cut functions), ``modulus = CODE_MODULUS * F'`` for the
smallest odd ``F' >= F``, and function *f*'s suffix word makes its keys
congruent to ``codes + f * CODE_MODULUS``, so no two keys share an entry
(:func:`_suffix_words`).  Full passes, cone- and fanout-plan passes and
the stacked passes below, in either form, all run that one kernel
(:meth:`CompiledCircuit._sweep`).

A *stacked* pass settles several rows of one buffer at once, each one
:attr:`~CompiledCircuit.stride` past the last: each of its ranks is a
rank of every row's plan, their output nets and key columns shifted one
stride per row (:meth:`CompiledCircuit._stacked_plan`).  A *pair* pass
(:meth:`CompiledCircuit.pair_state`, :meth:`CompiledCircuit.pair_plan`)
stacks the every-net plan and a cone, for a provenance-recording step;
a *block* pass (:meth:`CompiledCircuit.block_plan`) stacks the every-net
plan on each of a block of timeline frames.  Passes record no flow
edges themselves: the recording step diffs the rows' codes with
:meth:`CompiledCircuit.record_fresh_taint`.
"""

from __future__ import annotations

import functools
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
#: Mean keys a rank from which a kernel reduces keys as ``k - k // M * M``
#: (numpy vectorises floor division by a 0-d array, not remainder): 2.3
#: against 4.0 ns a key at 1,400 keys a call, 13.7 against 7.8 at 88.
WIDE_RANK = 512
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
#: A net's cut: ``(depth, sorted leaves, expression, gate count)``.
Cut = Tuple[int, Tuple[int, ...], Expr, int]


def code_of(value: int, taint: int) -> int:
    """Pack a ternary value and a taint bit into a net code."""
    return value * 2 + taint


def decode_code(code: int) -> Tuple[int, int]:
    """Unpack a net code into ``(ternary value, taint)``."""
    return code >> 1, code & 1


#: ``bytes.translate`` tables from a net code (0-5) to the ASCII digit
#: of its known-1 bit, its X bit and its taint bit: a word's three masks.
_BITS_DIGITS = b"001100".ljust(256, b"0")
_X_DIGITS = b"000011".ljust(256, b"0")
_TAINT_DIGITS = b"010101".ljust(256, b"0")
#: ``bytes.translate`` table from an ASCII binary digit to its value.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
#: Words each codec memo keeps: port words repeat cycle after cycle (a
#: program's addresses and instruction words), so nearly every call hits.
WORD_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def decode_word(codes: bytes) -> TWord:
    """The word whose bit *i* has net code ``codes[i]``.

    Each mask is read in one ``bytes.translate`` to binary digits, most
    significant bit first, and one ``int(..., 2)``.
    """
    digits = codes[::-1]
    return TWord(
        int(digits.translate(_BITS_DIGITS), 2),
        int(digits.translate(_X_DIGITS), 2),
        int(digits.translate(_TAINT_DIGITS), 2),
        len(codes),
    )


def _spread(mask: int, width: int) -> int:
    """*mask* with bit *i* moved to byte *i* (0 or 1 in each byte)."""
    return int.from_bytes(
        format(mask, f"0{width}b").encode().translate(_DIGIT_VALUES), "big"
    )


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def encode_word(bits: int, xmask: int, tmask: int, width: int) -> bytes:
    """The *width* net codes of the word ``TWord(bits, xmask, tmask,
    width)``, bit 0 first: :func:`decode_word` inverted.

    A code is ``2 * value + taint`` with X's value 2, so with each mask
    spread one bit per byte the codes are one sum with no carries.
    """
    word = TWord(bits, xmask, tmask, width)
    return (
        2 * _spread(word.bits, width)
        + 4 * _spread(word.xmask, width)
        + _spread(word.tmask, width)
    ).to_bytes(width, "little")


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
    gates: Sequence[Gate], num_nets: int
) -> Dict[int, Cut]:
    """Give every gate-driven net a cut of at most :data:`MAX_ARITY`
    leaves, minimising depth.

    A depth-oriented priority-cut pass keeping one cut per net.  In
    topological order, a gate whose deepest inputs (its *critical*
    inputs) sit at depth *d* takes the cut that replaces each critical
    input by that input's cut, at depth *d* -- no merge of input cuts
    goes lower -- when it has at most :data:`MAX_ARITY` leaves, and its
    own inputs, at depth *d + 1*, otherwise.  Sources (ports, flip-flop
    Qs, constants) have depth 0, and every leaf of a net's cut sits
    lower than the net.  A cut carries its expression (the cell type
    applied to its inputs' expressions, a leaf being its net id), so
    its table needs no second walk; a merge whose expression would hold
    more than :data:`MAX_CUT_GATES` gates is refused, which bounds
    tabulation where reconvergent logic would double the tree at every
    level.  Returns every gate output's :data:`Cut`, in *gates* order.
    """
    depth = [0] * num_nets
    cuts: Dict[int, Cut] = {}
    for gate in gates:
        inputs = gate.inputs
        critical = 0
        for net in inputs:
            if depth[net] > critical:
                critical = depth[net]
        cut = None
        if critical:
            merged = set()
            exprs = [gate.cell_type]
            grown = 1
            for net in inputs:
                if depth[net] == critical:
                    _, net_leaves, net_expr, net_size = cuts[net]
                    merged.update(net_leaves)
                    exprs.append(net_expr)
                    grown += net_size
                else:
                    merged.add(net)
                    exprs.append(net)
            if len(merged) <= MAX_ARITY and grown <= MAX_CUT_GATES:
                cut = (critical, tuple(sorted(merged)), tuple(exprs), grown)
        if cut is None:
            critical += 1
            cut = (
                critical, tuple(sorted(set(inputs))),
                (gate.cell_type,) + inputs, 1,
            )
        depth[gate.output] = critical
        cuts[gate.output] = cut
    return cuts


def _cover(
    cuts: Dict[int, Cut],
    roots: Sequence[int],
    num_nets: int,
) -> np.ndarray:
    """Mask over nets: the nets whose cuts cover the logic feeding
    *roots* -- each gate-driven root and, recursively, the gate-driven
    leaves of the cuts taken."""
    taken = set()
    stack = list(roots)
    while stack:
        net = stack.pop()
        if net not in taken and net in cuts:
            taken.add(net)
            stack.extend(cuts[net][1])
    cover = np.zeros(num_nets, dtype=bool)
    cover[list(taken)] = True
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
    composition is the paper's per-gate GLIFT; a cut's precise
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
    """The cuts of one rank, or a cone or fanout plan's subset."""

    outputs: np.ndarray  # (n,) net ids
    columns: np.ndarray  # (n * KEY_BYTES,) buffer index of each key byte


class _Kernel(NamedTuple):
    """A plan form laid out for passes on buffers of one length (see
    :meth:`CompiledCircuit._kernel`).

    Each step is a rank's key columns into ``work``, its key scratch,
    that scratch as ``'<i8'`` keys, and its slots.  ``outputs`` are the
    buffer indices of ``work[len(buffer):]``.  ``ranks`` keeps the form
    alive, so its identity keys no other form.  ``quotients`` holds each
    step's int64 quotient scratch for a kernel of :data:`WIDE_RANK` keys
    a rank or more, and is None otherwise.
    """

    ranks: list
    work: np.ndarray
    steps: list
    outputs: np.ndarray
    quotients: Optional[list]


class _Plan:
    """A pass's two forms, each a list of ranks in evaluation order, plus
    its per-pass gate counts.

    ``mapped`` holds the cuts of the cover, rooted in flip-flop Ds and
    output ports; ``every`` one cut per gate-driven net.  Each gate
    drives one every-net row, so the counts are the cell types of those
    rows' roots (*cell_types*: a ``CELL_TYPES`` index per buffer index
    a row writes), and gate-eval counters count netlist gates whichever
    form runs.  ``kernels`` holds each form's :class:`_Kernel` by the
    form's identity and buffer length, built on the form's first sweep.
    """

    __slots__ = ("mapped", "every", "gates_by_type", "total", "kernels")

    def __init__(
        self, mapped: List[_Rank], every: List[_Rank], cell_types: np.ndarray
    ):
        self.mapped = mapped
        self.every = every
        self.kernels: Dict[Tuple[int, int], _Kernel] = {}
        counts = np.zeros(len(CELL_TYPES), dtype=np.int64)
        for rank in every:
            counts += np.bincount(
                cell_types[rank.outputs], minlength=len(CELL_TYPES)
            )
        self.gates_by_type = {
            cell_type: count
            for cell_type, count in zip(CELL_TYPES, counts.tolist())
            if count
        }
        self.total = sum(self.gates_by_type.values())


class CircuitState:
    """Per-net codes for one simulation state (mutable, cheap to copy).

    ``buffer`` holds the net codes followed by the constant suffix words
    the gate kernel gathers from (two such rows for a
    :meth:`CompiledCircuit.pair_state`); ``codes`` is a view of just the
    nets (of row 0).  ``every_net`` says whether this state's readers
    may read any net (the default) or only flip-flops and ports, which
    lets passes run the cut-mapped plan (see
    :meth:`CompiledCircuit.pass_plan`).  ``instruments`` are what counts
    this state's passes and records its clock edges (the default does
    neither; a copy starts with the default).  A SoC arms both
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
    :class:`~repro.obs.Instruments` from the state it evaluates.  Its
    passes share each plan form's work row as scratch, so they are not
    reentrant: two threads must not run passes on one circuit at once.
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
            #: the combinational gates in evaluation order: each
            #: ``levelize`` level sorted by cell type, then netlist order
            self._gates = [
                gate
                for level in levelize(netlist)[1:]
                for gate in sorted(level, key=lambda gate: gate.cell_type)
            ]
        type_of = {
            cell_type: index for index, cell_type in enumerate(CELL_TYPES)
        }
        #: the cell type (a ``CELL_TYPES`` index) of the gate driving
        #: each net, -1 for nets no gate here drives
        cell_types = np.full(self.num_nets, -1, dtype=np.int64)
        cell_types[[gate.output for gate in self._gates]] = [
            type_of[gate.cell_type] for gate in self._gates
        ]
        self._cell_types = cell_types
        roots = [dff.d for dff in netlist.dffs] + [
            net for port in netlist.outputs for net in port.nets
        ]
        with obs.span("map_cuts"):
            cuts = _map_cuts(self._gates, self.num_nets)
            cover = _cover(cuts, roots, self.num_nets)
        with obs.span("tabulate_cuts"):
            tables = [
                _padded_lut(cell_type, taint_mode) for cell_type in CELL_TYPES
            ]
            rows = self._cut_rows(cuts, tables, type_of)
            self._build_table(tables)
        # The cuts' expressions are the compile's largest transient:
        # drop them before the rank arrays are built.
        del cuts, tables

        every, self._cover_rows = self._cut_ranks(rows, cover)
        self._full_plan = _Plan(
            _prefixes(every, self._cover_rows), every, cell_types
        )
        #: cone, fanout and pair plans by kind and port tuple, block
        #: plans by row count (see :meth:`cone_plan`, :meth:`fanout_plan`,
        #: :meth:`pair_plan` and :meth:`block_plan`)
        self._subplans: Dict[tuple, _Plan] = {}
        #: gate-eval counter increments per plan, valid for
        #: ``_counter_registry`` only (see :meth:`_count_gate_evals`)
        self._counter_registry = None
        self._counter_cache: Dict[_Plan, list] = {}

        self._dff_q = np.array([d.q for d in netlist.dffs], dtype=np.int64)
        self._dff_d = np.array([d.d for d in netlist.dffs], dtype=np.int64)
        #: every flip-flop Q, then every input port's nets: the nets a
        #: pass reads that no gate drives, so a full pass settles every
        #: other net from their codes (a timeline frame's step-log row)
        self.row_nets = np.array(
            list(self._dff_q)
            + [net for port in netlist.inputs for net in port.nets],
            dtype=np.int64,
        )

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
        cuts: Dict[int, Cut],
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
        for root, (depth, leaves, expr, size) in cuts.items():
            if size == 1:
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
        #: the table size, as a 0-d int64 array: ``np.remainder`` takes
        #: it as is, where a numpy scalar is converted on every call
        self._modulus = np.array(modulus, dtype=np.int64)
        #: the state buffer's suffix past the nets: each function's word
        self._suffix = words.view(np.uint8)
        #: bytes in one state buffer, and so between the rows of a pair
        self.stride = self.num_nets + len(self._suffix)
        #: entry ``key % modulus`` is the output code of the key's
        #: function at the key's input codes
        self._table = np.zeros(modulus, dtype=np.uint8)
        for word, table in zip(words.tolist(), tables):
            self._table[(_CODE_KEYS + (word << 32)) % modulus] = table

    def _cut_ranks(
        self,
        rows: List[Tuple[int, int, int, Tuple[int, ...]]],
        cover: np.ndarray,
    ) -> Tuple[List[_Rank], List[int]]:
        """The every-net ranks of the cut *rows*, and how many rows of
        each lie in *cover* (a mask over nets).

        Rows are grouped into ranks by depth.  Each rank holds its cover
        rows first, then the rest, each part sorted by function, then
        root net; its mapped rank is the cover prefix, as views
        (:func:`_prefixes`), so the mapped plan costs no memory of its
        own.
        """
        interior_of = (~cover).tolist()
        by_depth: Dict[int, list] = {}
        for depth, function, root, inputs in rows:
            by_depth.setdefault(depth, []).append(
                (interior_of[root], function, root, inputs)
            )
        every: List[_Rank] = []
        cover_rows: List[int] = []
        for depth in sorted(by_depth):
            interior, functions, outputs, inputs = zip(
                *sorted(by_depth[depth])
            )
            columns = np.empty((len(outputs), KEY_BYTES), dtype=np.int64)
            columns[:, :MAX_ARITY] = inputs
            columns[:, MAX_ARITY:] = (
                self.num_nets
                + SUFFIX_BYTES * np.array(functions)[:, None]
                + np.arange(SUFFIX_BYTES)
            )
            every.append(
                _Rank(np.array(outputs, dtype=np.int64), columns.ravel())
            )
            cover_rows.append(interior.count(False))
        return every, cover_rows

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
        """One fancy-indexed write of the word's codes."""
        state.codes[nets] = np.frombuffer(
            encode_word(word.bits, word.xmask, word.tmask, len(nets)),
            dtype=np.uint8,
        )

    def _gather_word(
        self, state: CircuitState, nets: np.ndarray
    ) -> TWord:
        """One gather, decoded as bytes: numpy scalar indexing is ~10x
        the cost of decoding a ``bytes`` of the same codes."""
        return decode_word(state.codes[nets].tobytes())

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

    def pass_plan(self, state: CircuitState, plan: _Plan) -> List[_Rank]:
        """The form of *plan* a pass on *state* runs.

        The cut-mapped form writes only cut roots -- flip-flop Ds and
        output ports -- which is all the tracker, the checker, the
        runner and a timeline's step-log rows read.  A state whose owner
        reads the nets inside those cuts sets ``state.every_net`` and
        gets the every-net form, whose rows write every gate-driven net
        with its per-gate code: direct circuit users, the *-logic
        baseline, a SoC carrying a provenance recorder, and the states a
        timeline derives its frames on.
        """
        return plan.every if state.every_net else plan.mapped

    def _evaluate(self, state: CircuitState, plan: _Plan) -> None:
        """One pass over a form of *plan* (see :meth:`pass_plan`),
        counted by the state's instruments.  The pass also ties the
        constant nets (see :meth:`_sweep`)."""
        self._sweep(state.buffer, self.pass_plan(state, plan), plan)
        obs = state.instruments.obs
        if obs.enabled:
            self._count_gate_evals(obs.metrics, plan)

    def _sweep(
        self, buffer: np.ndarray, ranks: List[_Rank], plan: _Plan
    ) -> None:
        """The gate kernel: evaluate *ranks*, a form of *plan*, in order
        on a state *buffer* (net codes plus the suffix words), in the
        form's work row (:meth:`_kernel`), and write every slot back,
        the constant nets' tied codes included.  ``'clip'`` lets take
        write into its output without a temporary; it never clips.  A
        wide kernel (:data:`WIDE_RANK`) reduces keys by floor division."""
        key = (id(ranks), len(buffer))
        kernel = plan.kernels.get(key)
        if kernel is None:
            kernel = plan.kernels[key] = self._kernel(ranks, len(buffer))
        work = kernel.work
        work[:len(buffer)] = buffer
        table, modulus = self._table, self._modulus
        if kernel.quotients is None:
            remainder = np.remainder
            for columns, keys, keys64, slots in kernel.steps:
                work.take(columns, None, keys, "clip")
                remainder(keys64, modulus, keys64)
                table.take(keys64, None, slots, "clip")
        else:
            for (columns, keys, keys64, slots), quotient in zip(
                kernel.steps, kernel.quotients
            ):
                work.take(columns, None, keys, "clip")
                np.floor_divide(keys64, modulus, quotient)
                np.multiply(quotient, modulus, quotient)
                np.subtract(keys64, quotient, keys64)
                table.take(keys64, None, slots, "clip")
        buffer[kernel.outputs] = work[len(buffer):]

    def _kernel(self, ranks: List[_Rank], length: int) -> _Kernel:
        """*ranks* laid out for buffers of *length* bytes (one state
        buffer, or the rows of a stacked plan's state).

        The work row holds the buffer's bytes, one slot per constant net
        of each state row (its tied code), then one slot per row, in
        rank order.  A column reads the buffer's byte unless an earlier
        rank writes it (then that rank's slot) or it is a constant net
        (then its constant slot), so every state row's constant nets are
        tied, in the write-back too.  Every column is checked to lie in
        the buffer and no net to be written twice, so ``'clip'`` never clips
        and the write-back is exact; a key is non-negative, and
        ``% modulus`` keeps it below ``len(table)``.
        """
        rows = range(0, length, self.stride)
        consts = np.concatenate(
            [self._const_nets_arr + row for row in rows]
        )
        sizes = [len(outputs) for outputs, _ in ranks]
        start = length + len(consts)
        work = np.empty(start + sum(sizes), dtype=np.uint8)
        work[length:start] = np.tile(self._const_codes_arr, len(rows))
        # The work index holding each buffer byte's code at this rank.
        source = np.arange(length)
        source[consts] = np.arange(length, start)
        # One key scratch serves every rank: ranks run one at a time.
        keys = np.empty(KEY_BYTES * max(sizes, default=0), dtype=np.uint8)
        steps, outputs = [], [consts]
        for (rank_outputs, columns), size in zip(ranks, sizes):
            if columns.min() < 0 or columns.max() >= length:
                raise ValueError("a key column lies outside the buffer")
            stop = start + size
            scratch = keys[:len(columns)]
            steps.append((
                source[columns], scratch, scratch.view(_KEY),
                work[start:stop],
            ))
            source[rank_outputs] = np.arange(start, stop)
            outputs.append(rank_outputs)
            start = stop
        outputs = np.concatenate(outputs)
        # A net written twice keeps only its last slot.
        if (source[outputs] != np.arange(length, len(work))).any():
            raise ValueError("a net is written twice in one pass")
        quotients = None
        if sum(sizes) >= WIDE_RANK * len(sizes) > 0:
            scratch = np.empty(max(sizes), dtype=np.int64)
            quotients = [scratch[:size] for size in sizes]
        return _Kernel(ranks, work, steps, outputs, quotients)

    def _producer_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-net fan-in table and topological rank for provenance.

        ``table`` is ``(num_nets, max_arity)``: row *n* holds the input
        net ids of the gate driving net *n* (-1 padded; nets without a
        combinational producer -- DFF Qs, ports, constants -- stay all
        -1).  ``rank[n]`` is the driving gate's position in the
        levelized gate list, used to emit a pass's edges
        cause-before-effect.  Built lazily on the first recorded pass:
        a recorded pass runs the every-net plan, which writes each net
        with the code its gate gives it, so the gate order still
        describes it.
        """
        cached = getattr(self, "_prod_tables", None)
        if cached is None:
            gates = self._gates
            width = max([len(gate.inputs) for gate in gates], default=1)
            outputs = [gate.output for gate in gates]
            table = np.full((self.num_nets, width), -1, dtype=np.int64)
            table[outputs] = [
                gate.inputs + (-1,) * (width - len(gate.inputs))
                for gate in gates
            ]
            rank = np.zeros(self.num_nets, dtype=np.int64)
            rank[outputs] = np.arange(len(gates))
            cached = self._prod_tables = (table, rank)
        return cached

    def record_fresh_taint(
        self, codes: np.ndarray, before: np.ndarray, recorder
    ) -> None:
        """Record on *recorder* the per-gate taint provenance of the
        every-net pass that turned *before* into *codes* (net codes).

        Provenance costs two whole-array operations per pass -- the
        codes kept from before it, the taint diff here -- plus fan-in
        resolution for just the newly-tainted nets.  Each net is written
        at most once per pass and its fan-ins come from earlier ranks,
        so the post-pass codes are exactly what the producing gate read,
        and the diff attributes every new taint bit to the right edges.
        Nets no gate drives (ports, flip-flop Qs, constants) record no
        edge, whatever their codes did.  Edges are emitted in the gates'
        evaluation order: the backward slicer relies on a cause being
        recorded before its effect.
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

        Memoised per port tuple, so every user of this circuit shares
        one plan and the per-plan gate-eval counter cache stays bounded.
        """
        return self._subplan("cone", tuple(port_names))

    def pair_state(self, state: CircuitState) -> CircuitState:
        """A state for :meth:`pair_plan` passes: its buffer is two rows,
        one :attr:`stride` apart, and row 0 is *state*'s own.

        *state*'s buffer moves into row 0, so *state* keeps its codes
        and reads and writes them there; the pair state's codes are row
        0's nets too, and row 1 starts as a copy.  *state*'s constant
        cells are tied first, as every pass's write-back ties them, so
        row 0 always holds them and a copy of it into row 1 carries them.
        """
        if len(self._const_nets_arr):
            state.codes[self._const_nets_arr] = self._const_codes_arr
        rows = np.tile(state.buffer, 2)
        state.buffer = rows[:self.stride]
        state.codes = rows[:self.num_nets]
        return CircuitState(rows, self.num_nets)

    def pair_plan(self, port_names: Sequence[str]) -> _Plan:
        """One pass over both rows of a :meth:`pair_state`: the full
        plan on row 0 and the cone plan of the named output ports on
        row 1.

        Each rank is an every-net rank of the full plan followed by its
        rows in the cone, stacked one :attr:`stride` on (see
        :meth:`_stacked_plan`), so one pass leaves row 0 as a full pass
        and row 1 as a cone pass would, with one kernel step per rank.
        A pair pass serves a provenance-recording step, which reads
        every net; the gate counts are the full plan's plus the cone's.
        Memoised like :meth:`cone_plan`.

        The full plan's ranks then become views of the pair ranks' row-0
        prefixes, as its mapped ranks are of its every-net ones, so the
        pair plan holds only its cone rows' arrays of its own.
        """
        key = ("pair", tuple(port_names))
        plan = self._subplans.get(key)
        if plan is None:
            in_cone = self._cone_nets(port_names)
            full = self._full_plan
            cone = [
                _keep_rows(rank, in_cone[rank.outputs]) for rank in full.every
            ]
            plan = self._subplans[key] = self._stacked_plan([full.every, cone])
            # In place: the lists keep their identity and content, so a
            # kernel built on them (keyed by identity) stays correct.
            full.every[:] = _prefixes(
                plan.every, [len(rank.outputs) for rank in full.every]
            )
            full.mapped[:] = _prefixes(full.every, self._cover_rows)
        return plan

    def block_plan(self, rows: int) -> _Plan:
        """An every-net full pass on each of *rows* state rows (see
        :meth:`_stacked_plan`), memoised per row count; for one row, the
        full plan itself.  A timeline derives a block of frames with one
        such pass, which costs far less per row than a pass per row."""
        if rows == 1:
            return self._full_plan
        key = ("block", rows)
        plan = self._subplans.get(key)
        if plan is None:
            plan = self._subplans[key] = self._stacked_plan(
                [self._full_plan.every] * rows
            )
        return plan

    def _stacked_plan(self, rows: Sequence[List[_Rank]]) -> _Plan:
        """One plan over ``len(rows)`` state rows, each one :attr:`stride`
        past the last: rank *i* is rank *i* of each row's every-net
        ranks, their outputs and key columns (the row's own suffix words
        included) shifted one stride per row.  The rows' writes are
        disjoint and each row reads only its own nets, so one pass
        leaves each row as a pass over its own ranks would.  Its readers
        read every net, so both forms are these ranks; the gate counts
        are the sum of the rows'.
        """
        shifts = self.stride * np.arange(len(rows))

        def stacked(arrays: List[np.ndarray]) -> np.ndarray:
            sizes = [len(array) for array in arrays]
            return np.concatenate(arrays) + np.repeat(shifts, sizes)

        ranks = [
            _Rank(
                stacked([rank.outputs for rank in group]),
                stacked([rank.columns for rank in group]),
            )
            for group in zip(*rows)
        ]
        row_types = np.full(self.stride, -1, dtype=np.int64)
        row_types[:self.num_nets] = self._cell_types
        return _Plan(ranks, ranks, np.tile(row_types, len(rows)))

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
        """The memoised cone or fanout plan of *port_names*: in each form,
        the cuts rooted in the same nets, whose leaves then lie in those
        nets or outside the ports' reach."""
        plan = self._subplans.get((kind, port_names))
        if plan is None:
            nets = (
                self._cone_nets(port_names) if kind == "cone"
                else self.fanout_nets(port_names)
            )
            full = self._full_plan
            plan = self._subplans[kind, port_names] = _Plan(
                _cone_ranks(full.mapped, nets),
                _cone_ranks(full.every, nets),
                self._cell_types,
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

    def latch_rows(self, codes: np.ndarray) -> None:
        """:meth:`clock_edge`'s ``Q <= D`` on each row of a ``(rows,
        num_nets)`` code array, with no instruments."""
        codes[:, self._dff_q] = codes[:, self._dff_d]

    def dff_nets(self) -> np.ndarray:
        """Net ids of every flip-flop Q (read-only view)."""
        return self._dff_q

    def taint_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently tainted (used by the *-logic study).

        Like :meth:`unknown_fraction`, it reads every net, so it is
        meaningful on a state whose passes run the every-net plan
        (``state.every_net``, the default), not on a plain or timeline
        SoC's state.
        """
        return float(np.mean(state.codes & 1))

    def unknown_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently unknown."""
        return float(np.mean(state.codes >= 4))


def _cone_ranks(ranks: List[_Rank], in_cone: np.ndarray) -> List[_Rank]:
    """The rows of *ranks* whose outputs are *in_cone* (a mask over
    nets); ranks left with none are dropped."""
    kept = []
    for rank in ranks:
        keep = in_cone[rank.outputs]
        if keep.all():
            kept.append(rank)
        elif keep.any():
            kept.append(_keep_rows(rank, keep))
    return kept


def _prefixes(ranks: List[_Rank], rows: Sequence[int]) -> List[_Rank]:
    """The first ``rows[i]`` rows of each ``ranks[i]``, as views; ranks
    left with none are dropped."""
    return [
        rank if count == len(rank.outputs)
        else _Rank(rank.outputs[:count], rank.columns[:count * KEY_BYTES])
        for rank, count in zip(ranks, rows)
        if count
    ]


def _keep_rows(rank: _Rank, keep: np.ndarray) -> _Rank:
    """The rows of *rank* that *keep* (a mask over its rows) selects,
    its key columns sliced row by row."""
    return _Rank(
        rank.outputs[keep],
        rank.columns.reshape(-1, KEY_BYTES)[keep].ravel(),
    )


def _padded(inputs: Sequence[int]) -> Tuple[int, ...]:
    """*inputs* padded to :data:`MAX_ARITY` by repeating input 0."""
    return tuple(inputs) + (inputs[0],) * (MAX_ARITY - len(inputs))

