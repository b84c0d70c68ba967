"""Structured event tracing: typed JSONL, one event per line.

Every event is a flat JSON object with four reserved fields -- ``event``
(the type tag), ``wall`` (seconds since the recorder opened), ``v`` (the
trace schema version, currently :data:`TRACE_SCHEMA_VERSION`), and
``seq`` (a per-recorder monotonic sequence number, checkpoint-restorable
so a resumed run continues the uninterrupted numbering) -- plus
type-specific fields.  :data:`EVENT_SCHEMAS` documents every event type
the pipeline emits and is what ``repro trace-lint`` validates against:

=======================  ==================================================
``fork``                 PC concretisation split (tracker)
``merge``                conservative-state widening at a merge point
``prune``                a path stopped because its state was covered
``widen``                exploration continued from the conservative state
``violation``            one policy violation from the completed analysis
``transform_applied``    one repair rewrite (watchdog bound / store mask)
``reverify``             a re-analysis round inside the secure-compile loop
``interrupted``          cooperative interrupt stopped the exploration
``degraded``             one unexplored path widened away (budget)
``budget_exhausted``     a budget axis ran out; worklist drained
``checkpoint_saved``     analysis state persisted to disk
``fault_injected``       the fault injector fired
``provenance``           provenance-recording summary for a finished run
``provenance_truncated`` provenance lost links (``reason``: the ring
                         wrapped and/or a smeared store hit its cap);
                         slices best-effort
``timeline``             flight-recorder summary for a finished analysis
``record``               one ``repro record`` run wrote a .timeline file
``progress``             periodic exploration-progress snapshot
=======================  ==================================================

Beyond the reserved fields, every event may carry the **correlation
context** -- ``job_id``, ``attempt`` and ``run_id`` -- stamped by the
recorder itself (:meth:`TraceRecorder.set_context`) so a journaled
service job joins its trace stream one-to-one: the daemon's job record
names the trace file, and every line in it names the job back.
:func:`lint_trace` enforces that the context, once present, is
consistent across the whole trace.

Version history: v1 (unversioned) had no ``v``/``seq`` fields; v2 added
them plus the provenance events; v3 added the timeline events
(``timeline``, ``record``, the ``step`` event's ``timeline_frames``
field) and made a trace with zero events a lint problem; v4 added the
``progress`` event (periodic exploration snapshots with a bounded ETA),
the recorder-stamped correlation context (``job_id``/``attempt``/
``run_id`` on *every* event), and the lint rules that go with both:
``progress`` counters must be monotone non-decreasing and the
correlation context must not change mid-trace.  Since a timeline frame
became a step-log row, the ``timeline`` and ``record`` events no longer
write ``keyframes``; it stays an optional field, so v4 traces written
before still lint clean.  v5 dropped the per-cycle ``step`` event: a
timeline's step-log row keeps every cycle's flip-flop and input-port
codes, from which its facts re-derive.  :func:`lint_trace` still accepts
v4 traces, ``step`` events included (:data:`V4_EVENT_SCHEMAS`).
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.clock import CLOCK, Clock

#: Schema version stamped into every event's ``v`` field.
TRACE_SCHEMA_VERSION = 5

#: Fields present on every event, owned by the recorder itself.
RESERVED_FIELDS = frozenset({"event", "wall", "v", "seq"})

#: Job-correlation fields the recorder may stamp on every event (v4).
#: They are neither required nor "undeclared": any event may carry them,
#: and :func:`lint_trace` checks they stay consistent across the trace.
CORRELATION_FIELDS = frozenset({"job_id", "attempt", "run_id"})

#: Per-event-type field contracts: required fields must be present,
#: optional ones may be; anything else is flagged by :func:`lint_trace`.
EVENT_SCHEMAS: Dict[str, Dict[str, frozenset]] = {
    "fork": {
        "required": frozenset(
            {"site", "node", "children", "targets", "pc_tainted", "cycle"}
        ),
        "optional": frozenset(),
    },
    "merge": {
        "required": frozenset({"site", "cycle"}),
        "optional": frozenset(),
    },
    "prune": {
        "required": frozenset({"site", "node", "cycle"}),
        "optional": frozenset(),
    },
    "widen": {
        "required": frozenset({"site", "node", "cycle"}),
        "optional": frozenset(),
    },
    "violation": {
        "required": frozenset(
            {"kind", "condition", "address", "task", "advisory"}
        ),
        "optional": frozenset(),
    },
    "transform_applied": {
        "required": frozenset({"kind", "iteration"}),
        "optional": frozenset({"task", "slices", "interval", "address"}),
    },
    "reverify": {
        "required": frozenset({"iteration", "after"}),
        "optional": frozenset(),
    },
    "interrupted": {
        "required": frozenset({"reason", "checkpoint", "paths", "cycles"}),
        "optional": frozenset(),
    },
    "degraded": {
        "required": frozenset({"node", "cycle", "reasons"}),
        "optional": frozenset(),
    },
    "budget_exhausted": {
        "required": frozenset({"reasons", "paths", "cycles", "drained"}),
        "optional": frozenset(),
    },
    "checkpoint_saved": {
        "required": frozenset({"path", "paths", "cycles", "reason"}),
        "optional": frozenset(),
    },
    "fault_injected": {
        "required": frozenset({"kind", "cycle"}),
        "optional": frozenset(),
    },
    "provenance": {
        "required": frozenset(
            {"edges", "retained", "capacity", "truncated", "labels"}
        ),
        "optional": frozenset(),
    },
    "provenance_truncated": {
        "required": frozenset({"edges", "capacity"}),
        # comma-separated ProvenanceRecorder.truncated_by causes
        "optional": frozenset({"reason"}),
    },
    "timeline": {
        "required": frozenset({"frames", "truncated"}),
        "optional": frozenset({"max_frames", "keyframes"}),
    },
    "record": {
        "required": frozenset(
            {"out", "frames", "cycles", "truncated"}
        ),
        "optional": frozenset({"workload", "bytes", "keyframes"}),
    },
    "progress": {
        "required": frozenset(
            {
                "paths",
                "pending",
                "cycles",
                "merged_states",
                "violations",
                "fraction",
            }
        ),
        "optional": frozenset(
            {"eta_seconds", "rate_paths_per_s", "budget"}
        ),
    },
    # -- analysis-service job lifecycle (repro.service) ----------------
    "service_started": {
        "required": frozenset({"jobs", "recovered"}),
        "optional": frozenset(),
    },
    "service_drain": {
        "required": frozenset({"jobs"}),
        "optional": frozenset(),
    },
    "job_submitted": {
        "required": frozenset({"job", "name"}),
        "optional": frozenset(),
    },
    "job_started": {
        "required": frozenset({"job", "attempt", "shed"}),
        "optional": frozenset(),
    },
    "job_retrying": {
        "required": frozenset({"job", "attempt", "delay", "reason"}),
        "optional": frozenset(),
    },
    "job_finished": {
        "required": frozenset(
            {"job", "state", "verdict", "exit_code", "attempts"}
        ),
        "optional": frozenset(),
    },
    "worker_killed": {
        "required": frozenset({"job", "reason"}),
        "optional": frozenset(),
    },
}

#: The v4 contract: every v5 event type, plus the per-cycle ``step``
#: summary the gate-level runner wrote before v5.
V4_EVENT_SCHEMAS: Dict[str, Dict[str, frozenset]] = {
    **EVENT_SCHEMAS,
    "step": {
        "required": frozenset(
            {"cycle", "phase", "pc", "reset", "read", "write", "port_events"}
        ),
        "optional": frozenset({"provenance_edges", "timeline_frames"}),
    },
}
#: Schemas by the trace versions :func:`lint_trace` accepts.
_SCHEMAS_BY_VERSION = {
    4: V4_EVENT_SCHEMAS,
    TRACE_SCHEMA_VERSION: EVENT_SCHEMAS,
}


def _jsonable(value):
    """Last-resort JSON conversion (numpy scalars, arbitrary objects)."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return str(value)


def _record_encoder():
    """``json.dumps(record, default=_jsonable)`` as one reusable callable.

    ``json.dumps`` with ``default=`` builds a new encoder on every call;
    trace records are encoded once per cycle, so the C encoder (where
    the interpreter has one) is built once here.  It skips the
    circular-reference check: a record is a fresh flat dict of event
    fields.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return json.JSONEncoder(default=_jsonable).encode
    encode = make(
        None, _jsonable, json.encoder.encode_basestring_ascii, None,
        ": ", ", ", False, False, True,
    )
    return lambda record: "".join(encode(record, 0))


_encode_string = json.encoder.encode_basestring_ascii


class TraceRecorder:
    """Appends typed events to a JSONL sink (path or file-like object)."""

    def __init__(
        self,
        sink: Union[str, Path, io.TextIOBase],
        clock: Clock = CLOCK,
        context: Optional[Dict[str, object]] = None,
    ):
        if isinstance(sink, (str, Path)):
            self._file = open(sink, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = sink
            self._owns_file = False
        self._clock = clock
        self._start = clock.wall()
        self._encode = _record_encoder()
        self.events_written = 0
        #: next event's ``seq``; runs ahead of ``events_written`` after a
        #: checkpoint restore so resumed runs continue the original
        #: numbering instead of restarting at zero
        self.sequence = 0
        #: correlation context stamped on every event (v4); keys limited
        #: to :data:`CORRELATION_FIELDS`
        self.context: Dict[str, object] = {}
        self._context_json = ""
        if context:
            self.set_context(**context)

    def set_context(self, **fields) -> None:
        """Stamp *fields* (``job_id``/``attempt``/``run_id``) on every
        event emitted from now on.  ``None`` values drop the key."""
        unknown = set(fields) - CORRELATION_FIELDS
        if unknown:
            raise ValueError(
                f"unknown correlation field(s) {sorted(unknown)}; "
                f"allowed: {sorted(CORRELATION_FIELDS)}"
            )
        for key, value in fields.items():
            if value is None:
                self.context.pop(key, None)
            else:
                self.context[key] = value
        # The context's members as they follow ``seq`` in every line.
        self._context_json = self._encode(self.context)[1:-1]
        if self._context_json:
            self._context_json = ", " + self._context_json

    def emit(self, event: str, **fields) -> None:
        self.write(event, self._encode(fields)[1:-1])

    def write(self, event: str, members: str) -> None:
        """Append one *event* whose own fields are *members*: JSON
        object members (``"name": value, ...``), already encoded, or
        ``""``.  A per-cycle emitter encodes its few scalar fields
        itself; everything else goes through :meth:`emit`.  *members*
        must repeat no reserved or context field.  ``wall`` is one
        ``%.6f``, the number ``round(..., 6)`` gives."""
        # One f-string: a step event is written every traced cycle, and
        # it formats faster than the equivalent ``%`` tuple.
        self._file.write(
            f'{{"event": {_encode_string(event)}, '
            f'"wall": {self._clock.wall() - self._start:.6f}, '
            f'"v": {TRACE_SCHEMA_VERSION}, "seq": {self.sequence}'
            f'{self._context_json}{", " + members if members else ""}}}\n'
        )
        self.events_written += 1
        self.sequence += 1

    def set_sequence(self, sequence: int) -> None:
        """Continue numbering from *sequence* (checkpoint restore)."""
        self.sequence = sequence

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: Union[str, Path]):
    """Parse a JSONL trace back into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def lint_trace(path: Union[str, Path]) -> List[str]:
    """Validate a JSONL trace against :data:`EVENT_SCHEMAS`, or a v4
    trace's events against :data:`V4_EVENT_SCHEMAS`.

    Returns a list of human-readable problems (empty for a clean trace):
    unparseable lines, missing reserved fields, wrong schema version,
    duplicated or non-monotonic sequence numbers (flagged with the
    likely cause when they follow a checkpoint/resume splice: the
    resumed recorder restarting its cursor), unknown event types,
    missing or
    undeclared event fields, an inconsistent correlation context (the
    ``job_id``/``attempt``/``run_id`` stamp must be identical on every
    event of a trace -- a mid-trace change means two runs' events were
    interleaved into one file), regressing ``progress`` counters
    (``paths``/``cycles``/``fraction`` must be monotone non-decreasing),
    and a trace with no events at all (an empty
    or fully-blank file is evidence of a truncated or failed run, not a
    clean one).  Undecodable bytes are replaced, never raised, so a
    binary or truncated file lints as problems instead of crashing.
    """
    problems: List[str] = []
    last_sequence = None
    events_seen = 0
    #: correlation context established by the first event (None until
    #: then); every later event must match it exactly.
    expected_context: Optional[Dict[str, object]] = None
    #: high-water marks of the monotone progress counters
    progress_marks: Dict[str, float] = {}
    #: a checkpoint/interrupt boundary has passed; a seq violation after
    #: one is the classic resume-splice bug (the resumed recorder
    #: restarted numbering instead of continuing the original cursor).
    splice_boundary = False
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            events_seen += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                problems.append(f"line {line_no}: unparseable JSON ({error})")
                continue
            if not isinstance(record, dict):
                problems.append(f"line {line_no}: event is not an object")
                continue
            for reserved in ("event", "wall", "v", "seq"):
                if reserved not in record:
                    problems.append(
                        f"line {line_no}: missing reserved field "
                        f"{reserved!r}"
                    )
            version = record.get("v")
            schemas = _SCHEMAS_BY_VERSION.get(version, EVENT_SCHEMAS)
            if version is not None and version not in _SCHEMAS_BY_VERSION:
                problems.append(
                    f"line {line_no}: schema version {version!r} is not "
                    f"one of {sorted(_SCHEMAS_BY_VERSION)}"
                )
            sequence = record.get("seq")
            if isinstance(sequence, int):
                if last_sequence is not None and sequence <= last_sequence:
                    splice_note = (
                        " after a checkpoint/resume splice (the resumed "
                        "recorder must continue the saved sequence "
                        "cursor, not restart it)"
                        if splice_boundary
                        else ""
                    )
                    if sequence == last_sequence:
                        problems.append(
                            f"line {line_no}: duplicated seq {sequence}"
                            + splice_note
                        )
                    else:
                        problems.append(
                            f"line {line_no}: seq {sequence} not greater "
                            f"than previous {last_sequence}" + splice_note
                        )
                last_sequence = sequence
            if record.get("event") in ("interrupted", "checkpoint_saved"):
                splice_boundary = True
            context = {
                key: record[key]
                for key in CORRELATION_FIELDS
                if key in record
            }
            if expected_context is None:
                expected_context = context
            elif context != expected_context:
                changed = sorted(
                    key
                    for key in CORRELATION_FIELDS
                    if context.get(key) != expected_context.get(key)
                )
                problems.append(
                    f"line {line_no}: correlation context changed "
                    f"mid-trace (field(s) {', '.join(changed)}): "
                    f"{context!r} != {expected_context!r}"
                )
            event = record.get("event")
            if event is None:
                continue
            if event == "progress":
                for counter in ("paths", "cycles", "fraction"):
                    value = record.get(counter)
                    if not isinstance(value, (int, float)):
                        continue
                    mark = progress_marks.get(counter)
                    if mark is not None and value < mark:
                        problems.append(
                            f"line {line_no}: progress: {counter} "
                            f"regressed ({value} < {mark})"
                        )
                    else:
                        progress_marks[counter] = value
            schema = schemas.get(event)
            if schema is None:
                problems.append(
                    f"line {line_no}: unknown event type {event!r}"
                )
                continue
            present = set(record) - RESERVED_FIELDS - CORRELATION_FIELDS
            missing = schema["required"] - present
            for name in sorted(missing):
                problems.append(
                    f"line {line_no}: {event}: missing field {name!r}"
                )
            unknown = present - schema["required"] - schema["optional"]
            for name in sorted(unknown):
                problems.append(
                    f"line {line_no}: {event}: undeclared field {name!r}"
                )
    if events_seen == 0:
        problems.append(
            "trace contains no events (empty or truncated file)"
        )
    return problems
