"""Job records and their state machine.

A *job* is one analysis request accepted by the service: an assembly
source plus policy/budget parameters, tracked from submission to a
terminal verdict.  The lifecycle is a small explicit state machine::

    queued ──> running ──> done          (verdict secure/insecure)
                 │  ▲  └──> inconclusive (budget exhausted, degraded)
                 │  │  └──> failed       (non-retriable error, or
                 ▼  │                     retry attempts exhausted)
              retrying ────> failed

``retrying`` holds jobs whose worker failed retriably (typed error with
``retriable=True``, crash, heartbeat loss, deadline kill, or a drain
checkpoint) until their backoff expires; the supervisor then moves them
back to ``running``, resuming from the job's checkpoint when one exists.
The daemon's crash-recovery replay moves ``running`` jobs to
``retrying`` too: a job that was in flight when the daemon died is
simply re-run from its last checkpoint.

Every state change goes through :func:`transition`, which validates the
edge and stamps the record's history, so an impossible transition is a
bug caught at the call site rather than a silently corrupted journal.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

#: Every state a job record can be in, in lifecycle order.
JOB_STATES = (
    "queued",
    "running",
    "retrying",
    "done",
    "failed",
    "inconclusive",
)

#: States that end the lifecycle (the supervisor never touches these).
TERMINAL_STATES = frozenset({"done", "failed", "inconclusive"})

#: Legal state-machine edges (see the module docstring's diagram).
TRANSITIONS = {
    "queued": frozenset({"running", "failed"}),
    "running": frozenset({"done", "inconclusive", "failed", "retrying"}),
    "retrying": frozenset({"running", "failed"}),
    "done": frozenset(),
    "failed": frozenset(),
    "inconclusive": frozenset(),
}

#: Verdict -> terminal state ("secure" and "insecure" are both *done*:
#: the analysis completed and its exit code carries the verdict).
VERDICT_STATES = {
    "secure": "done",
    "insecure": "done",
    "inconclusive": "inconclusive",
}


class InvalidTransition(ValueError):
    """An illegal state-machine edge was requested (a supervisor bug)."""


def submission_digest(
    source: str, policy: str, max_cycles: int, budget: Dict[str, Any]
) -> str:
    """Content fingerprint of a submission: same source + parameters
    hash identically regardless of submission time or name."""
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update(repr((policy, max_cycles, sorted(budget.items()))).encode())
    return digest.hexdigest()


def job_id_for(seq: int, digest: str) -> str:
    """Stable, human-scannable job id: journal sequence + content tag."""
    return f"j{seq:06d}-{digest[:10]}"


@dataclass
class JobRecord:
    """One journaled job.  Serialised as a plain dict (``to_dict``) so
    the journal stays readable by ``json`` alone."""

    job_id: str
    name: str
    source: str
    policy: str
    max_cycles: int
    budget: Dict[str, Any]
    digest: str
    seq: int = 0
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = 4
    shed: bool = False
    submitted_unix: float = 0.0
    updated_unix: float = 0.0
    #: wall-clock (unix) time before which a retry must not launch --
    #: wall clock rather than monotonic so backoff survives a daemon
    #: restart.
    not_before: float = 0.0
    verdict: Optional[str] = None
    exit_code: Optional[int] = None
    error: Optional[Dict[str, Any]] = None
    artifacts: Dict[str, str] = field(default_factory=dict)
    fault_injection: Optional[Dict[str, Any]] = None
    history: List[Dict[str, Any]] = field(default_factory=list)
    #: latest heartbeat progress document from the running worker (the
    #: daemon refreshes it every tick; engines older than trace v4 and
    #: bare-touch heartbeats leave it None)
    progress: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in document.items() if k in known})

    def summary(self) -> Dict[str, Any]:
        """The ``GET /jobs`` listing entry (no source body)."""
        return {
            "id": self.job_id,
            "name": self.name,
            "state": self.state,
            "attempts": self.attempts,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "shed": self.shed,
            "submitted_unix": self.submitted_unix,
            "updated_unix": self.updated_unix,
            "progress": self.progress,
        }


def new_job(
    *,
    seq: int,
    name: str,
    source: str,
    policy: str,
    max_cycles: int,
    budget: Dict[str, Any],
    max_attempts: int,
    shed: bool = False,
    fault_injection: Optional[Dict[str, Any]] = None,
    now: Optional[float] = None,
) -> JobRecord:
    now = time.time() if now is None else now
    digest = submission_digest(source, policy, max_cycles, budget)
    return JobRecord(
        job_id=job_id_for(seq, digest),
        name=name,
        source=source,
        policy=policy,
        max_cycles=max_cycles,
        budget=dict(budget),
        digest=digest,
        seq=seq,
        shed=shed,
        max_attempts=max_attempts,
        submitted_unix=now,
        updated_unix=now,
        fault_injection=fault_injection,
    )


def transition(
    record: JobRecord,
    state: str,
    *,
    note: str = "",
    now: Optional[float] = None,
    **updates: Any,
) -> JobRecord:
    """Move *record* to *state*, validating the edge and stamping the
    history.  Extra keywords update record fields (verdict, error, ...).
    Mutates and returns *record*."""
    if state not in JOB_STATES:
        raise InvalidTransition(f"unknown job state {state!r}")
    if state not in TRANSITIONS[record.state]:
        raise InvalidTransition(
            f"job {record.job_id}: illegal transition "
            f"{record.state!r} -> {state!r}"
        )
    now = time.time() if now is None else now
    for key, value in updates.items():
        if key not in record.__dataclass_fields__:
            raise InvalidTransition(
                f"job {record.job_id}: unknown field {key!r}"
            )
        setattr(record, key, value)
    record.state = state
    record.updated_unix = now
    record.history.append(
        {"state": state, "unix": now, "note": note, "attempt": record.attempts}
    )
    return record
