"""``repro.resilience`` -- budgets, checkpoints, faults, typed errors.

The resilience layer turns the analyzer from a batch job that either
finishes or dies into a service-grade component:

* :mod:`repro.resilience.errors`     -- the :class:`ReproError` taxonomy
  (code, phase, retriable flag) and the CLI exit-code table;
* :mod:`repro.resilience.budget`     -- :class:`AnalysisBudget` ceilings
  with *sound degradation*: exhaustion widens unexplored work to the
  fully-tainted top state and yields verdict ``inconclusive`` instead of
  discarding hours of exploration;
* :mod:`repro.resilience.checkpoint` -- versioned, digest-validated
  checkpoint/resume of the tracker's full exploration state;
* :mod:`repro.resilience.faults`     -- seeded fault injection into the
  gate-level substrate, proving the analyzer survives (or fails typed);
* :mod:`repro.resilience.progress`   -- :class:`ProgressEstimator`
  periodic exploration snapshots (frontier, cycles, budget consumption,
  bounded ETA) feeding trace ``progress`` events and the service's
  heartbeat/SSE progress pipeline.
"""

from repro.resilience.errors import (
    EXIT_ANALYSIS,
    EXIT_CHECKPOINT,
    EXIT_FUNDAMENTAL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_INSECURE,
    EXIT_INTERRUPTED,
    EXIT_SECURE,
    VERDICT_EXIT_CODES,
    AnalysisError,
    AnalysisInterrupted,
    CheckpointError,
    ForkError,
    InjectedFault,
    InputError,
    ReproError,
    SimulationError,
    taxonomy,
)
from repro.resilience.budget import AnalysisBudget, current_rss_mb
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    read_checkpoint,
    read_checkpoint_header,
    read_container,
    read_container_header,
    write_checkpoint,
    write_container,
)
from repro.resilience.faults import FAULT_KINDS, FaultInjector
from repro.resilience.progress import (
    PROGRESS_SCHEMA,
    ProgressEstimator,
    ProgressSnapshot,
)

__all__ = [
    "EXIT_SECURE",
    "EXIT_INSECURE",
    "EXIT_FUNDAMENTAL",
    "EXIT_INCONCLUSIVE",
    "EXIT_INPUT",
    "EXIT_CHECKPOINT",
    "EXIT_ANALYSIS",
    "EXIT_INTERRUPTED",
    "VERDICT_EXIT_CODES",
    "ReproError",
    "InputError",
    "AnalysisError",
    "SimulationError",
    "ForkError",
    "CheckpointError",
    "AnalysisInterrupted",
    "InjectedFault",
    "taxonomy",
    "AnalysisBudget",
    "current_rss_mb",
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "read_container",
    "read_container_header",
    "write_container",
    "read_checkpoint",
    "read_checkpoint_header",
    "write_checkpoint",
    "FAULT_KINDS",
    "FaultInjector",
    "PROGRESS_SCHEMA",
    "ProgressEstimator",
    "ProgressSnapshot",
]
