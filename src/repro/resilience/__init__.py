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

from repro import lazy_exports

#: Each re-exported name and the submodule it is imported from on first
#: use (see :func:`repro.lazy_exports`): an analysis that writes no
#: checkpoint, injects no fault and estimates no progress loads none
#: of those modules.
__getattr__, __dir__ = lazy_exports(__name__, {
    "EXIT_ANALYSIS": "errors",
    "EXIT_CHECKPOINT": "errors",
    "EXIT_FUNDAMENTAL": "errors",
    "EXIT_INCONCLUSIVE": "errors",
    "EXIT_INPUT": "errors",
    "EXIT_INSECURE": "errors",
    "EXIT_INTERRUPTED": "errors",
    "EXIT_SECURE": "errors",
    "VERDICT_EXIT_CODES": "errors",
    "AnalysisError": "errors",
    "AnalysisInterrupted": "errors",
    "CheckpointError": "errors",
    "ForkError": "errors",
    "InjectedFault": "errors",
    "InputError": "errors",
    "ReproError": "errors",
    "SimulationError": "errors",
    "taxonomy": "errors",
    "AnalysisBudget": "budget",
    "current_rss_mb": "budget",
    "CHECKPOINT_VERSION": "checkpoint",
    "Checkpointer": "checkpoint",
    "read_checkpoint": "checkpoint",
    "read_checkpoint_header": "checkpoint",
    "read_container": "checkpoint",
    "read_container_header": "checkpoint",
    "write_checkpoint": "checkpoint",
    "write_container": "checkpoint",
    "FAULT_KINDS": "faults",
    "FaultInjector": "faults",
    "PROGRESS_SCHEMA": "progress",
    "ProgressEstimator": "progress",
    "ProgressSnapshot": "progress",
})

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
