"""The paper's core contribution: application-specific gate-level IFT.

* :mod:`repro.core.labels`     -- information-flow security policies
  (tainted ports, memory partitions, code partitions; the untrusted and
  secret taint kinds are analysed as separate policy instances).
* :mod:`repro.core.violations` -- violation records and the mapping onto
  the five sufficient conditions of Section 5.1.
* :mod:`repro.core.tree`       -- the (pruned) symbolic execution tree.
* :mod:`repro.core.tracker`    -- Algorithm 1: input-independent gate-level
  taint tracking with PC concretisation and conservative state merging.
* :mod:`repro.core.checker`    -- information-flow policy checking over the
  tracker's per-cycle tainted state (Figure 6's second box).
"""

from repro import lazy_exports

#: Each re-exported name and the submodule it is imported from on first
#: use (see :func:`repro.lazy_exports`): importing the tracker loads
#: neither the union analysis nor anything else it does not run.
__getattr__, __dir__ = lazy_exports(__name__, {
    "SecurityPolicy": "labels",
    "default_policy": "labels",
    "secret_policy": "labels",
    "CONDITION_OF_KIND": "violations",
    "Violation": "violations",
    "ViolationKind": "violations",
    "ExecutionTree": "tree",
    "TreeNode": "tree",
    "AnalysisResult": "tracker",
    "TaintTracker": "tracker",
    "TrackerError": "tracker",
    "analyze_program": "checker",
    "check_conditions": "checker",
    "analyze_union": "union",
    "build_union_source": "union",
})

__all__ = [
    "SecurityPolicy",
    "default_policy",
    "secret_policy",
    "Violation",
    "ViolationKind",
    "CONDITION_OF_KIND",
    "ExecutionTree",
    "TreeNode",
    "TaintTracker",
    "TrackerError",
    "AnalysisResult",
    "analyze_program",
    "check_conditions",
    "analyze_union",
    "build_union_source",
]
