"""Analysis tractability (footnote 4).

"This conservative approximation technique allows input-independent
gate-level taint tracking to complete in a tractable amount of time, even
for applications with an exponentially-large or infinite number of
execution paths ... complete analysis of our most complex system takes 3
hours" (on the authors' testbed; ours is a Python gate-level simulator, so
we report our own wall times plus the exploration-effort counters that
show *why* it terminates: merges prune the unbounded tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import TaintTracker
from repro.eval.formatting import format_table
from repro.workloads.registry import BENCHMARKS


@dataclass
class RuntimeRow:
    name: str
    wall_seconds: float
    paths: int
    forks: int
    merges: int
    merge_terminations: int
    cycles: int
    instructions: int


def build_runtime(names: Optional[List[str]] = None) -> List[RuntimeRow]:
    rows: List[RuntimeRow] = []
    for name, info in BENCHMARKS.items():
        if names is not None and name not in names:
            continue
        result = TaintTracker(info.service_program()).run()
        stats = result.stats
        rows.append(
            RuntimeRow(
                name=name,
                wall_seconds=stats.wall_seconds,
                paths=stats.paths,
                forks=stats.forks,
                merges=stats.merges,
                merge_terminations=stats.terminations_by_merge,
                cycles=stats.cycles_simulated,
                instructions=stats.instructions,
            )
        )
    return rows


def render_runtime(rows=None, **kwargs) -> str:
    if rows is None:
        rows = build_runtime(**kwargs)
    table = format_table(
        [
            "benchmark",
            "wall (s)",
            "paths",
            "forks",
            "merges",
            "merge-stops",
            "cycles",
        ],
        [
            (
                row.name,
                f"{row.wall_seconds:.1f}",
                row.paths,
                row.forks,
                row.merges,
                row.merge_terminations,
                row.cycles,
            )
            for row in rows
        ],
        title="analysis effort per benchmark (footnote 4: conservative "
        "merging keeps the infinite tree tractable)",
    )
    total = sum(row.wall_seconds for row in rows)
    slowest = max(rows, key=lambda row: row.wall_seconds)
    return (
        table
        + f"\ntotal wall time: {total:.0f}s; most complex system: "
        f"{slowest.name} at {slowest.wall_seconds:.1f}s "
        "(paper: 3 hours on the authors' RTL flow)"
    )
