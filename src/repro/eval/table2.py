"""Table 2: sufficient-condition violations before and after modification.

"Seven benchmarks do not violate any of the conditions ... six benchmarks
violate sufficient conditions 1 and 2 ... After performing software
modifications identified by our toolflow, all condition violations are
eliminated."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core import TaintTracker
from repro.eval.formatting import format_table
from repro.isasim.executor import run_concrete
from repro.transform import secure_compile
from repro.workloads.registry import BENCHMARKS


@dataclass
class Table2Row:
    name: str
    unmodified: Set[int]
    modified: Set[int]
    masked_stores: int = 0
    bounded: bool = False
    analysis_seconds: float = 0.0

    def mark(self, conditions: Set[int], condition: int) -> str:
        return "X" if condition in conditions else "-"


def build_table2(names: Optional[List[str]] = None) -> List[Table2Row]:
    rows: List[Table2Row] = []
    for name, info in BENCHMARKS.items():
        if names is not None and name not in names:
            continue
        result = TaintTracker(info.service_program()).run()
        unmodified = result.violated_conditions()
        row = Table2Row(
            name=name,
            unmodified=unmodified,
            modified=set(),
            analysis_seconds=result.stats.wall_seconds,
        )
        if unmodified:
            measured = run_concrete(
                info.measurement_program(),
                max_cycles=100_000,
                follow_watchdog=False,
            )
            repaired = secure_compile(
                info.service_source,
                name=name,
                task_cycles={"bench": measured.cycles},
            )
            row.modified = repaired.analysis.violated_conditions()
            row.masked_stores = repaired.masked_stores
            row.bounded = bool(repaired.bounded_tasks)
        rows.append(row)
    return rows


def render_table2(rows=None, **kwargs) -> str:
    if rows is None:
        rows = build_table2(**kwargs)
    table = format_table(
        [
            "benchmark",
            "unmod C1",
            "unmod C2",
            "mod C1",
            "mod C2",
            "masked",
            "watchdog",
        ],
        [
            (
                row.name,
                row.mark(row.unmodified, 1),
                row.mark(row.unmodified, 2),
                row.mark(row.modified, 1),
                row.mark(row.modified, 2),
                row.masked_stores,
                "yes" if row.bounded else "-",
            )
            for row in rows
        ],
        title=(
            "Table 2: benchmarks violating sufficient conditions 1 and 2 "
            "before/after modification"
        ),
    )
    violators = [row.name for row in rows if row.unmodified]
    clean = [row.name for row in rows if not row.unmodified]
    return (
        table
        + f"\nviolators ({len(violators)}): {', '.join(violators)}"
        + f"\nclean ({len(clean)}): {', '.join(clean)}"
        + "\nafter modification: "
        + (
            "all condition violations eliminated"
            if all(not row.modified for row in rows)
            else "VIOLATIONS REMAIN"
        )
    )
