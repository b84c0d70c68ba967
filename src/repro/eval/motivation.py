"""Figures 2-5: the Section 3 motivating examples, analysed end to end.

* Figure 2 (unknown application): represented by the strict-conditions
  policy mode -- with no application knowledge every sufficient condition
  must be enforced, which is the premise of the secure-by-design systems
  the paper replaces.
* Figure 3: the constant-offset application verifies secure unmodified.
* Figure 4: the tainted-offset application is vulnerable.
* Figure 5: the masked variant verifies secure again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core import TaintTracker
from repro.eval.formatting import format_table
from repro.isa.assembler import assemble
from repro.workloads import motivating


@dataclass
class MotivationRow:
    figure: str
    description: str
    secure: bool
    conditions: Set[int]


def build_motivation() -> List[MotivationRow]:
    rows: List[MotivationRow] = []
    for figure, description, source in (
        (
            "Figure 3",
            "constant offset: tainted/untainted halves never mix",
            motivating.figure3_source(),
        ),
        (
            "Figure 4",
            "offset read from the tainted port P1",
            motivating.figure4_source(),
        ),
        (
            "Figure 5",
            "Figure 4 plus the masking repair",
            motivating.figure5_source(),
        ),
    ):
        result = TaintTracker(
            assemble(source, name=figure.replace(" ", "").lower())
        ).run()
        rows.append(
            MotivationRow(
                figure=figure,
                description=description,
                secure=result.secure,
                conditions=result.violated_conditions(),
            )
        )
    return rows


def render_motivation(rows=None) -> str:
    if rows is None:
        rows = build_motivation()
    table = format_table(
        ["figure", "application", "verdict", "conditions violated"],
        [
            (
                row.figure,
                row.description,
                "SECURE" if row.secure else "INSECURE",
                ", ".join(map(str, sorted(row.conditions))) or "-",
            )
            for row in rows
        ],
        title="Figures 3-5: the motivating offset application",
    )
    return (
        table
        + "\nFigure 2 (unknown application): with no application knowledge "
        "all five conditions must be enforced in hardware -- the premise "
        "this paper's software-based approach removes."
    )
