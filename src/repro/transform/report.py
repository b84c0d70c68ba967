"""Compiler-style diagnostics for the secure-compile flow (Section 6).

"For each instance where the compiler applies a modification ... it also
reports a compile error or warning to the developer, indicating the line
of code that caused the violation and the change that was made to fix the
violation."
"""

from __future__ import annotations

from typing import List

from repro.core.violations import Violation
from repro.transform.rootcause import RootCauses


def render_diagnostics(
    program_name: str,
    causes: RootCauses,
    fixes: List[str],
    verified: bool = True,
) -> str:
    """One diagnostic line per error, applied fix and taint-flow note;
    with none, a closing line that claims no change was needed only
    when the analysis was *verified* (not cut short by a budget)."""
    lines: List[str] = []
    for violation in causes.fundamental + causes.port_errors:
        location = f"line {violation.source_line}" if violation.source_line else f"0x{violation.address:04x}"
        lines.append(
            f"{program_name}:{location}: error: {violation.kind}: "
            f"{violation.detail or 'illegal access'} -- change the "
            "software or redefine the information-flow labels"
        )
    for fix in fixes:
        lines.append(f"{program_name}: warning: {fix}")
    for flow in causes.explanations:
        violation = flow.violation
        where = (
            f"0x{violation.address:04x}" if violation is not None else "?"
        )
        lines.append(
            f"{program_name}: note: taint flow at {where}: {flow.summary()}"
        )
    if not lines:
        lines.append(
            f"{program_name}: no modifications required"
            if verified
            else f"{program_name}: no modifications made before an "
            "analysis budget was exhausted"
        )
    return "\n".join(lines)
