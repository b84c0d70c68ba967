"""Self-contained HTML analysis reports.

:func:`build_report` turns one :class:`~repro.core.tracker.AnalysisResult`
(plus its provenance recorder, when one was armed) into a single HTML
document with zero external references -- no scripts, no stylesheets, no
fonts, no images fetched from anywhere.  The file can be archived as a CI
artifact or mailed around and will render identically forever.

Sections: verdict banner, analysis summary, per-cycle taint-propagation
heatmap (pure-CSS bars from :meth:`ProvenanceRecorder.cycle_activity`),
violation table, and one provenance chain per violation with the full
Graphviz DOT subgraph tucked into a ``<details>`` fold.
"""

from __future__ import annotations

from html import escape
from typing import List, Optional

from repro.obs.provenance import (
    RAM_WRITE_CAPPED,
    RING_WRAPPED,
    FlowSlice,
    ProvenanceRecorder,
    explain_violation,
)

#: Upper bound on fully-explained violations per report; the violation
#: table always lists everything, but backward slices are O(edges) each.
MAX_EXPLAINED = 16

#: What each ``ProvenanceRecorder.truncated_by`` cause means for a chain.
_TRUNCATION_NOTES = {
    RING_WRAPPED: "the edge ring wrapped, so any chain below may bottom "
    "out at an (unrecorded) node before a labelled input",
    RAM_WRITE_CAPPED: "a smeared store exceeded its fanout cap, so "
    "chains through the unlinked RAM words stop at their ram[...] word",
}

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 60em; color: #1a1a2e; }
code, pre, td.mono { font-family: 'SF Mono', Consolas, monospace;
                     font-size: 0.9em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
.banner { padding: 0.6em 1em; border-radius: 6px; font-weight: 600; }
.banner.secure { background: #d7f5dd; color: #14532d; }
.banner.insecure { background: #fde2e2; color: #7f1d1d; }
.banner.inconclusive { background: #fef3c7; color: #78350f; }
table { border-collapse: collapse; width: 100%; margin: 0.8em 0; }
th, td { border: 1px solid #d5d5e0; padding: 0.35em 0.6em;
         text-align: left; font-size: 0.92em; }
th { background: #f0f0f7; }
.sev-error { color: #b91c1c; font-weight: 600; }
.sev-warning { color: #b45309; font-weight: 600; }
.sev-advisory { color: #52525b; }
.heatmap { display: flex; align-items: flex-end; gap: 1px;
           height: 72px; margin: 0.6em 0; }
.heatmap .bucket { flex: 1 1 0; background: #6366f1; min-height: 1px; }
.heatmap .bucket.zero { background: #e4e4ee; }
.hm-caption { color: #52525b; font-size: 0.85em; }
.chain { background: #f7f7fc; border: 1px solid #d5d5e0;
         border-radius: 6px; padding: 0.7em 1em; margin: 0.6em 0;
         overflow-x: auto; }
.origin { background: #fde2e2; border-radius: 3px; padding: 0 0.25em; }
.sink { background: #fef3c7; border-radius: 3px; padding: 0 0.25em; }
details { margin: 0.4em 0; }
summary { cursor: pointer; color: #4338ca; }
.trunc { color: #b45309; font-size: 0.9em; }
footer { margin-top: 3em; color: #6b7280; font-size: 0.85em; }
"""


def _heatmap_html(recorder: ProvenanceRecorder, buckets: int = 48) -> str:
    activity = recorder.cycle_activity(buckets)
    if not activity:
        return "<p class='hm-caption'>no taint propagation recorded</p>"
    peak = max(entry["edges"] for entry in activity) or 1
    bars = []
    for entry in activity:
        height = round(100 * entry["edges"] / peak)
        css = "bucket zero" if entry["edges"] == 0 else "bucket"
        bars.append(
            f"<div class='{css}' style='height:{max(height, 2)}%' "
            f"title='cycles {entry['from_cycle']}-{entry['to_cycle']}: "
            f"{entry['edges']} edge(s)'></div>"
        )
    low = activity[0]["from_cycle"]
    high = activity[-1]["to_cycle"]
    return (
        f"<div class='heatmap'>{''.join(bars)}</div>"
        f"<p class='hm-caption'>newly-tainted-net edges per cycle bucket, "
        f"cycles {low}&ndash;{high} (peak {peak} edges/bucket)</p>"
    )


def _chain_html(flow: FlowSlice) -> str:
    """The origin -> sink chain as one annotated monospace block."""
    if not flow.chain:
        return (
            "<div class='chain'><code>&lt;no linear chain: "
            + escape(", ".join(flow.origins) or "unrecorded taint")
            + "&gt;</code></div>"
        )
    first = flow.chain[0]
    parts = [f"<span class='origin'>{escape(first.src_name)}</span>"]
    for index, edge in enumerate(flow.chain):
        last = index == len(flow.chain) - 1
        name = escape(edge.dst_name)
        if last:
            name = f"<span class='sink'>{name}</span>"
        parts.append(
            f" &mdash;{escape(edge.kind)}@{edge.cycle}&rarr; {name}"
        )
    return f"<div class='chain'><code>{''.join(parts)}</code></div>"


def _violation_rows(violations) -> str:
    rows = []
    for index, violation in enumerate(violations):
        rows.append(
            "<tr>"
            f"<td>{index}</td>"
            f"<td class='sev-{escape(violation.severity)}'>"
            f"{escape(violation.severity)}</td>"
            f"<td class='mono'>{escape(violation.kind)}</td>"
            f"<td>{violation.condition}</td>"
            f"<td>{violation.cycle}</td>"
            f"<td class='mono'>0x{violation.address:04x}</td>"
            f"<td>{escape(violation.task or '-')}</td>"
            "</tr>"
        )
    return "".join(rows)


def build_report(
    result,
    recorder: Optional[ProvenanceRecorder] = None,
    title: Optional[str] = None,
    max_explained: int = MAX_EXPLAINED,
    timeline_link: Optional[str] = None,
) -> str:
    """One self-contained HTML document for *result*.

    *recorder* defaults to ``result.provenance``; without one the report
    still renders (verdict, stats, violations) but has no heatmap and no
    provenance chains.  *timeline_link* adds a relative link to a
    ``repro view`` page sitting next to the report -- a local file
    reference, so the report itself stays self-contained.
    """
    if recorder is None:
        recorder = getattr(result, "provenance", None)
    name = result.program.name
    title = title or f"GLIFT analysis report: {name}"
    verdict = result.verdict
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html lang='en'><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<div class='banner {escape(verdict)}'>verdict: "
        f"{escape(verdict.upper())}"
        + (
            f" &mdash; budget exhausted: {escape(', '.join(result.exhausted))}"
            if result.exhausted
            else ""
        )
        + "</div>",
    ]

    # -- summary -------------------------------------------------------
    stats = result.stats
    summary_rows = [
        ("program", escape(name)),
        ("policy", escape(f"{result.policy.name} ({result.policy.kind})")),
        ("paths explored", stats.paths),
        ("cycles simulated", stats.cycles_simulated),
        ("instructions", stats.instructions),
        ("violations", len(result.violations)),
        (
            "violated conditions",
            escape(
                ", ".join(str(c) for c in sorted(result.violated_conditions()))
                or "none"
            ),
        ),
    ]
    if recorder is not None:
        prov = recorder.snapshot()
        summary_rows.append(("provenance edges", prov["edges_recorded"]))
        summary_rows.append(
            (
                "provenance retained",
                f"{prov['edges_retained']} / capacity {prov['capacity']}",
            )
        )
        summary_rows.append(
            ("taint labels", escape(", ".join(prov["labels"]) or "none"))
        )
    if timeline_link:
        parts.append(
            f"<p>time-travel view: <a href='{escape(timeline_link)}'>"
            f"{escape(timeline_link)}</a> (open next to this report; "
            "generated by <code>repro view</code>)</p>"
        )
    parts.append("<h2>Summary</h2><table>")
    for key, value in summary_rows:
        parts.append(f"<tr><th>{key}</th><td>{value}</td></tr>")
    parts.append("</table>")
    if recorder is not None and recorder.truncated:
        notes = "; ".join(
            f"{reason}: {_TRUNCATION_NOTES[reason]}"
            for reason in recorder.truncated_by
        ) or "cause unknown: chains below may bottom out early"
        parts.append(
            f"<p class='trunc'>provenance_truncated ({escape(notes)}).</p>"
        )

    # -- heatmap -------------------------------------------------------
    if recorder is not None:
        parts.append("<h2>Taint propagation heatmap</h2>")
        parts.append(_heatmap_html(recorder))

    # -- violations ----------------------------------------------------
    parts.append("<h2>Violations</h2>")
    if result.violations:
        parts.append(
            "<table><tr><th>#</th><th>severity</th><th>kind</th>"
            "<th>cond</th><th>cycle</th><th>address</th><th>task</th></tr>"
            + _violation_rows(result.violations)
            + "</table>"
        )
    else:
        parts.append("<p>none -- every sufficient condition held.</p>")

    # -- provenance chains ---------------------------------------------
    if recorder is not None and result.violations:
        parts.append("<h2>Provenance</h2>")
        explained = result.violations[:max_explained]
        if len(result.violations) > len(explained):
            parts.append(
                f"<p class='trunc'>explaining the first {len(explained)} "
                f"of {len(result.violations)} violations.</p>"
            )
        for index, violation in enumerate(explained):
            flow = explain_violation(result, violation, recorder=recorder)
            parts.append(
                f"<h3>#{index} <code>{escape(violation.kind)}</code> "
                f"at 0x{violation.address:04x}, cycle {violation.cycle}"
                "</h3>"
            )
            parts.append(f"<p>{escape(flow.summary())}</p>")
            parts.append(_chain_html(flow))
            dot = flow.to_dot(
                title=f"{violation.kind} at 0x{violation.address:04x}"
            )
            parts.append(
                "<details><summary>flow graph (Graphviz DOT, "
                f"{len(flow.edges)} edges)</summary>"
                f"<pre>{escape(dot)}</pre></details>"
            )

    parts.append(
        "<footer>generated by <code>repro report</code>; this file is "
        "self-contained (no external resources).</footer>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)
