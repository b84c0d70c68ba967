"""Self-contained HTML rendering of a perf-attribution document.

:func:`build_perf_report` turns the JSON document produced by
:class:`repro.obs.perf.PerfAttribution` / ``repro perf`` into a single
HTML file with zero external references (no scripts, stylesheets or
fonts fetched from anywhere), matching the repo's other reports:

* a stacked **wall-clock decomposition bar** (rank evaluation, dispatch
  overhead, clock edges, Python-side SoC work, halt probing);
* a **rank treemap**: one tile per (pass kind, rank), area proportional
  to its share of attributed evaluation time, shaded by intensity, with
  the rank's per-cell-type gate counts in the tooltip -- the "where do
  the cycles go" view;
* per-**cell-type** evaluation counts;
* the **cone quiescence map**: per output-port fan-in cone, how often
  its boundary inputs changed between samples and how much of it
  toggles.
"""

from __future__ import annotations

from html import escape
from typing import Optional

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 64em; color: #1a1a2e; }
code, td.mono { font-family: 'SF Mono', Consolas, monospace;
                font-size: 0.9em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; margin: 0.8em 0; }
th, td { border: 1px solid #d5d5e0; padding: 0.35em 0.6em;
         text-align: left; font-size: 0.92em; }
th { background: #f0f0f7; }
td.num, th.num { text-align: right; }
.stack { display: flex; height: 28px; border-radius: 6px;
         overflow: hidden; margin: 0.6em 0; }
.stack div { min-width: 1px; }
.legend { color: #52525b; font-size: 0.85em; }
.swatch { display: inline-block; width: 0.8em; height: 0.8em;
          border-radius: 2px; margin-right: 0.3em;
          vertical-align: -0.05em; }
.treemap { display: flex; flex-wrap: wrap; gap: 3px; margin: 0.8em 0; }
.tile { color: #fff; border-radius: 4px; padding: 0.25em 0.4em;
        font-size: 0.78em; min-width: 2.2em; overflow: hidden;
        white-space: nowrap; box-sizing: border-box; }
.tile.iface { outline: 2px dashed #b45309; outline-offset: -2px; }
.qbar { background: #e4e4ee; border-radius: 3px; height: 0.9em;
        width: 100%; position: relative; }
.qbar div { background: #16a34a; border-radius: 3px; height: 100%; }
.hot { color: #b91c1c; font-weight: 600; }
footer { margin-top: 3em; color: #6b7280; font-size: 0.85em; }
"""

#: Stacked-bar segment colours, in rendering order.
_SEGMENTS = (
    ("rank evaluation", "#4338ca"),
    ("eval dispatch", "#818cf8"),
    ("clock edges", "#0e7490"),
    ("SoC python", "#b45309"),
    ("halt probe", "#a1a1aa"),
    ("unattributed", "#e4e4ee"),
)


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "&ndash;"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def _fmt_pct(value: Optional[float]) -> str:
    return "&ndash;" if value is None else f"{100 * value:.1f}%"


def _stack_html(document: dict) -> str:
    wall = document.get("wall_seconds") or 0.0
    attributed_groups = document.get("attributed_group_seconds", 0.0)
    parts = [
        attributed_groups,
        document.get("dispatch_seconds", 0.0),
        document.get("clock_seconds", 0.0),
        document.get("soc_python_seconds", 0.0),
        document.get("halt_probe_seconds", 0.0),
    ]
    parts.append(max(0.0, wall - sum(parts)))
    total = wall or sum(parts) or 1.0
    bars = []
    legend = []
    for (label, colour), seconds in zip(_SEGMENTS, parts):
        share = seconds / total
        bars.append(
            f"<div style='background:{colour};width:{share * 100:.2f}%'"
            f" title='{escape(label)}: {seconds:.4f}s "
            f"({share * 100:.1f}%)'></div>"
        )
        legend.append(
            f"<span class='swatch' style='background:{colour}'></span>"
            f"{escape(label)} {_fmt_pct(share)}"
        )
    return (
        f"<div class='stack'>{''.join(bars)}</div>"
        f"<p class='legend'>{' &nbsp; '.join(legend)} &nbsp;"
        f"(wall {_fmt_seconds(wall)})</p>"
    )


def _treemap_html(document: dict) -> str:
    ranks = document.get("ranks", [])
    total = sum(rank["seconds"] for rank in ranks) or 1.0
    peak = max((rank["seconds"] for rank in ranks), default=0.0) or 1.0
    tiles = []
    for rank in sorted(ranks, key=lambda r: -r["seconds"]):
        share = rank["seconds"] / total
        if share <= 0:
            continue
        intensity = rank["seconds"] / peak
        # indigo, darker = hotter
        lightness = 78 - round(intensity * 46)
        width = max(2.4, share * 100)
        cells = ", ".join(
            f"{name}: {stats['gates']} gate(s)"
            for name, stats in sorted(
                rank["cells"].items(),
                key=lambda item: -item[1]["gates"],
            )
        )
        kind = rank["kind"]
        css = "tile iface" if kind == "interface" else "tile"
        tiles.append(
            f"<div class='{css}' style='width:{width:.2f}%;"
            f"background:hsl(243,55%,{lightness}%)' "
            f"title='{escape(kind)} rank {rank['rank']}: "
            f"{rank['seconds'] * 1e3:.2f}ms ({share * 100:.1f}%), "
            f"{rank['gates_per_pass']} gate(s)/pass &#10;{escape(cells)}'>"
            f"r{rank['rank']}</div>"
        )
    return (
        f"<div class='treemap'>{''.join(tiles)}</div>"
        "<p class='legend'>tile area &prop; share of attributed "
        "evaluation time; dashed outline = interface-cone pass; hover "
        "for the per-cell-type breakdown</p>"
    )


def _cell_rows(document: dict) -> str:
    cell_types = document.get("cell_types", {})
    total = sum(s["evals"] for s in cell_types.values()) or 1
    rows = []
    for name, stats in sorted(
        cell_types.items(), key=lambda item: -item[1]["evals"]
    ):
        rows.append(
            f"<tr><td class='mono'>{escape(name)}</td>"
            f"<td class='num'>{stats['evals']:,}</td>"
            f"<td class='num'>{_fmt_pct(stats['evals'] / total)}</td></tr>"
        )
    return "".join(rows)


def _cone_rows(document: dict) -> str:
    rows = []
    cones = sorted(
        document.get("cones", []),
        key=lambda cone: -(cone["toggle_rate"] or 0.0),
    )
    for cone in cones:
        quiescent = cone["quiescent_fraction"]
        bar = (
            f"<div class='qbar'><div style='width:"
            f"{(quiescent or 0.0) * 100:.1f}%'></div></div>"
        )
        active = cone["active_fraction"]
        active_css = (
            " class='hot'" if active is not None and active > 0.5 else ""
        )
        rows.append(
            f"<tr><td class='mono'>{escape(cone['port'])}</td>"
            f"<td class='num'>{cone['member_nets']}</td>"
            f"<td class='num'>{cone['input_nets']}</td>"
            f"<td class='num'>{cone['depth']}</td>"
            f"<td{active_css} class='num'>{_fmt_pct(active)}</td>"
            f"<td>{bar}</td>"
            f"<td class='num'>{_fmt_pct(cone['toggle_rate'])}</td></tr>"
        )
    return "".join(rows)


def build_perf_report(document: dict, title: Optional[str] = None) -> str:
    """Render one attribution document as a self-contained HTML page."""
    workload = document.get("workload", "?")
    title = title or f"GLIFT perf attribution: {workload}"
    passes = document.get("passes", {})
    activity = document.get("activity", {})
    summary_rows = [
        ("cycles simulated", f"{document.get('cycles', 0):,}"),
        (
            "cycles / second",
            f"{document['cycles_per_second']:,.0f}"
            if document.get("cycles_per_second")
            else "&ndash;",
        ),
        ("wall time", _fmt_seconds(document.get("wall_seconds"))),
        (
            "attributed",
            f"{_fmt_seconds(document.get('attributed_seconds'))} "
            f"({_fmt_pct(document.get('attributed_fraction'))} of wall)",
        ),
        (
            "evaluation passes",
            f"{passes.get('full', 0):,} full / "
            f"{passes.get('interface', 0):,} interface",
        ),
        (
            "mean nets changed per sample",
            _fmt_pct(activity.get("mean_changed_fraction")),
        ),
        (
            "activity samples",
            f"{activity.get('samples', 0):,} "
            f"(every {document.get('sample_every', '?')} full passes)",
        ),
    ]
    summary = "".join(
        f"<tr><th>{escape(label)}</th><td>{value}</td></tr>"
        for label, value in summary_rows
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{escape(title)}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{escape(title)}</h1>
<table>{summary}</table>

<h2>Wall-clock decomposition</h2>
{_stack_html(document)}

<h2>Evaluation time by rank</h2>
{_treemap_html(document)}

<h2>Gate evaluations by cell type</h2>
<table>
<tr><th>cell type</th><th class='num'>gate evals</th>
<th class='num'>share</th></tr>
{_cell_rows(document)}
</table>

<h2>Cone quiescence map</h2>
<p class='legend'>per output-port fan-in cone; <em>quiescent</em> =
fraction of sampled passes where no boundary input (flip-flop Q, port,
constant) changed.</p>
<table>
<tr><th>port cone</th><th class='num'>nets</th>
<th class='num'>inputs</th><th class='num'>depth</th>
<th class='num'>active</th><th style='width:30%'>quiescent</th>
<th class='num'>toggle rate</th></tr>
{_cone_rows(document)}
</table>

<footer>generated by <code>repro perf</code>; attribution schema
{document.get('schema', '?')}, self-contained (no external
resources).</footer>
</body>
</html>
"""
