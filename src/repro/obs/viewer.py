"""Self-contained HTML time-travel viewer for ``.timeline`` files.

:func:`build_viewer` turns one :class:`~repro.obs.timeline.Timeline`
into a single HTML document with zero external references -- every
style, script and data byte is inline, same contract as
``repro.obs.report`` (which stays script-free; the viewer needs inline
JS for the scrubber and carries it all in this one file).

The page shows a cycle scrubber over every recorded frame, one
value/taint lane per CPU port (hex word, X-masked bits, tainted bits
highlighted), a taint-density sparkline with a playhead, and one marker
per violation that jumps the scrubber to the violation's frame and
lists the tainted sink nets there -- the same nets ``repro explain``
names, read from true per-cycle state instead of a backward slice.
"""

from __future__ import annotations

import json
from html import escape
from typing import List, Optional, Sequence

from repro.obs.timeline import Timeline

#: Ports rendered as lanes, in display order; missing ones are skipped
#: (custom circuits may not expose the debug ports).
DEFAULT_LANES = (
    "dbg_pc",
    "dbg_ir",
    "dbg_phase",
    "pmem_addr",
    "pmem_rdata",
    "dmem_addr",
    "dmem_wdata",
    "dmem_rdata",
    "dmem_wen",
    "dmem_ren",
)

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 64em; color: #1a1a2e; }
code, .mono { font-family: 'SF Mono', Consolas, monospace;
              font-size: 0.92em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
.scrub { display: flex; align-items: center; gap: 0.8em; margin: 1em 0; }
.scrub input[type=range] { flex: 1 1 0; }
.readout { min-width: 15em; font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%; margin: 0.8em 0; }
th, td { border: 1px solid #d5d5e0; padding: 0.3em 0.6em;
         text-align: left; font-size: 0.92em; }
th { background: #f0f0f7; }
td.tainted { background: #fde2e2; color: #7f1d1d; font-weight: 600; }
td.unknown { color: #6b7280; font-style: italic; }
.spark { width: 100%; height: 72px; background: #f7f7fc;
         border: 1px solid #d5d5e0; border-radius: 6px; }
.spark-caption { color: #52525b; font-size: 0.85em; }
.marker { display: inline-block; margin: 0.2em 0.4em 0.2em 0;
          padding: 0.3em 0.7em; border: 1px solid #b91c1c;
          border-radius: 6px; background: #fde2e2; color: #7f1d1d;
          cursor: pointer; font-size: 0.9em; }
.marker:hover { background: #fbc9c9; }
.nets { background: #f7f7fc; border: 1px solid #d5d5e0;
        border-radius: 6px; padding: 0.7em 1em; margin: 0.6em 0;
        font-size: 0.9em; overflow-x: auto; }
.trunc { color: #b45309; font-size: 0.9em; }
footer { margin-top: 3em; color: #6b7280; font-size: 0.85em; }
"""

_SCRIPT = """
'use strict';
const D = JSON.parse(document.getElementById('tl-data').textContent);
const scrub = document.getElementById('scrub');
const readout = document.getElementById('readout');
const playhead = document.getElementById('playhead');
const taintedCount = document.getElementById('tainted-count');
const SPARK_W = 600, SPARK_H = 60;

function hexWord(bits, xmask, tmask, width) {
  const nibbles = Math.max(1, Math.ceil(width / 4));
  let out = '';
  for (let n = nibbles - 1; n >= 0; n--) {
    const shift = n * 4;
    const x = (xmask >> shift) & 0xf;
    if (x) { out += 'X'; }
    else { out += ((bits >> shift) & 0xf).toString(16); }
  }
  return '0x' + out;
}

function render(frame) {
  frame = Math.max(0, Math.min(D.cycles.length - 1, frame | 0));
  scrub.value = frame;
  readout.textContent = 'frame ' + frame + ' / ' +
    (D.cycles.length - 1) + ' \\u00b7 cycle ' + D.cycles[frame];
  for (const port of D.lane_order) {
    const lane = D.lanes[port];
    const bits = lane.bits[frame], xmask = lane.xmask[frame],
      tmask = lane.tmask[frame];
    const cell = document.getElementById('lane-' + port);
    const width = D.lane_widths[port];
    cell.textContent = hexWord(bits, xmask, tmask, width) +
      (tmask ? ' \\u26a0 taint=0x' + tmask.toString(16) : '');
    cell.className = tmask ? 'mono tainted'
      : (xmask ? 'mono unknown' : 'mono');
  }
  taintedCount.textContent =
    D.tainted[frame] + ' of ' + D.num_nets + ' nets tainted (' +
    (100 * D.tainted[frame] / D.num_nets).toFixed(1) + '%)';
  const x = D.cycles.length > 1
    ? frame * SPARK_W / (D.cycles.length - 1) : 0;
  playhead.setAttribute('x1', x);
  playhead.setAttribute('x2', x);
}

scrub.addEventListener('input', () => render(+scrub.value));
document.querySelectorAll('.marker').forEach((button) => {
  button.addEventListener('click', () => render(+button.dataset.frame));
});
document.addEventListener('keydown', (event) => {
  if (event.key === 'ArrowLeft') { render(+scrub.value - 1); }
  if (event.key === 'ArrowRight') { render(+scrub.value + 1); }
});
render(D.markers.length ? D.markers[0].frame : 0);
"""


def _sparkline_svg(density: Sequence[float]) -> str:
    """The taint-density curve as one inline SVG with a JS playhead."""
    width, height = 600, 60
    count = len(density)
    if count == 0:
        return "<p class='spark-caption'>no frames recorded</p>"
    points = []
    for index, value in enumerate(density):
        x = index * width / max(1, count - 1) if count > 1 else 0
        y = height - value * (height - 4) - 2
        points.append(f"{x:.1f},{y:.1f}")
    return (
        f"<svg class='spark' viewBox='0 0 {width} {height}' "
        "preserveAspectRatio='none'>"
        f"<polyline points='{' '.join(points)}' fill='none' "
        "stroke='#6366f1' stroke-width='1.5'/>"
        f"<line id='playhead' x1='0' y1='0' x2='0' y2='{height}' "
        "stroke='#b91c1c' stroke-width='1.5'/>"
        "</svg>"
    )


def build_viewer(
    timeline: Timeline,
    title: Optional[str] = None,
    lanes: Sequence[str] = DEFAULT_LANES,
) -> str:
    """One self-contained HTML document scrubbing *timeline*."""
    title = title or "GLIFT timeline viewer"
    lane_order = [port for port in lanes if port in timeline.port_nets]
    lane_data, counts = timeline.scan(lane_order)
    density = counts / max(1, timeline.num_nets)
    tainted = counts.tolist()
    markers = []
    for marker in timeline.markers:
        # Tainted port bits at the violation frame, named the same way
        # provenance names them ("port[bit]"), so the viewer and
        # ``repro explain`` agree on what is tainted at the sink.
        codes = timeline.seek(marker.frame)
        tainted_nets = sorted(
            f"{port}[{bit}]"
            for port, nets in timeline.port_nets.items()
            for bit, net in enumerate(nets)
            if codes[net] & 1
        )
        markers.append(
            {
                "frame": marker.frame,
                "cycle": marker.cycle,
                "kind": marker.kind,
                "condition": marker.condition,
                "address": marker.address,
                "task": marker.task,
                "tainted_ports": tainted_nets,
            }
        )
    data = {
        "cycles": [int(c) for c in timeline.cycles],
        # Three flat per-frame arrays per port; the page indexes them
        # by frame.
        "lanes": {
            port: dict(zip(("bits", "xmask", "tmask"), words))
            for port, words in lane_data.items()
        },
        "lane_order": lane_order,
        "lane_widths": {
            port: len(timeline.port_nets[port]) for port in lane_order
        },
        "density": [round(float(value), 6) for value in density],
        "tainted": tainted,
        "num_nets": timeline.num_nets,
        "markers": markers,
    }

    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html lang='en'><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<p>{timeline.num_frames} frame(s), {timeline.num_nets} nets, "
        f"{len(timeline.markers)} violation marker(s)."
        + (
            " <span class='trunc'>Recording hit its frame bound; later"
            " cycles are missing.</span>"
            if timeline.truncated
            else ""
        )
        + "</p>",
        "<div class='scrub'>",
        "<input id='scrub' type='range' min='0' "
        f"max='{max(0, timeline.num_frames - 1)}' value='0' step='1'>",
        "<span id='readout' class='readout mono'></span>",
        "</div>",
        "<h2>Taint density</h2>",
        _sparkline_svg(density),
        "<p class='spark-caption'>fraction of tainted nets per frame; "
        "red line is the scrubber position. "
        "<span id='tainted-count'></span></p>",
        "<h2>Port lanes</h2>",
        "<table><tr><th>port</th><th>value at frame</th></tr>",
    ]
    for port in lane_order:
        parts.append(
            f"<tr><th>{escape(port)}</th>"
            f"<td id='lane-{escape(port)}' class='mono'></td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Violation markers</h2>")
    if markers:
        for marker in markers:
            parts.append(
                f"<button class='marker' data-frame='{marker['frame']}'>"
                f"{escape(marker['kind'])} @ cycle {marker['cycle']} "
                f"(0x{marker['address']:04x})</button>"
            )
        for marker in markers:
            ports = ", ".join(marker["tainted_ports"]) or "none recorded"
            parts.append(
                f"<div class='nets'><b>{escape(marker['kind'])}</b> at "
                f"cycle {marker['cycle']}, condition "
                f"{marker['condition']}, task "
                f"{escape(marker['task'] or '-')}: tainted port bits "
                f"at the violation frame: <code>{escape(ports)}</code>"
                "</div>"
            )
    else:
        parts.append("<p>none -- no violation fell on a recorded frame.</p>")

    # The embedded dataset: a JSON island the script parses on load.
    # '</' is escaped so net names can never close the script tag early.
    payload = json.dumps(data, separators=(",", ":")).replace("</", "<\\/")
    parts.append(
        f"<script type='application/json' id='tl-data'>{payload}</script>"
    )
    parts.append(f"<script>{_SCRIPT}</script>")
    parts.append(
        "<footer>generated by <code>repro view</code>; this file is "
        "self-contained (no external resources).</footer>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)
