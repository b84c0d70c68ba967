"""Continuous benchmark-regression tracking for ``repro bench``.

The benchmarks under ``benchmarks/`` already emit one ``BENCH_*.json``
artifact each (schema 3: ``git_rev``/``utc``/``host``/``wall_seconds``,
plus ``cycles_per_second`` for cycle-based benches).  Those are
*snapshots* -- the committed file only shows the latest number.  This
module adds the time axis:

* :func:`run_benches` executes selected bench modules through pytest in
  a subprocess and collects the documents they emitted;
* :func:`append_history` appends each document as one line of the
  ``BENCH_history.jsonl`` ledger, so every run of ``repro bench``
  extends a git-rev-stamped series;
* :func:`detect_regressions` walks the ledger per (bench, metric) and
  flags the latest entry when it degrades beyond both a **relative
  threshold** and a **noise bar** (median absolute deviation of the
  history) -- a 2x slowdown on a stable series is confirmed, the same
  ratio inside a noisy series is only suspected;
* :func:`render_dashboard` turns the ledger into a self-contained HTML
  page with an inline-SVG sparkline per series.

CI runs ``repro bench --quick --check`` as the ``perf-smoke`` gate:
exit 1 when a confirmed regression lands.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from html import escape
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Schema of one BENCH_history.jsonl line (the artifact document plus
#: nothing -- the common keys come from benchmarks/_emit.py).
HISTORY_SCHEMA = 3

#: The fastest meaningful benches; the CI perf-smoke gate runs only
#: these (``repro bench --quick``) to stay under a minute.
QUICK_BENCHES = (
    "bench_fig1_glift_nand.py",
    "bench_fig7_tree.py",
)

#: (metric key, direction) pairs the detector watches.  ``+1`` means
#: higher is a regression (times), ``-1`` means lower is (throughput).
TRACKED_METRICS: Tuple[Tuple[str, int], ...] = (
    ("wall_seconds", +1),
    ("cycles_per_second", -1),
)


def bench_dir(repo_root: Optional[Path] = None) -> Path:
    root = repo_root or Path.cwd()
    return root / "benchmarks"


def select_benches(
    repo_root: Optional[Path] = None,
    quick: bool = False,
    only: Sequence[str] = (),
) -> List[Path]:
    """The bench modules a run covers, sorted for determinism."""
    directory = bench_dir(repo_root)
    modules = sorted(directory.glob("bench_*.py"))
    if quick:
        modules = [m for m in modules if m.name in QUICK_BENCHES]
    if only:
        modules = [
            m
            for m in modules
            if any(fragment in m.name for fragment in only)
        ]
    return modules


def emitted_names(module: Path) -> List[str]:
    """The BENCH document names a bench module emits (static scan)."""
    return re.findall(
        r"bench_json\(\s*[\"']([\w-]+)[\"']", module.read_text()
    )


def run_benches(
    modules: Sequence[Path],
    out_dir: Optional[Path] = None,
    timeout: float = 1800.0,
) -> Tuple[int, List[dict]]:
    """Run *modules* under pytest; return (exit code, emitted docs).

    The subprocess inherits ``$REPRO_BENCH_DIR`` (or *out_dir*), so the
    artifacts land where the caller wants them and are read back for the
    ledger.  A non-zero pytest exit is reported, not raised -- partial
    artifacts are still collected so a crashing bench does not lose the
    others' numbers.
    """
    if not modules:
        return 0, []
    env = dict(os.environ)
    if out_dir is not None:
        env["REPRO_BENCH_DIR"] = str(out_dir)
    where = Path(env.get("REPRO_BENCH_DIR", Path.cwd()))
    repo_root = modules[0].parent.parent
    env.setdefault("PYTHONPATH", str(repo_root / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            *[str(m) for m in modules],
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=repo_root,
        env=env,
        timeout=timeout,
        # pytest's progress belongs on stderr: the caller's stdout may
        # be a machine-readable stream (``repro bench --json``).
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.stdout:
        sys.stderr.write(proc.stdout)
    documents = []
    for module in modules:
        for name in emitted_names(module):
            path = where / f"BENCH_{name}.json"
            if path.exists():
                try:
                    documents.append(json.loads(path.read_text()))
                except ValueError:
                    pass  # torn artifact: the run crashed mid-write
    return proc.returncode, documents


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------
def history_path(repo_root: Optional[Path] = None) -> Path:
    return (repo_root or Path.cwd()) / "BENCH_history.jsonl"


def append_history(path: Path, documents: Sequence[dict]) -> int:
    """Append one JSONL line per document; returns lines written."""
    if not documents:
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        for document in documents:
            handle.write(json.dumps(document, sort_keys=True) + "\n")
    return len(documents)


def load_history(path: Path) -> List[dict]:
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            continue  # a torn trailing line must not sink the ledger
    return entries


def _series(history: Sequence[dict]) -> Dict[str, List[dict]]:
    by_bench: Dict[str, List[dict]] = {}
    for entry in history:
        name = entry.get("bench")
        if name:
            by_bench.setdefault(name, []).append(entry)
    return by_bench


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: Sequence[float], center: float) -> float:
    return _median([abs(value - center) for value in values])


def detect_regressions(
    history: Sequence[dict],
    threshold: float = 0.30,
    mad_factor: float = 4.0,
    min_history: int = 3,
) -> List[dict]:
    """Noise-aware check of each series' latest entry.

    For every (bench, metric) series with at least *min_history* prior
    entries, the latest value is compared against the **median** of the
    prior entries.  It is flagged when it degrades by more than
    *threshold* (relative) **and** clears the noise bar: the degradation
    must exceed ``mad_factor`` times the prior entries' median absolute
    deviation.  A series whose MAD is zero (perfectly stable) uses the
    relative threshold alone.

    Returns one finding per flagged series::

        {"bench", "metric", "latest", "baseline_median", "mad",
         "ratio", "confirmed": True, "git_rev", "prior_runs"}

    Entries missing the metric (e.g. ``cycles_per_second`` on a bench
    with no cycle notion) simply drop out of that series.
    """
    findings: List[dict] = []
    for bench, entries in sorted(_series(history).items()):
        for metric, direction in TRACKED_METRICS:
            values = [
                float(entry[metric])
                for entry in entries
                if isinstance(entry.get(metric), (int, float))
            ]
            if len(values) < min_history + 1:
                continue
            latest = values[-1]
            prior = values[:-1]
            baseline = _median(prior)
            if baseline <= 0:
                continue
            mad = _mad(prior, baseline)
            if direction > 0:
                degraded = latest - baseline
                ratio = latest / baseline
            else:
                degraded = baseline - latest
                ratio = baseline / latest if latest > 0 else float("inf")
            relative = degraded / baseline
            if relative <= threshold:
                continue
            if mad > 0 and degraded <= mad_factor * mad:
                continue  # inside the series' own noise envelope
            findings.append(
                {
                    "bench": bench,
                    "metric": metric,
                    "latest": latest,
                    "baseline_median": baseline,
                    "mad": mad,
                    "ratio": ratio,
                    "confirmed": True,
                    "git_rev": entries[-1].get("git_rev", "unknown"),
                    "prior_runs": len(prior),
                }
            )
    return findings


# ---------------------------------------------------------------------------
# The dashboard
# ---------------------------------------------------------------------------
_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
         border-bottom: 1px solid #e3e3ef; }
th { background: #f4f4fb; }
.regressed { background: #fdecea; }
.spark { vertical-align: middle; }
.muted { color: #777; font-size: 0.8rem; }
"""


def _sparkline(values: Sequence[float], width=160, height=36) -> str:
    """One inline-SVG sparkline; the last point gets a marker dot."""
    if not values:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    step = width / max(1, len(values) - 1)
    points = [
        (
            round(index * step, 1),
            round(
                height - 4 - (value - low) / span * (height - 8), 1
            ),
        )
        for index, value in enumerate(values)
    ]
    polyline = " ".join(f"{x},{y}" for x, y in points)
    cx, cy = points[-1]
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{polyline}" fill="none" '
        f'stroke="#5c5cd6" stroke-width="1.5"/>'
        f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="#d64545"/></svg>'
    )


def render_dashboard(
    history: Sequence[dict], findings: Sequence[dict] = ()
) -> str:
    """The perf-trend page: one row per (bench, metric) series."""
    flagged = {(f["bench"], f["metric"]) for f in findings}
    rows: List[str] = []
    for bench, entries in sorted(_series(history).items()):
        for metric, _direction in TRACKED_METRICS:
            values = [
                float(entry[metric])
                for entry in entries
                if isinstance(entry.get(metric), (int, float))
            ]
            if not values:
                continue
            latest_entry = entries[-1]
            css = ' class="regressed"' if (bench, metric) in flagged else ""
            rows.append(
                f"<tr{css}><td>{escape(bench)}</td>"
                f"<td>{escape(metric)}</td>"
                f"<td>{len(values)}</td>"
                f"<td>{values[-1]:.6g}</td>"
                f"<td>{_median(values):.6g}</td>"
                f"<td>{_sparkline(values)}</td>"
                f"<td class=\"muted\">"
                f"{escape(str(latest_entry.get('git_rev', ''))[:10])} "
                f"{escape(str(latest_entry.get('utc', '')))}</td></tr>"
            )
    finding_rows = "".join(
        f"<tr><td>{escape(f['bench'])}</td><td>{escape(f['metric'])}</td>"
        f"<td>{f['latest']:.6g}</td><td>{f['baseline_median']:.6g}</td>"
        f"<td>{f['ratio']:.2f}x</td><td>{f['prior_runs']}</td></tr>"
        for f in findings
    )
    findings_html = (
        "<h2>Confirmed regressions</h2><table><tr><th>bench</th>"
        "<th>metric</th><th>latest</th><th>baseline</th><th>ratio</th>"
        "<th>prior runs</th></tr>" + finding_rows + "</table>"
        if findings
        else "<p>No confirmed regressions.</p>"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>repro bench trends</title>"
        f"<style>{_STYLE}</style></head><body>"
        "<h1>Benchmark trends</h1>"
        f"<p class='muted'>{len(history)} ledger entries; red dot marks "
        "the latest run of each series.</p>"
        + findings_html
        + "<h2>Series</h2><table><tr><th>bench</th><th>metric</th>"
        "<th>runs</th><th>latest</th><th>median</th><th>trend</th>"
        "<th>last run</th></tr>"
        + "".join(rows)
        + "</table></body></html>"
    )
