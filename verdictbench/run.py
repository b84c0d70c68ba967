"""Time-to-verdict benchmark: the command that runs one workload.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S \
        --trace {0,1}

Run from the repository root.  Every measured analysis runs in a fresh
interpreter (``child.py``), one at a time: a closed loop with one client
and ``jobs=1``.  The untraced run (``--trace 0``) reports the end-to-end
metrics as medians over the run.  Its children share one pinned CPU with
the reference kernel (``reference.py``), whose speed beside them turns
their CPU seconds into seconds at a fixed reference speed: times that do
not move with the host's speed.  The traced run (``--trace 1``) runs one
untraced and one traced child, each alone, and reports the per-layer
metrics.  Every product is checked against the workload's golden
fingerprint (``golden.json``); a child that fails or mismatches is
counted in ``failed`` and left out of the timings.  The last line of standard
output is the JSON result; the lines before it name the host and every
metric with its unit.

``--update-golden`` re-derives ``golden.json`` from the current source.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

GOLDEN = HERE / "golden.json"
#: Set-up-only children per untraced run, on top of one unmeasured
#: warm-up child that fills the file-system and bytecode caches.
SETUP_PROBES = 5
#: Reference passes per CPU-second that define one reported second: about
#: what one vCPU of a shared 2.1 GHz Xeon host runs (see reference.py).
REFERENCE_PASSES_PER_S = 1000.0
#: No child may run past this many seconds after the run started.
HARD_LIMIT_S = 170.0
#: The traced run fails when the wrapped spans explain less of the
#: traced verdict time than this.
MIN_ATTRIBUTED = 0.9


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    # One analysis thread: no BLAS pool competes with the measured one.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(
    root: Path, workload: str, kind: str, deadline: float,
    cpu: Optional[int] = None,
) -> Tuple[Optional[dict], str]:
    """Run one child to completion, pinned to *cpu* if given;
    ``(report, error)``."""
    timeout = max(1.0, deadline - time.monotonic())
    pin = [] if cpu is None else [str(cpu)]
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, kind] + pin,
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"{kind} child timed out after {timeout:.0f}s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"{kind} child exited {done.returncode}: {tail[0]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"{kind} child printed no report"


def check(report: Optional[dict], golden: dict) -> bool:
    """True when a child completed and its product matches *golden*."""
    return report is not None and report.get("fingerprint") == golden


def host_record(root: Path, seed: int, workload: str) -> dict:
    """Where and what was measured, printed beside the results."""
    rev = "unknown"
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": child_env(root)["OPENBLAS_NUM_THREADS"],
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


class Reference:
    """The reference kernel (``reference.py``) running on *cpu*."""

    def __init__(self, cpu: int):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py"), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.process.stdout.readline().strip() != "ready":
            self.process.kill()
            self.process.wait()
            raise SystemExit("reference kernel did not start")

    def stop(self) -> List[List[float]]:
        """Close its input and return its ``[time, cpu, passes]`` samples."""
        try:
            out, _ = self.process.communicate(input="", timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        if self.process.returncode != 0:
            raise SystemExit("reference kernel failed")
        return json.loads(out)


def reference_seconds(samples: List[List[float]], measured: dict) -> float:
    """A child's CPU seconds (``measured["cpu_s"]``) at the reference
    speed: scaled by the reference kernel's passes per CPU-second over
    the same monotonic-clock window (``measured["window"]``), divided by
    :data:`REFERENCE_PASSES_PER_S`."""
    times = [sample[0] for sample in samples]

    def at(moment: float) -> Tuple[float, float]:
        index = bisect.bisect_left(times, moment)
        if not 0 < index < len(samples):
            raise ValueError("child window outside the reference samples")
        (t0, c0, n0), (t1, c1, n1) = samples[index - 1], samples[index]
        share = (moment - t0) / (t1 - t0)
        return c0 + share * (c1 - c0), n0 + share * (n1 - n0)

    (cpu0, passes0), (cpu1, passes1) = map(at, measured["window"])
    speed = (passes1 - passes0) / (cpu1 - cpu0)
    return measured["cpu_s"] * speed / REFERENCE_PASSES_PER_S


def summarise(analyses: List[Tuple[Optional[dict], str]],
              probes: List[dict], golden: dict,
              samples: List[List[float]]) -> dict:
    """End-to-end metrics of one untraced run.

    *analyses* are the ``(report, error)`` of every analysis child in
    the run.  One that failed or whose fingerprint differs from *golden*
    counts in ``failed`` and stays out of the medians.  *probes* are the
    set-up-only children's reports; *samples* the reference kernel's.
    """
    good = [report for report, _ in analyses if check(report, golden)]
    for report, error in analyses:
        if not check(report, golden):
            print("# " + (error or "fingerprint differs from golden.json"),
                  file=sys.stderr)
    if not good:
        raise SystemExit("no analysis matched its golden fingerprint")
    setups = [report["setup"] for report in probes + good]
    return {
        "attempted": len(analyses),
        "failed": len(analyses) - len(good),
        "metrics": {
            "verdict_s": statistics.median(
                reference_seconds(samples, r["verdict"]) for r in good
            ),
            "setup_s": statistics.median(
                reference_seconds(samples, setup) for setup in setups
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        },
        "samples": {
            "analyses": len(good),
            "setups": len(setups),
            "verdict_wall_s": statistics.median(r["verdict_s"] for r in good),
            "verdict_cpu_s": statistics.median(
                r["verdict"]["cpu_s"] for r in good
            ),
            "setup_wall_s": statistics.median(
                r["setup_s"] for r in probes + good
            ),
        },
    }


def untraced(root: Path, workload: str, seconds: float,
             rng: random.Random, golden: dict) -> dict:
    """Analyses back to back until the next one would overrun *seconds*,
    plus :data:`SETUP_PROBES` set-up-only children.  Every measured child
    shares one pinned CPU with the reference kernel."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    run_child(root, workload, "setup", deadline)  # warm-up, not measured
    cpu = max(os.sched_getaffinity(0))
    reference = Reference(cpu)
    probes: List[dict] = []
    analyses: List[Tuple[Optional[dict], str]] = []
    walls: List[float] = []

    def probe(count: int) -> None:
        for _ in range(count):
            report, error = run_child(root, workload, "setup", deadline, cpu)
            if report is None:
                print(f"# {error}", file=sys.stderr)
            else:
                probes.append(report)

    try:
        # The analysis does not depend on input values, so the seed only
        # decides how the set-up probes split around the analyses.
        before = rng.randint(0, SETUP_PROBES)
        probe(before)
        # A probe on the shared CPU takes about twice its set-up seconds.
        reserve = (SETUP_PROBES - before) * 1.0
        while True:
            began = time.monotonic()
            analyses.append(
                run_child(root, workload, "analysis", deadline, cpu)
            )
            walls.append(time.monotonic() - began)
            finish = time.monotonic() - start + statistics.median(walls)
            if finish + reserve > seconds or finish > HARD_LIMIT_S / 2:
                break
        probe(SETUP_PROBES - before)
    finally:
        samples = reference.stop()
    return summarise(analyses, probes, golden, samples)


def traced(root: Path, workload: str, rng: random.Random,
           golden: dict) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    kinds = ["analysis", "traced"]
    rng.shuffle(kinds)
    reports = {}
    failed = 0
    for kind in kinds:
        report, error = run_child(root, workload, kind, deadline)
        if not check(report, golden):
            failed += 1
            print(f"# {workload}: {error or 'fingerprint differs'}",
                  file=sys.stderr)
            continue
        reports[kind] = report
    if "traced" not in reports or "analysis" not in reports:
        raise SystemExit(f"{workload}: traced run did not complete")
    layers = reports["traced"]["layers"]
    if layers["bench.attributed_frac"] < MIN_ATTRIBUTED:
        raise SystemExit(
            f"{workload}: wrapped spans explain only "
            f"{layers['bench.attributed_frac']:.1%} of the traced "
            f"verdict time (need {MIN_ATTRIBUTED:.0%})"
        )
    layers["bench.tracing_overhead"] = (
        reports["traced"]["verdict_s"] / reports["analysis"]["verdict_s"]
    )
    layers["bench.traced_verdict_s"] = reports["traced"]["verdict_s"]
    layers["bench.verdict_wall_s"] = reports["analysis"]["verdict_s"]
    layers["bench.mismatch_frac"] = failed / len(kinds)
    return {
        "attempted": len(kinds),
        "failed": failed,
        "metrics": layers,
        "samples": {"analyses": 1, "traced": 1},
    }


def update_golden(root: Path) -> int:
    golden = {}
    for name in WORKLOADS:
        report, error = run_child(
            root, name, "analysis", time.monotonic() + 600
        )
        if report is None:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        golden[name] = report["fingerprint"]
        print(f"{name}: verdict {report['fingerprint']['verdict']}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {root}/src; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.update_golden:
        return update_golden(root)
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}
    golden = json.loads(GOLDEN.read_text())[args.workload]
    rng = random.Random(args.seed)
    print("# " + json.dumps(host_record(root, args.seed, args.workload)))
    if args.trace:
        outcome = traced(root, args.workload, rng, golden)
    else:
        outcome = untraced(root, args.workload, args.seconds, rng, golden)
    values = outcome["metrics"]
    if set(values) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(units) ^ set(values))} do not match "
            "BENCHMARK.json"
        )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    print("# samples " + json.dumps(outcome["samples"]))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
