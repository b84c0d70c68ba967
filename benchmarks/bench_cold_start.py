"""Cold start: what a fresh ``repro`` process pays before its first gate.

    PYTHONPATH=src python benchmarks/bench_cold_start.py \
        [--children N] [--max-modules M]

Run from the repository root.  Each child is a fresh interpreter pinned
to one CPU that runs the set-up of a plain intAVG analysis and times
each phase by process CPU time:

* ``numpy_s``: ``import numpy``;
* ``import_s``: importing the analysis stack (the tracker and the
  workload registry);
* ``compiled_cpu_s``: what :func:`repro.cpu.compiled_cpu` runs, the
  LP430's elaboration (``build_cpu_s``) and its compile, with the
  compile's ``levelize``, ``map_cuts`` and ``tabulate_cuts`` spans;
* ``assemble_s`` and ``tracker_s``: assembling intAVG and constructing
  its :class:`~repro.core.tracker.TaintTracker` (the power-on reset).

Children run with ``-B`` and a ``PYTHONPYCACHEPREFIX`` that holds no
``repro`` bytecode, so every ``repro`` module is compiled from source
whatever ``__pycache__`` holds, as on a clean checkout run under
``PYTHONDONTWRITEBYTECODE=1``.  One unmeasured child first fills the
prefix with the bytecode of the standard library and numpy, which an
installed interpreter has; the ``repro`` part is then deleted.

The script reports each phase's median over the children, the number
of ``repro`` modules the set-up loads and their source lines (the same
in every child), writes ``BENCH_cold_start.json`` and appends it to
``BENCH_history.jsonl`` (both in ``$REPRO_BENCH_DIR``, default the
repository root).  Under pytest (``repro bench``) it writes the
document only; ``repro bench`` appends it to the ledger.  With ``--max-modules`` it exits 1 when the set-up
loads more ``repro`` modules than that: a count, so the check does not
depend on the host's speed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from _emit import bench_output_dir, emit_bench_json

from repro.obs.benchtrack import append_history

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
#: Measured children per run.
CHILDREN = 11
#: Phase keys a child reports, in set-up order.
PHASES = (
    "numpy_s", "import_s", "compiled_cpu_s", "build_cpu_s", "levelize_s",
    "map_cuts_s", "tabulate_cuts_s", "assemble_s", "tracker_s", "setup_s",
)

#: One child's set-up, timed phase by phase; prints one JSON object.
CHILD = r"""
import os, sys
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from time import process_time
start = process_time()
import json
from contextlib import contextmanager
marks = {}

def lap(name, since):
    now = process_time()
    marks[name] = now - since
    return now

class Spans:
    @contextmanager
    def span(self, name):
        began = process_time()
        yield
        marks[name + "_s"] = process_time() - began

now = process_time()
import numpy
now = lap("numpy_s", now)
import repro.core.tracker
import repro.workloads.registry
now = lap("import_s", now)
from repro.core.labels import default_policy
from repro.cpu.build import build_cpu
from repro.isa.assembler import assemble
from repro.sim.compiled import CompiledCircuit
compile_start = process_time()
netlist = build_cpu()
now = lap("build_cpu_s", compile_start)
circuit = CompiledCircuit(netlist, obs=Spans())
now = lap("compiled_cpu_s", compile_start)
info = repro.workloads.registry.benchmark("intAVG")
program = assemble(info.service_source, name=info.name)
now = lap("assemble_s", now)
repro.core.tracker.TaintTracker(program, default_policy(), circuit=circuit)
now = lap("tracker_s", now)
marks["setup_s"] = now - start
modules = sorted(name for name in sys.modules if name.split(".")[0] == "repro")
lines = 0
for name in modules:
    with open(sys.modules[name].__file__, "rb") as handle:
        lines += handle.read().count(b"\n")
marks["modules"] = modules
marks["source_lines"] = lines
print(json.dumps(marks))
"""


def child_env(prefix: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(env: dict, cpu: int, flags=("-B",)) -> dict:
    done = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, str(cpu)],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(children: int = CHILDREN) -> dict:
    """Phase medians, module count and source lines over *children*
    cold set-ups."""
    cpu = max(os.sched_getaffinity(0))
    prefix = Path(tempfile.mkdtemp(prefix="cold-start-pyc-"))
    try:
        env = child_env(prefix)
        # Fill the prefix with the standard library's and numpy's
        # bytecode, then drop what it holds of repro.
        writing = {key: value for key, value in env.items()
                   if key != "PYTHONDONTWRITEBYTECODE"}
        run_child(writing, cpu, flags=())
        shutil.rmtree(prefix / SRC.relative_to(SRC.anchor),
                      ignore_errors=True)
        runs = [run_child(env, cpu) for _ in range(children)]
    finally:
        shutil.rmtree(prefix, ignore_errors=True)
    module_sets = {tuple(run["modules"]) for run in runs}
    if len(module_sets) != 1:
        raise RuntimeError("children loaded different repro modules")
    return {
        "children": children,
        "phases": {
            phase: statistics.median(run[phase] for run in runs)
            for phase in PHASES
        },
        "repro_modules": len(runs[0]["modules"]),
        "source_lines": runs[0]["source_lines"],
        "modules": runs[0]["modules"],
    }


def emit(result: dict) -> Path:
    """Write ``BENCH_cold_start.json`` for *result*; returns its path."""
    return emit_bench_json(
        "cold_start", result, wall_seconds=result["phases"]["setup_s"]
    )


def test_cold_start():
    """The measurement under ``pytest benchmarks/``; ``repro bench``
    appends the document it writes to the ledger."""
    result = measure()
    emit(result)
    assert result["repro_modules"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--children", type=int, default=CHILDREN)
    parser.add_argument("--max-modules", type=int, default=None)
    args = parser.parse_args(argv)

    result = measure(args.children)
    path = emit(result)
    append_history(
        bench_output_dir() / "BENCH_history.jsonl",
        [json.loads(path.read_text())],
    )
    phases = result["phases"]
    for phase in PHASES:
        print(f"{phase:16s} {1e3 * phases[phase]:8.1f} ms")
    print(f"repro modules    {result['repro_modules']:8d}")
    print(f"source lines     {result['source_lines']:8d}")
    summary = {key: result[key] for key in
               ("children", "phases", "repro_modules", "source_lines")}
    print(json.dumps(summary))
    if (args.max_modules is not None
            and result["repro_modules"] > args.max_modules):
        print(f"FAIL: {result['repro_modules']} repro modules loaded, "
              f"more than {args.max_modules}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
