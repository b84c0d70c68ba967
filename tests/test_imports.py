"""What a cold analysis imports.

Each check runs in a fresh interpreter, so modules the rest of the
suite imported cannot hide an eager import.  A plain analysis (no
trace, checkpoint, fault injection, progress estimate, timeline or
disassembly) must load none of the modules that only those features
run, and its verdict must import nothing new: every module it needs is
loaded before the tracker runs.
"""

import importlib
import json
import subprocess
import sys
from types import ModuleType

import pytest

#: Modules a plain analysis never runs.
OPTIONAL_MODULES = (
    "repro.obs.timeline",
    "repro.obs.trace",
    "repro.obs.exposition",
    "repro.obs.profiler",
    "repro.resilience.checkpoint",
    "repro.resilience.progress",
    "repro.resilience.faults",
    "repro.netlist.verilog",
    "repro.netlist.stats",
    "repro.isa.disasm",
    "repro.core.union",
)

#: Modules only some ``repro`` subcommands run.
CLI_HANDLER_MODULES = (
    "repro.obs.report",
    "repro.obs.viewer",
    "repro.isasim.executor",
    "repro.isa.disasm",
    "repro.obs.timeline",
    "repro.resilience.checkpoint",
    "repro.obs.trace",
)

#: The packages whose public names are re-exported on first use.
LAZY_PACKAGES = (
    "repro.core",
    "repro.isa",
    "repro.netlist",
    "repro.obs",
    "repro.resilience",
)

_PLAIN_ANALYSIS = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("repro"))

import repro.core.tracker
import repro.workloads.registry
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble

info = repro.workloads.registry.benchmark("intAVG")
circuit = compiled_cpu()
program = assemble(info.service_source, name=info.name)
tracker = repro.core.tracker.TaintTracker(program, circuit=circuit)
before = loaded()
result = tracker.run()
print(json.dumps({
    "before": before, "after": loaded(), "verdict": result.verdict,
}))
"""


def _run(script: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_plain_analysis_loads_no_optional_module():
    report = _run(_PLAIN_ANALYSIS)
    assert report["verdict"] == "insecure"
    assert not set(OPTIONAL_MODULES) & set(report["after"])
    # nothing is first imported while the verdict is computed
    assert report["after"] == report["before"]


def test_cli_import_loads_no_handler_module():
    report = _run(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps({'after': sorted(sys.modules)}))\n"
    )
    assert not set(CLI_HANDLER_MODULES) & set(report["after"])


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        # a name shared with a submodule must still be the export
        assert not isinstance(value, ModuleType), (package, name)
        assert name in dir(module)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_star_import_of_obs():
    namespace: dict = {}
    exec("from repro.obs import *", namespace)
    import repro.obs

    assert set(repro.obs.__all__) <= set(namespace)
    assert namespace["TraceRecorder"] is (
        importlib.import_module("repro.obs.trace").TraceRecorder
    )
