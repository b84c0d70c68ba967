"""One measured analysis in a fresh interpreter.

    python3 verdictbench/child.py WORKLOAD {analysis,setup,traced} [CPU]

Run from the repository root with ``src`` on ``PYTHONPATH`` (``run.py``
does this).  Prints one JSON object: for the set-up and for
the verdict, the wall seconds, the CPU seconds and the monotonic-clock
window; the peak resident memory; the product's fingerprint; and, for a
traced run, the per-layer metrics.  ``setup`` stops after the set-up.
With ``CPU`` the child pins itself to that CPU, which it then shares
with the reference kernel (see ``reference.py``).
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and len(sys.argv) > 3:
    os.sched_setaffinity(0, {int(sys.argv[3])})  # before the clocks start

from time import monotonic, perf_counter, process_time  # noqa: E402

START = perf_counter()
START_CLOCKS = (monotonic(), process_time())

import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def since(clocks) -> dict:
    """CPU seconds and monotonic window since *clocks*."""
    return {
        "cpu_s": process_time() - clocks[1],
        "window": [clocks[0], monotonic()],
    }


def layer_metrics(tracer, window, import_s: float, verdict_s: float,
                  product, workload) -> dict:
    """Per-layer metrics of one traced child.

    Seconds and counts cover the whole child (set-up and verdict); the
    ratios to ``verdict_s`` use only the spans inside its window.
    """
    from tracing import SpanTotals, aggregate

    spans = tracer.spans()
    every = aggregate(spans)
    inside = aggregate(spans, window)
    never = SpanTotals()

    def count(name):
        return every.get(name, never).count

    def total(name):
        return every.get(name, never).total

    def self_s(name):
        return every.get(name, never).self_time

    def per_call_us(name):
        return 1e6 * self_s(name) / count(name) if count(name) else 0.0

    stats = [result.stats for result in tracer.results]

    def stat_sum(field):
        return sum(getattr(s, field) for s in stats)

    gate_s = sum(
        inside.get(name, never).self_time
        for name in ("sim.compiled.full_pass", "sim.compiled.cone_pass")
    )
    attributed = sum(entry.self_time for entry in inside.values())
    paths = stat_sum("paths")
    covers = count("core.tracker.covers")
    if workload.mode == "explain":
        recorder = product[0].provenance
        edges, truncated = recorder.recorded, int(recorder.truncated)
    else:
        edges, truncated = 0, 0
    if workload.mode == "repair":
        fixes, masked = len(product.fixes), product.masked_stores
    else:
        fixes, masked = 0, 0
    return {
        "sim.compiled.full_passes": count("sim.compiled.full_pass"),
        "sim.compiled.full_pass_s": self_s("sim.compiled.full_pass"),
        "sim.compiled.full_pass_us": per_call_us("sim.compiled.full_pass"),
        "sim.compiled.cone_passes": count("sim.compiled.cone_pass"),
        "sim.compiled.cone_pass_s": self_s("sim.compiled.cone_pass"),
        "sim.compiled.cone_pass_us": per_call_us("sim.compiled.cone_pass"),
        "sim.compiled.clock_edge_s": self_s("sim.compiled.clock_edge"),
        "sim.compiled.share": gate_s / verdict_s,
        "sim.soc.steps": count("sim.soc.step"),
        "sim.soc.step_self_s": self_s("sim.soc.step"),
        "sim.soc.step_self_us": per_call_us("sim.soc.step"),
        "sim.soc.cycles_per_s": stat_sum("cycles_simulated") / verdict_s,
        "sim.soc.space_read_s": self_s("sim.soc.space_read"),
        "sim.soc.space_reads": count("sim.soc.space_read"),
        "sim.soc.space_write_s": self_s("sim.soc.space_write"),
        "sim.soc.space_writes": count("sim.soc.space_write"),
        "sim.soc.rom_read_s": self_s("sim.soc.rom_read"),
        "core.tracker.paths": paths,
        "core.tracker.forks": stat_sum("forks"),
        "core.tracker.merges": stat_sum("merges"),
        "core.tracker.terminations_by_merge":
            stat_sum("terminations_by_merge"),
        "core.tracker.cycles_simulated": stat_sum("cycles_simulated"),
        "core.tracker.instructions": stat_sum("instructions"),
        "core.tracker.fast_forwarded_cycles":
            stat_sum("fast_forwarded_cycles"),
        "core.tracker.peak_merged_states":
            max((s.peak_merged_states for s in stats), default=0),
        "core.tracker.prune_ratio":
            stat_sum("terminations_by_merge") / paths if paths else 0.0,
        "core.tracker.snapshot_s": self_s("core.tracker.snapshot"),
        "core.tracker.snapshots": count("core.tracker.snapshot"),
        "core.tracker.restore_s": self_s("core.tracker.restore"),
        "core.tracker.restores": count("core.tracker.restore"),
        "core.tracker.covers_s": self_s("core.tracker.covers"),
        "core.tracker.covers_calls": covers,
        "core.tracker.cover_hit_ratio":
            tracer.cover_hits / covers if covers else 0.0,
        "core.tracker.merge_s": self_s("core.tracker.merge"),
        "core.tracker.init_s": total("core.tracker.init"),
        "core.tracker.self_s": self_s("core.tracker.run"),
        "core.checker.checker_s": self_s("core.checker"),
        "core.checker.calls": count("core.checker"),
        "core.checker.violations":
            sum(len(result.violations) for result in tracer.results),
        "cpu.compiled_cpu_s": total("cpu.compiled_cpu"),
        "isa.assemble_s": total("isa.assemble"),
        "import_s": import_s,
        "transform.analyses": count("core.tracker.run"),
        "transform.rootcause_s": total("transform.rootcause"),
        "transform.rewrite_s": total("transform.rewrite"),
        "transform.fixes": fixes,
        "transform.masked_stores": masked,
        "obs.provenance.edges": edges,
        "obs.provenance.truncated": truncated,
        "obs.provenance.explain_s": total("obs.provenance.explain"),
        "bench.attributed_frac": attributed / verdict_s,
    }


def main(argv) -> int:
    name, kind = argv[1], argv[2]
    workload = workloads.WORKLOADS[name]
    import_s = workloads.load()
    tracer = None
    if kind == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        state = workloads.prepare(workload)
        setup_done = perf_counter()
        report = {"setup_s": setup_done - START, "setup": since(START_CLOCKS)}
        if kind != "setup":
            clocks = (monotonic(), process_time())
            product = workloads.produce(workload, state)
            verdict_done = perf_counter()
            report["verdict"] = since(clocks)
            verdict_s = verdict_done - setup_done
            report["verdict_s"] = verdict_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    if kind != "setup":
        report["fingerprint"] = workloads.fingerprint(workload, product)
    if tracer is not None:
        report["layers"] = layer_metrics(
            tracer, (setup_done, verdict_done), import_s, verdict_s,
            product, workload,
        )
    # ru_maxrss is in KiB on Linux.
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
