"""Command-line front end for the toolflow.

Mirrors how the paper's tool is used: point it at an application source,
get the verdict, the diagnostics and (optionally) the repaired binary.

    python -m repro.cli analyze  app.s43 [--json] [--trace t.jsonl]
    python -m repro.cli analyze  app.s43 --provenance   # record taint flows
    python -m repro.cli analyze  app.s43 --deadline 3600 \\
        --checkpoint run.ckpt --checkpoint-every 16   # resumable
    python -m repro.cli analyze  app.s43 --resume run.ckpt
    python -m repro.cli analyze-all --jobs 4 -o results.json  # Table 1 sweep
    python -m repro.cli repair   app.s43 -o app_secure.s43
    python -m repro.cli run      app.s43 --max-cycles 20000
    python -m repro.cli disasm   app.s43
    python -m repro.cli stats    [--json]
    python -m repro.cli profile  intavg   # per-phase time/counter table
    python -m repro.cli explain  figure4 --violation 0 --dot flow.dot
    python -m repro.cli report   figure4 -o report.html
    python -m repro.cli record   figure4 --out t.timeline  # flight recorder
    python -m repro.cli view     t.timeline --out t.html   # time-travel UI
    python -m repro.cli trace-lint t.jsonl   # validate a JSONL trace
    python -m repro.cli serve    --root svc --workers 2    # analysis daemon
    python -m repro.cli submit   app.s43 --wait            # job -> verdict
    python -m repro.cli jobs     [JOB_ID]                  # queue status
    python -m repro.cli watch    JOB_ID                    # live progress

Exit codes (see ``repro.resilience.errors`` and DESIGN.md): 0 secure,
1 insecure, 2 fundamental violation, 3 inconclusive (budget exhausted),
4 input error, 5 checkpoint error, 6 analysis error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import signal
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core import TaintTracker, default_policy, secret_policy
from repro.cpu import cpu_stats
from repro.eval.formatting import format_json, format_table, to_jsonable
from repro.isa.assembler import AssemblyError, assemble
from repro.obs import Observer
from repro.resilience import (
    AnalysisBudget,
    AnalysisInterrupted,
    InputError,
    ReproError,
    VERDICT_EXIT_CODES,
)
from repro.transform import FundamentalViolation, secure_compile

if TYPE_CHECKING:
    # What only some subcommands run is imported by their handlers, so
    # a plain ``repro analyze`` loads none of it.
    from repro.obs.provenance import ProvenanceRecorder
    from repro.obs.trace import TraceRecorder

#: Canonical pipeline phases, in reporting order (the profile table always
#: prints these four, then any additional spans observed).
PROFILE_PHASES = ("levelize", "explore", "check", "repair")

#: Violations explained inline by ``analyze --provenance`` (backward
#: slices cost O(edges) each; ``repro explain`` picks any index).
_EXPLAIN_CAP = 8


def _policy(name: str):
    if name == "untrusted":
        return default_policy()
    if name == "secret":
        return secret_policy()
    raise SystemExit(f"unknown policy {name!r} (untrusted|secret)")


def _load(path: str) -> tuple:
    try:
        source = Path(path).read_text()
    except OSError as error:
        raise InputError(
            f"cannot read source file {path!r}: {error}", path=path
        ) from error
    name = Path(path).stem
    try:
        return source, assemble(source, name=name), name
    except AssemblyError as error:
        raise InputError(
            f"cannot assemble {path!r}: {error}", path=path
        ) from error


def _budget_from(args) -> AnalysisBudget:
    """An :class:`AnalysisBudget` assembled from the resource flags: a
    flag the user gave sets its axis, every other axis keeps the
    budget's default."""
    flags = {
        "max_paths": getattr(args, "max_paths", None),
        "max_cycles": args.max_cycles,
        "max_merged_states": getattr(args, "max_merged_states", None),
        "deadline_seconds": getattr(args, "deadline", None),
        "max_rss_mb": getattr(args, "max_rss_mb", None),
    }
    return AnalysisBudget(
        **{axis: value for axis, value in flags.items() if value is not None}
    )


@contextmanager
def _graceful_interrupts(tracker):
    """Route SIGINT/SIGTERM to a cooperative tracker interrupt.

    The handler only sets a flag (signal-safe); the tracker notices it at
    the next fetch boundary, writes a checkpoint when one is configured,
    and raises :class:`AnalysisInterrupted` instead of dying mid-cycle.
    """

    def handler(signum, frame):
        tracker.request_interrupt(signal.Signals(signum).name)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except ValueError:
            pass  # not the main thread (e.g. test runners)
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _trace_for(args) -> TraceRecorder | None:
    if not getattr(args, "trace", None):
        return None
    from repro.obs.trace import TraceRecorder

    try:
        return TraceRecorder(args.trace)
    except OSError as error:
        raise SystemExit(f"cannot open trace file {args.trace!r}: {error}")


def _recorder_for(args) -> ProvenanceRecorder | None:
    """A ProvenanceRecorder when ``--provenance`` was given, else None."""
    if not getattr(args, "provenance", False):
        return None
    from repro.obs.provenance import ProvenanceRecorder

    return ProvenanceRecorder(
        capacity=getattr(args, "provenance_capacity", None) or (1 << 20)
    )


def _observer_for(args) -> Observer | None:
    """An Observer when any obs output was requested, else None."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", None)):
        return None
    return Observer(trace=_trace_for(args))


def _finish_observer(observer: Observer | None, args) -> None:
    """Write the metrics file and close the trace sink."""
    if observer is None:
        return
    if getattr(args, "metrics", None):
        try:
            Path(args.metrics).write_text(
                format_json(observer.snapshot()) + "\n"
            )
        except OSError as error:
            raise SystemExit(
                f"cannot write metrics file {args.metrics!r}: {error}"
            )
    observer.close()


def _analysis_document(result) -> dict:
    """The ``analyze --json`` payload."""
    return {
        "program": result.program.name,
        "policy": {
            "name": result.policy.name,
            "kind": result.policy.kind,
        },
        "secure": result.secure,
        "verdict": result.verdict,
        "degraded": result.degraded,
        "exhausted_budgets": list(result.exhausted),
        "violated_conditions": sorted(result.violated_conditions()),
        "violations": [
            {
                "kind": violation.kind,
                "condition": violation.condition,
                "severity": violation.severity,
                "cycle": violation.cycle,
                "address": f"0x{violation.address:04x}",
                "task": violation.task,
                "advisory": violation.advisory,
                "detail": violation.detail,
            }
            for violation in result.violations
        ],
        "stats": to_jsonable(result.stats),
        "tree": result.tree.summary(),
    }


def cmd_analyze(args) -> int:
    _, program, _ = _load(args.source)
    observer = _observer_for(args)
    recorder = _recorder_for(args)

    checkpointer = None
    if args.checkpoint:
        from repro.resilience.checkpoint import Checkpointer

        checkpointer = Checkpointer(
            args.checkpoint, every_paths=args.checkpoint_every
        )
    from repro.cpu import compiled_cpu

    tracker = TaintTracker(
        program,
        policy=_policy(args.policy),
        circuit=compiled_cpu(),
        budget=_budget_from(args),
        checkpointer=checkpointer,
        obs=observer,
        provenance=recorder,
    )
    if args.resume:
        from repro.resilience.checkpoint import read_checkpoint

        payload = read_checkpoint(
            args.resume, expected_digest=tracker.config_digest()
        )
        tracker.restore_checkpoint(payload)
        print(
            f"resumed from {args.resume} "
            f"({tracker.stats.paths} path(s) already explored)",
            file=sys.stderr,
        )

    interrupts = (
        _graceful_interrupts(tracker)
        if (args.checkpoint or args.resume)
        else nullcontext()
    )
    try:
        with interrupts:
            result = tracker.run()
    finally:
        _finish_observer(observer, args)
    if args.json:
        document = _analysis_document(result)
        if recorder is not None:
            document["provenance"] = recorder.snapshot()
            document["explanations"] = [
                result.explain(violation).to_document()
                for violation in result.violations[:_EXPLAIN_CAP]
            ]
        print(format_json(document))
    else:
        print(result.report())
        if recorder is not None:
            print()
            reasons = ", ".join(recorder.truncated_by) or "cause unknown"
            truncated = (
                f" [truncated: {reasons}]" if recorder.truncated else ""
            )
            print(
                f"provenance: {recorder.recorded} taint-flow edge(s) "
                f"recorded{truncated}"
            )
            for index, violation in enumerate(
                result.violations[:_EXPLAIN_CAP]
            ):
                print(f"  violation {index}: "
                      f"{result.explain(violation).summary()}")
        if args.tree:
            print()
            print(result.tree.render())
    return VERDICT_EXIT_CODES[result.verdict]


def cmd_analyze_all(args) -> int:
    from repro.parallel.analyze_all import run_analyze_all
    from repro.workloads.registry import benchmark_names

    if args.workloads:
        workloads = args.workloads
    else:
        workloads = benchmark_names()
    document = run_analyze_all(
        workloads,
        jobs=args.jobs,
        policy=args.policy,
        budget=_budget_from(args).describe(),
    )
    rendered = format_json(document)
    if args.output:
        try:
            Path(args.output).write_text(rendered + "\n")
        except OSError as error:
            raise SystemExit(
                f"cannot write output file {args.output!r}: {error}"
            )
    if args.json or not args.output:
        print(rendered)
    if not args.json:
        summary = document["summary"]
        for entry in document["workloads"]:
            line = (
                f"{entry['workload']}: {entry['verdict']} "
                f"({entry['wall_seconds']:.2f}s)"
            )
            print(line, file=sys.stderr)
        print(
            f"analyzed {summary['total']} workload(s) with "
            f"--jobs {document['jobs']}: "
            f"{summary['secure']} secure, "
            f"{summary['insecure']} insecure, "
            f"{summary['inconclusive']} inconclusive, "
            f"{summary['errors']} error(s) in "
            f"{summary['wall_seconds']:.2f}s "
            f"(serial time {summary['serial_seconds']:.2f}s)",
            file=sys.stderr,
        )
    return document["summary"]["exit_code"]


def cmd_repair(args) -> int:
    source, _, name = _load(args.source)
    try:
        repaired = secure_compile(
            source,
            name=name,
            policy=_policy(args.policy),
            budget=_budget_from(args),
        )
    except FundamentalViolation as error:
        print(error.diagnostics, file=sys.stderr)
        return 2
    print(repaired.diagnostics())
    print(repaired.analysis.report())
    if args.output:
        Path(args.output).write_text(repaired.source)
        print(f"repaired source written to {args.output}")
    if repaired.partial:
        print(
            "repair incomplete: an analysis budget was exhausted before "
            "the result could be verified",
            file=sys.stderr,
        )
        return VERDICT_EXIT_CODES["inconclusive"]
    return VERDICT_EXIT_CODES[repaired.verdict]


def cmd_run(args) -> int:
    from repro.isasim.executor import run_concrete

    _, program, _ = _load(args.source)
    run = run_concrete(
        program, max_cycles=args.max_cycles, follow_watchdog=False
    )
    print(
        f"halted={run.halted} cycles={run.cycles} "
        f"instructions={run.steps} stores={run.dynamic_stores} "
        f"resets={run.resets}"
    )
    for port, word in run.port_writes:
        value = f"0x{word.bits:04x}" if word.is_concrete else repr(word)
        print(f"  {port} <- {value}")
    return 0


def cmd_disasm(args) -> int:
    from repro.isa.disasm import disassemble_program

    _, program, _ = _load(args.source)
    print(disassemble_program(program))
    return 0


def cmd_stats(args) -> int:
    stats = cpu_stats()
    if args.json:
        print(format_json(stats))
    else:
        print(stats.format())
    return 0


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------
def _resolve_workload(spec: str) -> tuple:
    """*spec* is a Table 1 benchmark name (case-insensitive) or a source
    file path; returns ``(source, name)``."""
    path = Path(spec)
    if path.is_file():
        return path.read_text(), path.stem
    if spec.lower() == "figure4":
        # The paper's motivating example -- the canonical
        # known-violation workload for explain/report demos.
        from repro.workloads.motivating import figure4_source

        return figure4_source(), "figure4"
    from repro.workloads.registry import BENCHMARKS

    by_lower = {name.lower(): name for name in BENCHMARKS}
    name = by_lower.get(spec.lower())
    if name is None:
        known = ", ".join(sorted(BENCHMARKS) + ["figure4"])
        raise SystemExit(
            f"unknown workload {spec!r}: not a file, and not one of "
            f"the registered benchmarks ({known})"
        )
    info = BENCHMARKS[name]
    return info.service_source, info.name


#: Counters surfaced in the profile breakdown (others stay in --json).
_PROFILE_COUNTERS = (
    "sim.gate_evals",
    "sim.eval_passes",
    "tracker.cycles",
    "tracker.fast_forwarded_cycles",
    "tracker.instructions",
    "tracker.paths",
    "tracker.forks",
    "tracker.merges",
    "tree.nodes",
    "tree.pruned",
    "tracker.violations",
)


def cmd_profile(args) -> int:
    source, name = _resolve_workload(args.workload)
    program = assemble(source, name=name)
    policy = _policy(args.policy)
    observer = Observer(trace=_trace_for(args))
    budget = _budget_from(args)

    repaired = None
    repair_error = None
    # A fresh compile so the levelize phase is measured rather than
    # served from the process-wide cache.
    from repro.cpu import build_cpu
    from repro.sim.compiled import CompiledCircuit

    with observer.span("elaborate"):
        netlist = build_cpu()
    # spans "levelize", "map_cuts" and "tabulate_cuts"
    circuit = CompiledCircuit(netlist, obs=observer)
    result = TaintTracker(
        program,
        policy=policy,
        circuit=circuit,
        budget=budget,
        obs=observer,
    ).run()
    if result.verdict == "insecure" and not args.no_repair:
        try:
            repaired = secure_compile(
                source,
                name=name,
                policy=policy,
                budget=budget,
                obs=observer,
            )
        except FundamentalViolation as error:
            repair_error = str(error.diagnostics)

    snapshot = observer.snapshot()
    _finish_observer(observer, args)
    counters = snapshot["metrics"]["counters"]
    if not counters:
        print(
            "profile error: empty metrics snapshot -- the pipeline "
            "ran without reporting a single counter",
            file=sys.stderr,
        )
        return 1

    if args.json:
        print(
            format_json(
                {
                    "workload": name,
                    "policy": policy.name,
                    "secure": result.secure,
                    "verdict": result.verdict,
                    "repaired": repaired is not None and repaired.secure,
                    "repair_error": repair_error,
                    "analysis": _analysis_document(result),
                    **snapshot,
                }
            )
        )
        return 0

    profile = snapshot["profile"]
    rows = []
    for phase in PROFILE_PHASES:
        entry = profile.get(
            phase, {"calls": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0}
        )
        rows.append(
            (
                phase,
                entry["calls"],
                f"{entry['wall_seconds']:.3f}",
                f"{entry['cpu_seconds']:.3f}",
            )
        )
    for path, entry in profile.items():
        if path in PROFILE_PHASES:
            continue
        rows.append(
            (
                path,
                entry["calls"],
                f"{entry['wall_seconds']:.3f}",
                f"{entry['cpu_seconds']:.3f}",
            )
        )
    print(
        format_table(
            ["phase", "calls", "wall (s)", "cpu (s)"],
            rows,
            title=f"profile of {name!r} (policy {policy.name!r})",
        )
    )
    print()
    counter_rows = [
        (key, counters[key]) for key in _PROFILE_COUNTERS if key in counters
    ]
    gate_types = sorted(
        key for key in counters if key.startswith("sim.gate_evals.")
    )
    counter_rows.extend((key, counters[key]) for key in gate_types)
    for gauge, value in snapshot["metrics"]["gauges"].items():
        counter_rows.append((gauge, value))
    print(format_table(["counter", "value"], counter_rows))
    density = snapshot["metrics"]["histograms"].get("tracker.taint_density")
    if density and density["count"]:
        print()
        print(
            f"taint density: mean={density['mean']:.4f} "
            f"min={density['min']:.4f} max={density['max']:.4f} "
            f"over {density['count']} sampled instructions"
        )
    print()
    line = f"analysis verdict: {result.verdict.upper()}"
    if result.exhausted:
        line += f" (budget exhausted: {', '.join(result.exhausted)})"
    if repaired is not None:
        line += (
            "; repaired to SECURE"
            if repaired.secure
            else "; repair did not converge"
        )
    elif repair_error is not None:
        line += "; repair failed (fundamental violation)"
    print(line)
    return 0


def cmd_bench(args) -> int:
    """Run benchmark modules, extend the BENCH_history.jsonl ledger,
    check the new points against the series' own history, render the
    trend dashboard.  ``--check`` makes a confirmed regression exit 1
    (the CI perf-smoke gate)."""
    from repro.obs import benchtrack

    repo_root = Path(args.repo_root) if args.repo_root else Path.cwd()
    modules = benchtrack.select_benches(
        repo_root, quick=args.quick, only=args.only or ()
    )
    if not modules and not args.no_run:
        raise InputError(
            "no bench modules selected "
            f"(looked in {benchtrack.bench_dir(repo_root)})",
            code="NO_BENCHES",
        )
    ledger = Path(args.history or benchtrack.history_path(repo_root))

    exit_code, documents = (0, [])
    if not args.no_run:
        print(
            f"running {len(modules)} bench module(s): "
            + ", ".join(m.name for m in modules),
            file=sys.stderr,
        )
        exit_code, documents = benchtrack.run_benches(modules)
        appended = benchtrack.append_history(ledger, documents)
        print(f"appended {appended} entries to {ledger}", file=sys.stderr)

    history = benchtrack.load_history(ledger)
    findings = benchtrack.detect_regressions(
        history,
        threshold=args.threshold,
        mad_factor=args.mad_factor,
    )
    dashboard = Path(args.dashboard or repo_root / "bench_trends.html")
    dashboard.write_text(benchtrack.render_dashboard(history, findings))

    if args.json:
        print(
            format_json(
                {
                    "ran": [m.name for m in modules],
                    "pytest_exit": exit_code,
                    "appended": len(documents),
                    "ledger": str(ledger),
                    "history_entries": len(history),
                    "regressions": findings,
                    "dashboard": str(dashboard),
                }
            )
        )
    else:
        if findings:
            rows = [
                (
                    f["bench"],
                    f["metric"],
                    f"{f['latest']:.4g}",
                    f"{f['baseline_median']:.4g}",
                    f"{f['ratio']:.2f}x",
                )
                for f in findings
            ]
            print(
                format_table(
                    ["bench", "metric", "latest", "baseline", "ratio"],
                    rows,
                    title="CONFIRMED REGRESSIONS",
                )
            )
        else:
            print(
                f"no confirmed regressions across "
                f"{len(history)} ledger entries"
            )
        print(f"dashboard: {dashboard}")
    if exit_code:
        print("warning: pytest exited non-zero; artifacts may be partial")
        return 1
    if args.check and findings:
        return 1
    return 0


# ---------------------------------------------------------------------------
# explain / report / trace-lint
# ---------------------------------------------------------------------------
def _assemble_workload(spec: str):
    """Assemble a benchmark name or source path into ``(program, name)``."""
    source, name = _resolve_workload(spec)
    try:
        return assemble(source, name=name), name
    except AssemblyError as error:
        raise InputError(
            f"cannot assemble workload {spec!r}: {error}", path=spec
        ) from error


def _analyze_with_provenance(args):
    """Run the analysis with a provenance recorder armed; returns
    ``(result, recorder)``."""
    from repro.obs.provenance import ProvenanceRecorder

    program, _ = _assemble_workload(args.workload)
    recorder = ProvenanceRecorder(
        capacity=args.provenance_capacity or (1 << 20)
    )
    result = TaintTracker(
        program,
        policy=_policy(args.policy),
        budget=_budget_from(args),
        provenance=recorder,
    ).run()
    return result, recorder


def cmd_explain(args) -> int:
    from repro.obs.provenance import explain_violation

    result, recorder = _analyze_with_provenance(args)
    if not result.violations:
        print(
            f"{result.program.name}: verdict {result.verdict}: "
            "no violations to explain"
        )
        return VERDICT_EXIT_CODES[result.verdict]
    try:
        flow = explain_violation(result, args.violation, recorder=recorder)
    except IndexError as error:
        raise InputError(str(error)) from None
    if args.json:
        document = flow.to_document()
        document["violation"] = {
            "index": args.violation,
            "kind": flow.violation.kind,
            "cycle": flow.violation.cycle,
            "address": f"0x{flow.violation.address:04x}",
            "task": flow.violation.task,
        }
        print(format_json(document))
    else:
        print(flow.violation.render())
        print(flow.render())
    if args.dot:
        violation = flow.violation
        title = f"{violation.kind} at 0x{violation.address:04x}"
        try:
            Path(args.dot).write_text(flow.to_dot(title=title) + "\n")
        except OSError as error:
            raise SystemExit(
                f"cannot write DOT file {args.dot!r}: {error}"
            )
        if not args.json:
            print(f"flow graph written to {args.dot}")
    return VERDICT_EXIT_CODES[result.verdict]


def cmd_report(args) -> int:
    from repro.obs.report import build_report

    result, recorder = _analyze_with_provenance(args)
    html = build_report(
        result, recorder, timeline_link=getattr(args, "timeline", None)
    )
    output = args.output or f"report_{result.program.name}.html"
    try:
        Path(output).write_text(html)
    except OSError as error:
        raise SystemExit(f"cannot write report {output!r}: {error}")
    print(
        f"report written to {output} ({len(html)} bytes, "
        f"verdict {result.verdict}, {len(result.violations)} violation(s))"
    )
    return 0


def cmd_record(args) -> int:
    """Analyse a workload with the timeline flight recorder armed and
    write the recording to a ``.timeline`` file."""
    from repro.obs.timeline import TimelineRecorder, save_timeline

    program, name = _assemble_workload(args.workload)
    recorder = TimelineRecorder(max_frames=args.max_frames)
    observer = _observer_for(args)
    try:
        result = TaintTracker(
            program,
            policy=_policy(args.policy),
            budget=_budget_from(args),
            obs=observer,
            timeline=recorder,
        ).run()
        out = save_timeline(
            args.out,
            recorder,
            result.violations,
            meta={
                "workload": name,
                "verdict": result.verdict,
                "violations": len(result.violations),
            },
        )
        if observer is not None and observer.enabled:
            observer.emit(
                "record",
                out=str(out),
                frames=recorder.num_frames,
                cycles=result.stats.cycles_simulated,
                truncated=recorder.truncated,
                workload=name,
                bytes=Path(out).stat().st_size,
            )
    finally:
        _finish_observer(observer, args)
    size = Path(out).stat().st_size
    truncated = " [truncated]" if recorder.truncated else ""
    print(
        f"timeline written to {out} ({size} bytes, "
        f"{recorder.num_frames} frame(s), verdict {result.verdict}, "
        f"{len(result.violations)} violation(s)){truncated}"
    )
    return 0


def cmd_view(args) -> int:
    """Render a recorded ``.timeline`` file as a self-contained HTML
    time-travel viewer."""
    from repro.obs.timeline import load_timeline
    from repro.obs.viewer import build_viewer

    timeline = load_timeline(args.timeline_file)
    workload = timeline.meta.get("workload")
    title = args.title or (
        f"GLIFT timeline: {workload}" if workload else None
    )
    html = build_viewer(timeline, title=title)
    output = args.out or (Path(args.timeline_file).stem + ".html")
    try:
        Path(output).write_text(html)
    except OSError as error:
        raise SystemExit(f"cannot write viewer {output!r}: {error}")
    print(
        f"viewer written to {output} ({len(html)} bytes, "
        f"{timeline.num_frames} frame(s), "
        f"{len(timeline.markers)} marker(s))"
    )
    return 0


def cmd_trace_lint(args) -> int:
    from repro.obs.trace import lint_trace

    try:
        problems = lint_trace(args.trace_file)
    except OSError as error:
        raise InputError(
            f"cannot read trace file {args.trace_file!r}: {error}",
            path=args.trace_file,
        ) from error
    except ValueError as error:
        raise InputError(
            f"cannot parse trace file {args.trace_file!r}: {error}",
            path=args.trace_file,
        ) from error
    if problems:
        for problem in problems:
            print(problem)
        print(f"{args.trace_file}: {len(problems)} problem(s)")
        return 1
    print(f"{args.trace_file}: ok")
    return 0


# ---------------------------------------------------------------------------
# serve / submit / jobs (the analysis service)
# ---------------------------------------------------------------------------
def cmd_serve(args) -> int:
    from repro.service import AnalysisService, ServiceConfig
    from repro.service.retry import RetryPolicy

    observer = _observer_for(args)
    config = ServiceConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        shed_after=args.shed_after,
        max_attempts=args.max_attempts,
        checkpoint_every=args.checkpoint_every,
        heartbeat_timeout=args.heartbeat_timeout,
        drain_grace=args.drain_grace,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            base_seconds=args.retry_base,
        ),
    )
    service = AnalysisService(config, observer=observer)
    service.start()
    url = service.start_server()
    recovered = (
        f", recovered {len(service.recovered)} in-flight job(s)"
        if service.recovered
        else ""
    )
    print(
        f"analysis service listening on {url} "
        f"({config.workers} worker(s), queue capacity "
        f"{config.queue_capacity}, journal {service.root}){recovered}",
        file=sys.stderr,
    )
    try:
        return service.run()
    finally:
        _finish_observer(observer, args)


def _submission_body(args) -> dict:
    source, name = _resolve_workload(args.source)
    budget = _budget_from(args)
    return {
        "source": source,
        "name": name,
        "policy": args.policy,
        "max_cycles": budget.max_cycles,
        "budget": {
            axis: value
            for axis, value in budget.describe().items()
            if value is not None
        },
    }


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        accepted = client.submit(**_submission_body(args))
        job_id = accepted["id"]
        if not args.wait:
            if args.json:
                print(format_json(accepted))
            else:
                print(
                    f"job {job_id} accepted "
                    f"(poll with: repro jobs {job_id} --url {client.url})"
                )
            return 0
        record = client.wait(job_id, timeout=args.timeout)
        report = client.report(job_id)
    except ServiceClientError as error:
        raise InputError(
            str(error), code=error.code or "SERVICE", retriable=error.retriable
        ) from None
    except (OSError, TimeoutError) as error:
        raise InputError(
            f"cannot reach analysis service at {client.url}: {error}"
        ) from None
    if args.json:
        print(format_json({"job": record, "report": report}))
    else:
        print(
            f"job {job_id}: {record['state']} "
            f"(verdict {record.get('verdict')}, "
            f"{record.get('attempts')} attempt(s))"
        )
    return int(record.get("exit_code") or 0)


def _render_progress_line(document: dict) -> str:
    """One human TTY line for a ``progress`` SSE frame."""
    fraction = document.get("fraction")
    percent = f"{fraction * 100.0:5.1f}%" if fraction is not None else "    ?"
    line = (
        f"[{percent}] paths {document.get('paths', '?')} "
        f"(+{document.get('pending', '?')} pending) "
        f"cycles {document.get('cycles', '?')} "
        f"violations {document.get('violations', '?')}"
    )
    eta = document.get("eta_seconds")
    if eta is not None:
        line += f" eta {eta:.0f}s"
    rate = document.get("rate_paths_per_s")
    if rate is not None:
        line += f" ({rate:.0f} paths/s)"
    return line


def cmd_watch(args) -> int:
    """``repro watch <job>``: consume the SSE event stream and render a
    live progress line (or, with ``--json``, one JSON object per frame,
    which is what the CI streaming smoke test consumes)."""
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, timeout=args.timeout)
    live_tty = sys.stdout.isatty() and not args.json
    exit_code = 0
    dirty = False  # a \r progress line is on screen
    try:
        for event, document in client.watch(args.job_id):
            if event == "end":
                exit_code = int(document.get("exit_code") or 0)
            if args.json:
                # NDJSON, one frame per line: the machine mode is meant
                # to be consumed as a stream (CI tails it live).
                import json as _json

                print(
                    _json.dumps(
                        {"event": event, "data": document}, sort_keys=True
                    )
                )
                sys.stdout.flush()
                continue
            if event == "state":
                if dirty:
                    print()
                    dirty = False
                note = document.get("note") or ""
                print(
                    f"job {document.get('job_id')}: {document.get('state')}"
                    + (f" ({note})" if note else "")
                )
            elif event == "progress":
                line = _render_progress_line(document)
                if live_tty:
                    print(f"\r\x1b[K{line}", end="", flush=True)
                    dirty = True
                else:
                    print(line)
            elif event == "end":
                if dirty:
                    print()
                    dirty = False
                print(
                    f"job {document.get('id')}: {document.get('state')} "
                    f"(verdict {document.get('verdict')}, "
                    f"{document.get('attempts')} attempt(s))"
                )
    except ServiceClientError as error:
        if dirty:
            print()
        raise InputError(
            str(error), code=error.code or "SERVICE", retriable=error.retriable
        ) from None
    except (OSError, TimeoutError) as error:
        if dirty:
            print()
        raise InputError(
            f"cannot reach analysis service at {client.url}: {error}"
        ) from None
    except KeyboardInterrupt:
        if dirty:
            print()
        print("watch interrupted (the job keeps running)", file=sys.stderr)
        return 130
    return exit_code


def cmd_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.stats:
            return _print_service_stats(client, args)
        if args.job_id:
            document = client.job(args.job_id)
            print(
                format_json(document)
                if args.json
                else f"{document['job_id']}: {document['state']} "
                f"(verdict {document.get('verdict')}, "
                f"{document.get('attempts')} attempt(s))"
            )
            return 0
        jobs = client.jobs()
    except ServiceClientError as error:
        raise InputError(
            str(error), code=error.code or "SERVICE"
        ) from None
    except (OSError, TimeoutError) as error:
        raise InputError(
            f"cannot reach analysis service at {client.url}: {error}"
        ) from None
    if args.json:
        print(format_json({"jobs": jobs}))
    else:
        rows = [
            (
                entry["id"],
                entry["name"],
                entry["state"],
                entry["attempts"],
                entry.get("verdict") or "-",
            )
            for entry in jobs
        ]
        print(
            format_table(
                ["job", "name", "state", "attempts", "verdict"],
                rows,
                title=f"jobs at {client.url}",
            )
        )
    return 0


def _print_service_stats(client, args) -> int:
    """``repro jobs --stats``: the daemon's live telemetry snapshot --
    the same numbers ``GET /metrics`` exposes, human-readably."""
    document = client.stats()
    if args.json:
        print(format_json(document))
        return 0
    health = document["health"]
    metrics = document["metrics"]
    print(
        f"service at {client.url}: "
        f"up {health['uptime_seconds']:.0f}s, "
        f"backlog {health['backlog']}/{health['queue_capacity']}, "
        f"workers {health['workers_live']}/{health['workers']} live"
        + (", DRAINING" if health["draining"] else "")
        + (", SHEDDING" if health["shedding"] else "")
    )
    if health["jobs"]:
        rows = sorted(health["jobs"].items())
        print(format_table(["state", "jobs"], rows, title="jobs by state"))
    progress = document.get("progress") or {}
    running = progress.get("running") or {}
    if running:
        print(
            f"fleet: {progress.get('paths_in_flight', 0)} path(s) in "
            f"flight across {len(running)} running job(s), oldest "
            f"running {progress.get('oldest_running_job_age_seconds', 0):.0f}s"
        )
        rows = [
            (
                job_id,
                entry.get("paths", "-"),
                entry.get("pending", "-"),
                (
                    f"{entry['fraction'] * 100.0:.1f}%"
                    if entry.get("fraction") is not None
                    else "-"
                ),
                (
                    f"{entry['eta_seconds']:.0f}s"
                    if entry.get("eta_seconds") is not None
                    else "-"
                ),
            )
            for job_id, entry in sorted(running.items())
        ]
        print(
            format_table(
                ["job", "paths", "pending", "done", "eta"],
                rows,
                title="running jobs",
            )
        )
    counters = metrics.get("counters", {})
    if counters:
        rows = [(name, value) for name, value in sorted(counters.items())]
        print(format_table(["counter", "value"], rows, title="counters"))
    gauges = metrics.get("gauges", {})
    if gauges:
        rows = [(name, value) for name, value in sorted(gauges.items())]
        print(format_table(["gauge", "value"], rows, title="gauges"))
    histograms = metrics.get("histograms", {})
    if histograms:
        rows = []
        for name, payload in sorted(histograms.items()):
            if payload["count"]:
                rows.append(
                    (
                        name,
                        payload["count"],
                        f"{payload['mean']:.4f}",
                        f"{payload['min']:.4f}",
                        f"{payload['max']:.4f}",
                    )
                )
            else:
                rows.append((name, 0, "-", "-", "-"))
        print(
            format_table(
                ["histogram", "n", "mean_s", "min_s", "max_s"],
                rows,
                title="latency histograms",
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="software-based gate-level information flow security",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("source", help="LP430 assembly source file")
        p.add_argument(
            "--policy",
            default="untrusted",
            help="taint kind: untrusted (default) or secret",
        )

    def obs_flags(p):
        p.add_argument(
            "--trace",
            metavar="PATH",
            help="write a JSONL event trace (fork/merge/prune/...) here",
        )
        p.add_argument(
            "--metrics",
            metavar="PATH",
            help="write the metrics+profile snapshot as JSON here",
        )

    def cycle_budget_flag(p):
        p.add_argument(
            "--max-cycles",
            type=int,
            metavar="N",
            help=f"cycle budget (default {AnalysisBudget.max_cycles:,}); "
            "exhausting it gives an inconclusive verdict (exit 3)",
        )

    def budget_flags(p):
        cycle_budget_flag(p)
        p.add_argument(
            "--deadline",
            type=float,
            metavar="SECONDS",
            help="wall-clock budget; on expiry unexplored paths are "
            "widened to the fully-tainted state and the verdict "
            "becomes inconclusive instead of secure",
        )
        p.add_argument(
            "--max-paths",
            type=int,
            metavar="N",
            help=f"path budget (default {AnalysisBudget.max_paths}); "
            "exhaustion degrades soundly to an inconclusive verdict",
        )
        p.add_argument(
            "--max-merged-states",
            type=int,
            metavar="N",
            help="cap on retained merged branch states",
        )
        p.add_argument(
            "--max-rss-mb",
            type=int,
            metavar="MB",
            help="resident-set ceiling for the analysis process",
        )

    def provenance_flags(p, opt_in: bool = True):
        if opt_in:
            p.add_argument(
                "--provenance",
                action="store_true",
                help="record per-bit taint provenance during the "
                "analysis (enables explanations in the output; "
                "~25%% slower)",
            )
        p.add_argument(
            "--provenance-capacity",
            type=int,
            default=1 << 20,
            metavar="N",
            help="edge-ring capacity for the provenance recorder "
            "(default 1Mi edges; wrapping sets provenance_truncated)",
        )

    p = sub.add_parser("analyze", help="run the gate-level analysis")
    common(p)
    p.add_argument(
        "--tree", action="store_true", help="print the execution tree"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable verdict/violations/stats output",
    )
    budget_flags(p)
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write analysis checkpoints here (on SIGINT/SIGTERM, and "
        "every --checkpoint-every explored paths)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="also checkpoint every N explored paths (0 = only on "
        "interrupt)",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        help="resume the analysis from a checkpoint written by "
        "--checkpoint (validated against the program digest)",
    )
    obs_flags(p)
    provenance_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "analyze-all",
        help="analyze a set of Table 1 workloads in parallel (one "
        "serial analysis per worker) and aggregate verdicts, exit "
        "codes and timing into one JSON document",
    )
    p.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="workload names (default: the whole Table 1 registry)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (one workload per worker)",
    )
    p.add_argument(
        "--policy",
        default="untrusted",
        help="taint kind: untrusted (default) or secret",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the aggregate JSON document to stdout (default "
        "unless -o is given, which switches stdout to a summary)",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="also write the aggregate JSON document here",
    )
    budget_flags(p)
    p.set_defaults(func=cmd_analyze_all)

    p = sub.add_parser("repair", help="analyse, repair, verify")
    common(p)
    p.add_argument("-o", "--output", help="write the repaired source here")
    cycle_budget_flag(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("run", help="cycle-accurate concrete run")
    common(p)
    p.add_argument(
        "--max-cycles",
        type=int,
        default=1_000_000,
        help="simulation cycle cap",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("disasm", help="annotated disassembly")
    common(p)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("stats", help="LP430 netlist statistics")
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "profile",
        help="run the full pipeline on a workload and print the "
        "per-phase time/counter breakdown",
    )
    p.add_argument(
        "workload",
        help="a Table 1 benchmark name (e.g. intavg, mult; "
        "case-insensitive) or an LP430 source file",
    )
    p.add_argument(
        "--policy",
        default="untrusted",
        help="taint kind: untrusted (default) or secret",
    )
    p.add_argument(
        "--no-repair",
        action="store_true",
        help="skip the repair phase even when the analysis is insecure",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full metrics/profile document as JSON",
    )
    budget_flags(p)
    obs_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "bench",
        help="run benchmarks/bench_*.py, append the results to the "
        "BENCH_history.jsonl ledger, detect perf regressions and "
        "render the trend dashboard",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="only the two fast smoke benches (the CI perf-smoke set)",
    )
    p.add_argument(
        "--only",
        action="append",
        metavar="FRAGMENT",
        help="run modules whose filename contains FRAGMENT (repeatable)",
    )
    p.add_argument(
        "--no-run",
        action="store_true",
        help="skip execution; re-check the existing ledger and re-render "
        "the dashboard",
    )
    p.add_argument(
        "--history",
        metavar="PATH",
        help="ledger path (default BENCH_history.jsonl in the repo root)",
    )
    p.add_argument(
        "--dashboard",
        metavar="PATH",
        help="trend dashboard path (default bench_trends.html)",
    )
    p.add_argument(
        "--repo-root",
        metavar="PATH",
        help="repository root holding benchmarks/ (default: cwd)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the detector confirms a regression",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="relative degradation that counts as a regression "
        "(default 0.30 = 30%%)",
    )
    p.add_argument(
        "--mad-factor",
        type=float,
        default=4.0,
        help="noise bar: the degradation must also exceed this many "
        "median absolute deviations of the series (default 4)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the run/regression summary as JSON",
    )
    p.set_defaults(func=cmd_bench)

    def workload_flags(p):
        p.add_argument(
            "workload",
            help="a benchmark name (e.g. figure4, intavg; "
            "case-insensitive) or an LP430 source file",
        )
        p.add_argument(
            "--policy",
            default="untrusted",
            help="taint kind: untrusted (default) or secret",
        )
        budget_flags(p)
        provenance_flags(p, opt_in=False)

    p = sub.add_parser(
        "explain",
        help="trace one violation's taint back to its labelled "
        "input bits (gate-level backward slice)",
    )
    workload_flags(p)
    p.add_argument(
        "--violation",
        type=int,
        default=0,
        metavar="N",
        help="index into the analysis' violation list (default 0)",
    )
    p.add_argument(
        "--dot",
        metavar="PATH",
        help="also write the sliced flow graph as Graphviz DOT here",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the explanation as a JSON document",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "report",
        help="analyse a workload and write a self-contained HTML "
        "report (verdict, heatmap, violations, provenance chains)",
    )
    workload_flags(p)
    p.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="report file (default report_<workload>.html)",
    )
    p.add_argument(
        "--timeline",
        metavar="PATH",
        help="link to a repro-view HTML page sitting next to the report",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "record",
        help="analyse a workload with the cycle-level flight recorder "
        "armed and write a .timeline file for repro view",
    )
    workload_flags(p)
    p.add_argument(
        "--out",
        default="out.timeline",
        metavar="PATH",
        help="timeline file to write (default out.timeline)",
    )
    p.add_argument(
        "--max-frames",
        type=int,
        default=1 << 20,
        metavar="N",
        help="frame bound; recording stops (truncated, not an error) "
        "when reached",
    )
    obs_flags(p)
    p.set_defaults(func=cmd_record)

    p = sub.add_parser(
        "view",
        help="render a .timeline file as a self-contained HTML "
        "time-travel viewer (scrubber, lanes, taint sparkline)",
    )
    p.add_argument("timeline_file", help=".timeline file from repro record")
    p.add_argument(
        "--out",
        metavar="PATH",
        help="HTML file to write (default <timeline-stem>.html)",
    )
    p.add_argument("--title", metavar="TEXT", help="page title override")
    p.set_defaults(func=cmd_view)

    p = sub.add_parser(
        "serve",
        help="run the supervised analysis service (durable job "
        "journal, worker pool, REST API; SIGINT/SIGTERM drains)",
    )
    p.add_argument(
        "--root",
        default=".repro-service",
        metavar="DIR",
        help="service state directory: job journal + per-job artifacts "
        "(default .repro-service)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8437,
        help="bind port (0 picks a free one; the chosen URL is "
        "written to <root>/address)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="analysis worker subprocesses (default 2)",
    )
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        metavar="N",
        help="max jobs in flight before submissions get 429",
    )
    p.add_argument(
        "--shed-after",
        type=int,
        default=None,
        metavar="N",
        help="backlog size above which launches get clamped budgets "
        "(default: 3/4 of the queue capacity)",
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        metavar="N",
        help="attempts per job before a retriable failure becomes "
        "terminal (default 4)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        metavar="N",
        help="worker checkpoint cadence in explored paths (default 8)",
    )
    p.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="kill a worker whose heartbeat is older than this",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds workers get to checkpoint on drain",
    )
    p.add_argument(
        "--retry-base",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="exponential-backoff base delay (default 0.5s)",
    )
    obs_flags(p)
    p.set_defaults(func=cmd_serve)

    def service_client_flags(p):
        p.add_argument(
            "--url",
            default="http://127.0.0.1:8437",
            help="service base URL (default http://127.0.0.1:8437)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=600.0,
            metavar="SECONDS",
            help="client request/wait timeout",
        )
        p.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    p = sub.add_parser(
        "submit",
        help="submit a workload to a running analysis service "
        "(optionally wait for the verdict)",
    )
    p.add_argument(
        "source",
        help="LP430 source file or registry benchmark name",
    )
    p.add_argument(
        "--policy",
        default="untrusted",
        help="taint kind: untrusted (default) or secret",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="poll until the verdict and exit with its code",
    )
    budget_flags(p)
    service_client_flags(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "watch",
        help="stream a job's live progress (state transitions, path "
        "exploration, ETA) from a running service until it finishes",
    )
    p.add_argument("job_id", help="job id to watch")
    service_client_flags(p)
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "jobs",
        help="list a running service's jobs (or one job's record)",
    )
    p.add_argument(
        "job_id", nargs="?", help="job id (omit to list every job)"
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's live counter/gauge/histogram snapshot "
        "(the same data GET /metrics exposes) instead of the job list",
    )
    service_client_flags(p)
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser(
        "trace-lint",
        help="validate a JSONL trace file against the documented "
        "v4 event schema (declared fields, monotone progress, "
        "stable job correlation)",
    )
    p.add_argument("trace_file", help="JSONL trace written by --trace")
    p.set_defaults(func=cmd_trace_lint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnalysisInterrupted as error:
        if getattr(args, "json", False):
            print(format_json({"error": error.to_document()}))
        else:
            print(error.render(), file=sys.stderr)
            if error.checkpoint_path:
                print(
                    f"resume with: repro analyze {args.source} "
                    f"--resume {error.checkpoint_path}",
                    file=sys.stderr,
                )
        return error.exit_code
    except ReproError as error:
        if getattr(args, "json", False):
            print(format_json({"error": error.to_document()}))
        else:
            print(error.render(), file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
