"""Footnote 4: analysis tractability across the suite.

Each Table 1 analysis runs ``RUNS`` times on one pinned CPU
(``_pairs.one_cpu``); its row keeps the median process CPU seconds
beside the median wall seconds.  CPU time leaves out the time other
processes hold the core, so the ``analysis_runtime`` series follows the
code rather than the host's load.
"""

from _pairs import one_cpu

from repro.eval.runtime import RUNS, build_runtime, render_runtime


def test_analysis_runtime(timed, bench_json):
    with one_cpu():
        rows = timed(build_runtime)
    assert len(rows) == 13

    for row in rows:
        # the conservative approximation must terminate every benchmark
        assert row.wall_seconds < 300, f"{row.name} took too long"
        # and it terminates *because* of merging, not luck: every
        # benchmark's exploration ends in merge-stops
        assert row.merge_terminations >= 1, row.name

    bench_json(
        "analysis_runtime",
        {
            "runs": RUNS,
            "total_wall_seconds": sum(r.wall_seconds for r in rows),
            "total_cpu_seconds": sum(r.cpu_seconds for r in rows),
            "benchmarks": {row.name: row for row in rows},
        },
        wall_seconds=timed.seconds,
    )

    print()
    print(render_runtime(rows))
