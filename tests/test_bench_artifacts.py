"""Guard the benchmark-artifact contract without running the benches.

The full suite under ``benchmarks/`` is too slow for tier-1, but three
kinds of drift have bitten before and are cheap to catch statically:

* a bench module stops emitting its ``BENCH_<name>.json`` document, so
  the perf trajectory silently loses a series;
* a bench module is deleted but its committed ``BENCH_<name>.json``
  stays behind, a document nothing will ever refresh;
* the collection pattern regresses and ``pytest benchmarks/`` collects
  nothing at all (``bench_*.py`` does not match pytest's default
  ``test_*.py`` file glob -- the repo must opt in via pyproject).
"""

import json
import re
from pathlib import Path

REPO = Path(__file__).parent.parent
BENCH_DIR = REPO / "benchmarks"

#: Keys benchmarks/_emit.py stamps on every document (schema >= 3).
COMMON_KEYS = ("bench", "schema", "host", "git_rev", "utc", "wall_seconds")


def bench_modules():
    files = sorted(BENCH_DIR.glob("bench_*.py"))
    assert files, "no bench modules found -- wrong repo layout?"
    return files


def test_every_bench_module_emits_a_json_document():
    missing = [
        path.name
        for path in bench_modules()
        if "bench_json(" not in path.read_text()
        and "emit_bench_json(" not in path.read_text()
    ]
    assert not missing, (
        f"bench modules without a BENCH_*.json emission: {missing} "
        "(every benchmarks/bench_*.py must call the bench_json fixture "
        "so its document lands in the repo root -- see "
        "benchmarks/conftest.py)"
    )


def emitted_names():
    """Every document name a ``bench_json(``/``emit_bench_json(`` call
    in a bench module writes, once per call."""
    names = []
    for path in bench_modules():
        names.extend(
            re.findall(r"bench_json\(\s*[\"']([\w-]+)[\"']", path.read_text())
        )
    return names


def test_bench_documents_use_unique_names():
    """Two modules writing the same BENCH_<name>.json would clobber
    each other; names must be distinct across the suite."""
    names = emitted_names()
    assert names
    assert len(names) == len(set(names)), (
        f"duplicate BENCH document names: "
        f"{sorted(n for n in set(names) if names.count(n) > 1)}"
    )


def test_every_committed_bench_document_has_an_emitter():
    """A committed ``BENCH_<name>.json`` that no bench call names is an
    orphan: its module is gone, so its numbers never change again."""
    emitted = set(emitted_names())
    orphans = sorted(
        path.name
        for path in REPO.glob("BENCH_*.json")
        if path.name[len("BENCH_"):-len(".json")] not in emitted
    )
    assert not orphans, (
        f"committed bench documents no module under benchmarks/ emits: "
        f"{orphans} (delete them with their bench module)"
    )


def test_bench_files_are_collectable():
    """pytest only collects ``bench_*.py`` because pyproject opts in;
    losing that line makes ``pytest benchmarks/`` a silent no-op."""
    pyproject = (REPO / "pyproject.toml").read_text()
    assert "bench_*.py" in pyproject, (
        "pyproject.toml no longer lists bench_*.py in python_files; "
        "`pytest benchmarks/` would collect zero tests"
    )


def test_committed_bench_documents_carry_the_common_keys():
    """Every committed BENCH_*.json must be self-describing: which
    commit and when the numbers were measured (``git_rev``/``utc``),
    on what host, at which schema.  ``cycles_per_second`` is only
    allowed when it actually holds a number -- a ``null`` placeholder
    (bench_service.py used to emit one) poisons trend queries."""
    documents = sorted(REPO.glob("BENCH_*.json"))
    assert documents, "no committed BENCH_*.json artifacts found"
    problems = []
    for path in documents:
        doc = json.loads(path.read_text())
        for key in COMMON_KEYS:
            if key not in doc:
                problems.append(f"{path.name}: missing {key!r}")
        if doc.get("schema", 0) < 3:
            problems.append(f"{path.name}: schema {doc.get('schema')} < 3")
        if "cycles_per_second" in doc and not isinstance(
            doc["cycles_per_second"], (int, float)
        ):
            problems.append(
                f"{path.name}: cycles_per_second is "
                f"{doc['cycles_per_second']!r}; omit the key instead"
            )
    assert not problems, "\n".join(problems)


def test_emitter_omits_null_cycles_per_second(tmp_path, monkeypatch):
    """The shared emitter enforces the omit-don't-null rule itself."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_emit_under_test", BENCH_DIR / "_emit.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_GIT_REV", "cafe" * 10)
    path = module.emit_bench_json("emitter_probe", {"x": 1}, wall_seconds=2.0)
    doc = json.loads(path.read_text())
    assert "cycles_per_second" not in doc
    for key in COMMON_KEYS:
        assert key in doc, f"emitter dropped common key {key!r}"
    assert doc["git_rev"] == "cafe" * 10
    assert doc["schema"] == module.BENCH_SCHEMA >= 3
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", doc["utc"])

    with_cycles = module.emit_bench_json(
        "emitter_probe2", {}, wall_seconds=1.0, cycles_per_second=42.0
    )
    assert json.loads(with_cycles.read_text())["cycles_per_second"] == 42.0


def test_bench_output_dir_is_the_repo_root(monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_conftest", BENCH_DIR / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    assert module.bench_output_dir().resolve() == REPO.resolve()
    monkeypatch.setenv("REPRO_BENCH_DIR", "/tmp/elsewhere")
    assert module.bench_output_dir() == Path("/tmp/elsewhere")
