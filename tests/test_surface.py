"""The package's public surface: the names the benchmark wraps, the names
`osalg` exports, the modules it ships, the README's library example that
imports them, and the README's table of the trace's records."""

import ast
import contextlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import osalg
from osalg import sim

REPO = Path(__file__).resolve().parents[1]


def test_bench_span_targets_resolve():
    """Every function the traced benchmark wraps is found where its span
    wrapper looks for it: `spans._resolve` finds the owner, and the
    attribute is in `vars(owner)`. The benchmark file is loaded, not
    changed, and nothing is patched."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, (module, path) in spans.TARGETS.items():
        owner, attr = spans._resolve(module, path)
        assert attr in vars(owner), f"{name}: no {path} in {module}"


def test_exports_are_pinned():
    """The names a run, its results, the README example and the acceptance
    criteria use; a change here is a change of the public surface."""
    assert sorted(osalg.__all__) == [
        "BindingGraph",
        "BindingLayer",
        "Extent",
        "Metrics",
        "Organize",
        "Procedure",
        "ProcedureSet",
        "Select",
        "SimConfig",
        "SortKey",
        "Trace",
        "TraceEvent",
        "WorkClass",
        "compose",
        "errors",
        "fcfs",
        "legal_orderings",
        "organize_buddy",
        "priority_schedule",
        "record",
        "round_robin",
        "run",
        "sjf",
        "translate",
        "validate",
    ]
    for name in osalg.__all__:
        assert hasattr(osalg, name), name


def test_modules_are_pinned():
    """The package holds the library and nothing else: the test oracles
    live under tests/."""
    assert sorted(m.name for m in pkgutil.iter_modules(osalg.__path__)) == [
        "allocators",
        "binding",
        "cli",
        "combinators",
        "core",
        "errors",
        "schedulers",
        "sim",
        "strict",
    ]


def test_oracles_import_nothing_from_the_package():
    """An oracle that shares code with what it checks cannot catch a fault
    in that code."""
    tree = ast.parse((REPO / "tests" / "oracle.py").read_text(encoding="utf-8"))
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        "." * node.level + (node.module or "") for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert imported
    for name in imported:
        assert not name.startswith(".") and name.split(".")[0] != "osalg", name


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "5 {1: 0, 2: 3}\n"


def test_readme_trace_table_lists_each_records_fields():
    """Each row of README's trace table names record classes and lists,
    in order, the fields each carries after `instant` and `pid`; every
    record is named in exactly one row."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    head = "| Kind | Fields after `instant` and `pid` |\n| --- | --- |\n"
    rows = readme.split(head, 1)[1].split("\n\n", 1)[0].splitlines()
    named = []
    for row in rows:
        kinds, fields = row.strip("|").split("|")
        listed = tuple(re.findall(r"`(\w+)`", fields))
        for name in kinds.strip().split(", "):
            record = getattr(sim, name)
            assert issubclass(record, sim.TraceEvent), name
            assert record._fields[2:] == listed, name
            named.append(name)
    assert sorted(named) == sorted(r.__name__ for r in sim.TraceEvent.__subclasses__())
