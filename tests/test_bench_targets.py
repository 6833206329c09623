"""The benchmark's span targets stay where it looks for them.

`perfbench/spans.py` wraps each function it times where `osalg.sim` or
`osalg.cli` looks it up: a module function on the module whose globals
the caller reads (`osalg.sim.allocate_op`, `segment_alloc`,
`build_page_table`, `paginate`, `swap_in`, ...), a method on its own class
(`Discipline.apply`). A refactor that moves one of them breaks the
benchmark, which this suite does not collect, so the targets are checked
here. The module is standard library only and is loaded by its path.
"""

import importlib
import importlib.util
from pathlib import Path

from osalg import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def defined(module, path):
    """The owner of a target and the value defined on it, not inherited."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, vars(owner)[attr]


def test_every_span_target_is_wrapped_and_then_restored():
    spans = load_spans()
    originals = {name: defined(*where) for name, where in spans.TARGETS.items()}
    with spans.patched(spans.Tracer()):
        for name, where in spans.TARGETS.items():
            assert defined(*where)[1] is not originals[name][1], name
    for name, where in spans.TARGETS.items():
        assert defined(*where)[1] is originals[name][1], name


# Targets that no run reaches: each timed 0 calls a job on all four
# benchmark workloads. The simulator composes no Discipline through
# `apply` and builds its binding log's dependencies in one constructor
# call, not through `with_dependency`. Retargeting them changes the
# benchmark, so they are exempt here by name.
UNREACHED = {"combinators.Discipline.apply", "binding.BindingGraph.with_dependency"}

# Procedure 3 arrives to a full memory and swaps procedure 2 out; the
# completion of procedure 1 swaps it back in.
SWAPPING = """\
id=1 size=8 time=4 segments=4,4
id=2 size=8 time=4 segments=3,5
id=3 size=8 time=2 arrival=1 segments=8
"""

ALLOCATOR_FLAGS = {
    "first-fit": [],
    "fixed": ["--unit", "8"],
    "buddy": [],
    "paging": ["--page-size", "4"],
    "segmentation": [],
}


def test_every_span_target_is_reached(tmp_path, capsys, monkeypatch):
    """One small swapping job a allocator, and one strict job, call every
    target the benchmark times but the exempt ones. A refactor that leaves
    a wrapped name imported but no longer called would time nothing."""
    spans = load_spans()
    workload = tmp_path / "w.txt"
    workload.write_text(SWAPPING)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        for allocator, flags in ALLOCATOR_FLAGS.items():
            argv = ["run", "--workload", str(workload), "--scheduler", "fcfs",
                    "--allocator", allocator, "--memory", "16", *flags]
            assert cli.main(argv) == 0, allocator
            assert ",SwapIn," in capsys.readouterr().out, allocator
        monkeypatch.setenv("OSALG_STRICT", "1")
        assert cli.main(argv) == 0
    calls = tracer.totals()[0]
    missed = {name for name in spans.TARGETS if not calls[name]}
    assert missed <= UNREACHED
