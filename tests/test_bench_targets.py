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
