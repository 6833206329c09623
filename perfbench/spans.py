"""Outside-in span tracing of ``osalg`` for the traced benchmark run.

Each traced function is wrapped where ``osalg.sim`` or ``osalg.cli`` looks
it up: module functions on the module the caller reads them from, methods
on their class. A call records one span: name, start, end, parent span,
job id and whether it raised. Spans stay in memory until the run ends.
A span's self time is its duration less its children's, which nest
exactly because the run is single threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable, Iterator

# metric name -> (module, attribute path in it); module functions are taken
# from the module whose globals the caller reads, methods from their class
TARGETS = {
    "cli.parse_workload": ("osalg.cli", "parse_workload"),
    "cli.render_trace": ("osalg.cli", "render_trace"),
    "cli.render_metrics": ("osalg.cli", "render_metrics"),
    "sim.run": ("osalg.cli", "run"),
    "sim.metrics": ("osalg.sim", "metrics"),
    "schedulers.ArrivalStream.take_until": ("osalg.schedulers", "ArrivalStream.take_until"),
    "combinators.Discipline.apply": ("osalg.combinators", "Discipline.apply"),
    "combinators.BuddyTree.allocate": ("osalg.combinators", "BuddyTree.allocate"),
    "combinators.BuddyTree.release": ("osalg.combinators", "BuddyTree.release"),
    "combinators.BuddyTree.free_extents": ("osalg.combinators", "BuddyTree.free_extents"),
    "allocators.MemoryState.initial": ("osalg.allocators", "MemoryState.initial"),
    "allocators.MemoryState.check_invariants": ("osalg.allocators", "MemoryState.check_invariants"),
    "allocators.allocate": ("osalg.sim", "allocate_op"),
    "allocators.segment_alloc": ("osalg.sim", "segment_alloc"),
    "allocators.build_page_table": ("osalg.sim", "build_page_table"),
    "allocators.paginate": ("osalg.sim", "paginate"),
    "allocators.deallocate": ("osalg.sim", "deallocate"),
    "allocators.swap_out": ("osalg.sim", "swap_out"),
    "allocators.swap_in": ("osalg.sim", "swap_in"),
    "binding.record": ("osalg.binding", "record"),
    "binding.BindingGraph.with_dependency": ("osalg.binding", "BindingGraph.with_dependency"),
    "binding.validate": ("osalg.binding", "validate"),
}

# Memory grants: a raised AllocationFailure or SwapFailure is a failed grant.
GRANTS = ("allocators.allocate", "allocators.segment_alloc",
          "allocators.build_page_table", "allocators.swap_out", "allocators.swap_in")

ROOT = "cli.main"


class Tracer:
    """Span recorder; `job` is stamped on every span recorded."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, bool] | None] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, raised)

        return traced

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls, self nanoseconds and raising calls, by span name."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        raised: Counter = Counter()
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _, failed = span
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            raised[name] += failed
        return calls, self_ns, raised

    def write(self, path: str) -> None:
        """All spans as CSV, times in ns from the first span's start."""
        origin = self.spans[0][1] if self.spans and self.spans[0] else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent,job,raised\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, job, failed = span
                handle.write(f"{index},{name},{start - origin},{end - origin},"
                             f"{parent},{job},{int(failed)}\n")


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration; the originals come back after."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for name, (module, path) in TARGETS.items():
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                replacement: Any = staticmethod(tracer.wrap(name, original.__func__))
            else:
                replacement = tracer.wrap(name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
