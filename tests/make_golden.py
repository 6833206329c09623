"""Golden outputs that pin the simulator's traces, metrics and binding
logs, the batch schedulers' behaviour and the output of the `osalg`
command line, byte for byte.

`tests/test_golden.py` compares every file under `tests/golden/` with
`golden_files()`. Rewrite the files only when a change of output is
intended, and only with this script:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from osalg import SortKey, fcfs, priority_schedule, round_robin, run, sjf
from osalg.binding import BindingGraph
from osalg.cli import main as cli_main, render_metrics, render_trace
from osalg.schedulers import class_quantum, variable_quantum

from conftest import emit_workload, random_arrivals, regression_runs

GOLDEN = Path(__file__).resolve().parent / "golden"

BATCH_SCHEDULERS = {
    "fcfs": fcfs,
    "sjf-size": lambda ps: sjf(ps, SortKey.SIZE),
    "sjf-time": lambda ps: sjf(ps, SortKey.TIME),
    "priority": priority_schedule,
    "rr-2": lambda ps: round_robin(ps, 2),
    "var-quantum-1-3": lambda ps: variable_quantum(ps, class_quantum(1, 3)),
}


def batch_workloads():
    """Two seeded workloads with priorities and work classes: one batch
    at instant 0, one staggered with idle gaps."""
    return {
        "batch": random_arrivals(random.Random(1), 12, spread=0,
                                 with_priority=True, with_class=True),
        "staggered": random_arrivals(random.Random(2), 12, spread=60,
                                     with_priority=True, with_class=True),
    }


# `osalg orderings` runs: name -> (--symbols, --deps)
CLI_ORDERINGS = {
    "page-table": ("frames,pages,page-table", "frames<page-table,pages<page-table"),
    "chain": ("d,c,b,a", "d<c,c<b,b<a"),
    "free": ("x,y,z", ""),
}


def export_edges(g: BindingGraph) -> str:
    """Dependency edges and the event log of a binding graph as plain
    text, one item per line."""
    lines = ["# dependencies"]
    lines.extend(f"{first} -> {then}" for first, then in sorted(g.dependencies))
    lines.append("# events")
    lines.extend(f"{e.instant} {type(e).__name__} {e.symbol}" for e in g.events)
    return "\n".join(lines) + "\n"


def cli_output(argv: list[str]) -> str:
    """What `osalg <argv>` writes to stdout; raises unless it exits 0
    with nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    if code or err.getvalue():
        raise RuntimeError(f"osalg {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue()


def cli_files() -> dict[str, str]:
    """The orderings of CLI_ORDERINGS, and the two files of one seeded
    rr/paging `osalg run` that swaps, written through --trace and
    --metrics while nothing goes to stdout."""
    files = {
        f"cli-orderings-{name}.txt": cli_output(
            ["orderings", "--symbols", symbols, "--deps", deps])
        for name, (symbols, deps) in CLI_ORDERINGS.items()
    }
    workload = random_arrivals(random.Random(3), 12, max_size=12, spread=12,
                               with_class=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: Path(tmp, f"out.{kind}") for kind in ("workload", "trace", "metrics")}
        paths["workload"].write_text(emit_workload(workload), encoding="utf-8")
        stdout = cli_output([
            "run", "--workload", str(paths["workload"]), "--scheduler", "rr",
            "--quantum", "2", "--allocator", "paging", "--page-size", "4",
            "--memory", "16", "--backing", "24",
            "--trace", str(paths["trace"]), "--metrics", str(paths["metrics"]),
        ])
        if stdout:
            raise RuntimeError("osalg run wrote to stdout with both paths given")
        files["cli-run-rr-paging.trace.csv"] = paths["trace"].read_text(encoding="utf-8")
        files["cli-run-rr-paging.metrics.txt"] = paths["metrics"].read_text(encoding="utf-8")
    return files


def golden_files() -> dict[str, str]:
    """File name under `tests/golden/` -> its expected content."""
    files: dict[str, str] = {}
    for name, workload, cfg in regression_runs():
        trace, measured = run(workload, cfg, strict=False)
        files[f"run-{name}.trace.csv"] = render_trace(trace)
        files[f"run-{name}.metrics.txt"] = render_metrics(measured)
        files[f"run-{name}.binding.txt"] = export_edges(trace.binding)
    for load, workload in batch_workloads().items():
        for sched, schedule in BATCH_SCHEDULERS.items():
            lines = ["pid,start,length"]
            lines.extend(f"{s.pid},{s.start},{s.length}" for s in schedule(workload))
            files[f"slices-{load}-{sched}.csv"] = "\n".join(lines) + "\n"
    files.update(cli_files())
    return files


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    files = golden_files()
    for name, text in files.items():
        (GOLDEN / name).write_text(text, encoding="utf-8", newline="")
    print(f"wrote {len(files)} files to {GOLDEN}")


if __name__ == "__main__":
    main()
