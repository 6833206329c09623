"""Golden outputs that pin the simulator's traces, metrics and binding
logs, and the batch schedulers' behaviour, byte for byte.

`tests/test_golden.py` compares every file under `tests/golden/` with
`golden_files()`. Rewrite the files only when a change of output is
intended, and only with this script:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import random
from pathlib import Path

from osalg import (
    SortKey,
    class_quantum,
    fcfs,
    priority_schedule,
    round_robin,
    run,
    sjf,
    variable_quantum,
)
from osalg.binding import export_edges
from osalg.cli import render_metrics, render_trace

from conftest import random_arrivals, regression_runs

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
