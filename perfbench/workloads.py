"""Seeded workload generation for the benchmark.

A workload is a pool of jobs. Each job is one ``osalg run`` over one
generated workload file under one scheduler x allocator pair. The pool is
a pure function of the workload's name and the seed; ``osalg`` itself only
ever sees the generated files. This module imports nothing from ``osalg``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FIXED_UNIT = 16
PAGE_SIZE = 4
RR_QUANTUM = 2

SCHEDULERS = ("fcfs", "sjf-size", "sjf-time", "priority", "rr", "var-quantum")
ALLOCATORS = ("first-fit", "fixed", "buddy", "paging", "segmentation")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload: what its files hold and how they are run."""

    name: str
    procs: int  # procedures per file
    files: int  # distinct files per seed
    memory: int
    backing: int | None
    schedulers: tuple[str, ...]
    allocators: tuple[str, ...]
    max_size: int
    max_time: int
    max_gap: int  # 0: every procedure arrives at instant 0
    strict: bool = False


SPECS = {
    s.name: s
    for s in (
        # Long ready queue, large resident set, big capacity: the scheduler
        # pick, the buddy tree walk and the memory-set setup; no swapping.
        Spec("batch-ample", 150, 2, 8192, None,
             ("fcfs", "sjf-size", "sjf-time", "priority"),
             ("first-fit", "fixed", "buddy", "segmentation"),
             max_size=FIXED_UNIT, max_time=20, max_gap=0),
        # Memory grant under pressure: failed admissions, constant swapping,
        # a short ready queue.
        Spec("stream-tight", 150, 2, 128, 64, SCHEDULERS,
             ("first-fit", "fixed", "buddy", "segmentation"),
             max_size=FIXED_UNIT, max_time=12, max_gap=2),
        # Many short slices under paging: the binding log is appended to on
        # every dispatch and grows quadratically in cost, so n stays small.
        Spec("rr-paging", 40, 8, 256, None, ("rr", "var-quantum"), ("paging",),
             max_size=32, max_time=20, max_gap=3),
        # Every pair with per-event invariant checks: strict mode reads the
        # binding log that rr-paging writes.
        Spec("strict-mix", 40, 2, 128, None, SCHEDULERS, ALLOCATORS,
             max_size=FIXED_UNIT, max_time=12, max_gap=2, strict=True),
    )
}


@dataclass(frozen=True)
class Job:
    """One ``osalg run`` invocation: a file index and the CLI flags."""

    key: str  # stable name, used for digests
    file: int
    scheduler: str
    allocator: str

    def argv(self, spec: Spec, path: str) -> list[str]:
        argv = ["run", "--workload", path, "--scheduler", self.scheduler,
                "--allocator", self.allocator, "--memory", str(spec.memory)]
        if spec.backing is not None:
            argv += ["--backing", str(spec.backing)]
        if self.scheduler == "rr":
            argv += ["--quantum", str(RR_QUANTUM)]
        if self.allocator == "fixed":
            argv += ["--unit", str(FIXED_UNIT)]
        if self.allocator == "paging":
            argv += ["--page-size", str(PAGE_SIZE)]
        return argv


def jobs(spec: Spec, seed: int) -> list[Job]:
    """Every file under every pair, in a seed-shuffled order."""
    pool = [
        Job(f"f{f}.{s}.{a}", f, s, a)
        for f in range(spec.files)
        for s in spec.schedulers
        for a in spec.allocators
    ]
    random.Random(f"{spec.name}:order:{seed}").shuffle(pool)
    return pool


def workload_text(spec: Spec, seed: int, index: int) -> str:
    """The text of file `index` of the workload, one procedure a line."""
    rng = random.Random(f"{spec.name}:file{index}:{seed}")
    lines = []
    arrival = 0
    for pid in range(1, spec.procs + 1):
        size = rng.randint(1, spec.max_size)
        parts = [
            f"id={pid}",
            f"size={size}",
            f"time={rng.randint(1, spec.max_time)}",
            f"arrival={arrival}",
            f"priority={rng.randint(0, 9)}",
            f"class={rng.choice(('IoBound', 'CpuBound'))}",
        ]
        if size > 1 and rng.random() < 0.5:
            cut = rng.randint(1, size - 1)
            parts.append(f"segments={cut},{size - cut}")
        lines.append(" ".join(parts))
        if spec.max_gap:
            arrival += rng.randint(0, spec.max_gap)
    return "\n".join(lines) + "\n"
