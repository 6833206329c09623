"""Shared workload builders and the regression run matrix."""

from __future__ import annotations

import random

from osalg import Procedure, ProcedureSet, SimConfig, WorkClass


def proc(pid, size=1, time=1, arrival=0, priority=None, owner=None,
         io_class=None, segments=None):
    return Procedure(
        id=pid, size=size, time=time, arrival=arrival, priority=priority,
        owner=owner, io_class=io_class, segments=segments,
    )


def emit_workload(procedures) -> str:
    """Render a procedure set back to workload text."""
    lines = []
    for p in procedures:
        parts = [f"id={p.id}", f"size={p.size}", f"time={p.time}", f"arrival={p.arrival}"]
        if p.priority is not None:
            parts.append(f"priority={p.priority}")
        if p.owner is not None:
            parts.append(f"owner={p.owner}")
        if p.io_class is not None:
            parts.append(f"class={p.io_class.value}")
        if p.segments is not None:
            parts.append("segments=" + ",".join(str(s) for s in p.segments))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def encloses(outer, inner) -> bool:
    """Whether extent `inner` lies inside extent `outer`."""
    return outer.start <= inner.start and inner.end <= outer.end


def random_batch(rng: random.Random, n: int, max_size: int = 8,
                 max_time: int = 9, with_priority: bool = False) -> ProcedureSet:
    """A batch workload: everything arrives at instant 0."""
    members = [
        proc(
            pid=i + 1,
            size=rng.randint(0, max_size),
            time=rng.randint(1, max_time),
            priority=rng.randint(0, 9) if with_priority else None,
        )
        for i in range(n)
    ]
    return ProcedureSet(tuple(members))


def random_arrivals(rng: random.Random, n: int, max_size: int = 8,
                    max_time: int = 9, spread: int = 20,
                    with_priority: bool = False,
                    with_class: bool = False) -> ProcedureSet:
    """A staggered workload sorted by (arrival, id)."""
    arrivals = sorted(rng.randint(0, spread) for _ in range(n))
    members = [
        proc(
            pid=i + 1,
            size=rng.randint(0, max_size),
            time=rng.randint(1, max_time),
            arrival=arrivals[i],
            priority=rng.randint(0, 9) if with_priority else None,
            io_class=(
                rng.choice([WorkClass.IO_BOUND, WorkClass.CPU_BOUND])
                if with_class
                else None
            ),
        )
        for i in range(n)
    ]
    return ProcedureSet(tuple(members))


def regression_runs() -> list[tuple[str, ProcedureSet, SimConfig]]:
    """Fixed workload/config pairs exercised by determinism and
    conservation checks."""
    rng = random.Random(20130802)
    runs: list[tuple[str, ProcedureSet, SimConfig]] = []

    two_job = ProcedureSet.of(proc(1, size=4, time=3), proc(2, size=4, time=2))
    runs.append(("two-job-fcfs-first-fit", two_job,
                 SimConfig(memory_capacity=16, scheduler="fcfs",
                           allocator="first-fit")))

    batch = random_batch(rng, 12)
    runs.append(("batch-sjf-time-buddy", batch,
                 SimConfig(memory_capacity=32, scheduler="sjf-time",
                           allocator="buddy")))

    staggered = random_arrivals(rng, 10, with_priority=True)
    runs.append(("staggered-priority-paging", staggered,
                 SimConfig(memory_capacity=32, scheduler="priority",
                           allocator="paging", page_size=4)))

    rr_load = random_arrivals(rng, 8, max_size=4)
    runs.append(("staggered-rr-fixed", rr_load,
                 SimConfig(memory_capacity=24, scheduler="rr", quantum=2,
                           allocator="fixed", unit_size=4)))

    segmented = ProcedureSet.of(
        proc(1, size=10, time=4, segments=(4, 6)),
        proc(2, size=6, time=3, arrival=1, segments=(2, 2, 2)),
        proc(3, size=5, time=2, arrival=2),
        proc(4, size=3, time=5, arrival=2, io_class=WorkClass.IO_BOUND),
    )
    runs.append(("segments-var-quantum", segmented,
                 SimConfig(memory_capacity=16, scheduler="var-quantum",
                           io_quantum=1, cpu_quantum=3,
                           allocator="segmentation")))

    # tight memory forces swapping
    swappy = ProcedureSet.of(
        proc(1, size=4, time=6, arrival=0, priority=5),
        proc(2, size=4, time=6, arrival=0, priority=1),
        proc(3, size=4, time=2, arrival=1, priority=9),
    )
    runs.append(("tight-memory-swap", swappy,
                 SimConfig(memory_capacity=8, backing_capacity=8,
                           scheduler="fcfs", allocator="first-fit")))

    sjf_size = random_arrivals(rng, 9, max_size=6)
    runs.append(("staggered-sjf-size-tight", sjf_size,
                 SimConfig(memory_capacity=8, backing_capacity=16,
                           scheduler="sjf-size", allocator="first-fit")))

    # each organization swaps out and back in; the residue of fixed
    # partitioning (10 units, unit 4) never takes part
    runs.append(("swap-fixed", ProcedureSet.of(
        proc(1, size=4, time=5, priority=5),
        proc(2, size=3, time=4, priority=1),
        proc(3, size=2, time=2, arrival=1, priority=9),
        proc(4, size=4, time=1, arrival=2, priority=3),
    ), SimConfig(memory_capacity=10, backing_capacity=8, scheduler="fcfs",
                 allocator="fixed", unit_size=4)))
    runs.append(("swap-buddy", ProcedureSet.of(
        proc(1, size=3, time=5, priority=5),
        proc(2, size=2, time=4, priority=1),
        proc(3, size=4, time=2, arrival=1, priority=9),
        proc(4, size=1, time=3, arrival=2, priority=2),
    ), SimConfig(memory_capacity=8, backing_capacity=8, scheduler="priority",
                 allocator="buddy")))
    runs.append(("swap-paging", ProcedureSet.of(
        proc(1, size=5, time=5, priority=5),
        proc(2, size=3, time=4, priority=1),
        proc(3, size=4, time=2, arrival=1, priority=9),
        proc(4, size=2, time=3, arrival=3, priority=2),
    ), SimConfig(memory_capacity=12, backing_capacity=8, scheduler="rr",
                 quantum=2, allocator="paging", page_size=2)))
    runs.append(("swap-segmentation", ProcedureSet.of(
        proc(1, size=4, time=5, priority=5, segments=(1, 3)),
        proc(2, size=5, time=4, priority=1, segments=(2, 3)),
        proc(3, size=4, time=2, arrival=1, priority=9),
        proc(4, size=2, time=3, arrival=2, priority=2, segments=(1, 1)),
    ), SimConfig(memory_capacity=10, backing_capacity=8, scheduler="sjf-time",
                 allocator="segmentation")))
    # first fit admits procedure 2 as one extent but swaps it back in as
    # its two declared segments, into the two holes left at instant 9
    runs.append(("swap-first-fit-segmented", ProcedureSet.of(
        proc(1, size=2, time=3, priority=5),
        proc(2, size=4, time=6, priority=1, segments=(2, 2)),
        proc(3, size=2, time=6, priority=4),
        proc(4, size=4, time=1, arrival=1, priority=9),
    ), SimConfig(memory_capacity=8, backing_capacity=8, scheduler="fcfs",
                 allocator="first-fit")))
    return runs
