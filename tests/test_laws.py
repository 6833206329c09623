"""Laws of the composition algebra, each stated as an equality between the
traces of two runs whose inputs the law relates. The simulator is checked
against itself: no reference model takes part (metamorphic testing).

The workloads are small and the memory tight, so most of them swap."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from osalg import SimConfig, WorkClass, run
from osalg.sim import ALLOCATORS, SCHEDULERS, EventKind

from conftest import proc

# every size drawn below fits each allocator: one fixed unit holds it, and
# 16 is a power of two for buddy
MEMORY = dict(memory_capacity=16, backing_capacity=32, unit_size=8, page_size=4)

# (arrival, size, time, priority, class, declares two segments)
WORKLOADS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 8), st.integers(1, 8),
              st.integers(0, 9), st.sampled_from([None, *WorkClass]), st.booleans()),
    min_size=1, max_size=8,
)

STRICT = pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])

# the trace fields that count CPU instants
TIMES = frozenset({"time", "run", "left"})


def procedures(shapes):
    return [
        proc(i + 1, size=size, time=time, arrival=arrival, priority=priority,
             io_class=io_class,
             segments=(size // 2, size - size // 2) if split and size > 1 else None)
        for i, (arrival, size, time, priority, io_class, split) in enumerate(shapes)
    ]


@STRICT
@pytest.mark.parametrize("allocator", ALLOCATORS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=4, deadline=None)
@given(WORKLOADS, st.integers(1, 9))
def test_shifting_every_arrival_shifts_every_instant(scheduler, allocator, strict,
                                                     shapes, k):
    """Adding k to every arrival adds k to every instant of the trace and
    changes nothing else: no discipline reads the absolute clock."""
    cfg = SimConfig(scheduler=scheduler, quantum=2, io_quantum=1, cpu_quantum=3,
                    allocator=allocator, **MEMORY)
    ps = procedures(shapes)
    later = [dataclasses.replace(p, arrival=p.arrival + k) for p in ps]
    trace, _ = run(ps, cfg, strict)
    shifted, _ = run(later, cfg, strict)
    assert shifted.events == tuple(
        e._replace(instant=e.instant + k) for e in trace.events)


@STRICT
@pytest.mark.parametrize("allocator", ALLOCATORS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=3, deadline=None)
@given(WORKLOADS, st.integers(2, 4))
def test_scaling_every_time_scales_every_instant(scheduler, allocator, strict,
                                                 shapes, k):
    """Multiplying every arrival, every CPU demand and every quantum by k
    multiplies every instant, and every time, run and left the trace
    lists, by k and changes nothing else: the disciplines compare times
    and never count them. Fails when a slice runs one instant past its
    quantum."""
    cfg = SimConfig(scheduler=scheduler, quantum=2, io_quantum=1, cpu_quantum=3,
                    allocator=allocator, **MEMORY)
    slower = dataclasses.replace(cfg, quantum=2 * k, io_quantum=k, cpu_quantum=3 * k)
    ps = procedures(shapes)
    scaled = [dataclasses.replace(p, arrival=p.arrival * k, time=p.time * k)
              for p in ps]
    trace, _ = run(ps, cfg, strict)
    stretched, _ = run(scaled, slower, strict)
    assert stretched.events == tuple(
        e._replace(instant=e.instant * k,
                   **{f: getattr(e, f) * k for f in TIMES.intersection(e._fields)})
        for e in trace.events)


@STRICT
@pytest.mark.parametrize("allocator", ALLOCATORS)
@settings(max_examples=10, deadline=None)
@given(WORKLOADS, st.integers(0, 9))
def test_equal_priorities_are_fcfs_when_ids_follow_arrivals(allocator, strict,
                                                            shapes, level):
    """Priority scheduling breaks ties by the lower id, and fcfs orders by
    arrival and then id; when every priority is the same and ids follow
    arrival order, the two orders agree and so do the runs, event for
    event, with the same binding log. Fails when priority breaks ties by
    the higher id."""
    fcfs = SimConfig(scheduler="fcfs", allocator=allocator, **MEMORY)
    prio = dataclasses.replace(fcfs, scheduler="priority")
    ps = [dataclasses.replace(p, priority=level)
          for p in procedures(sorted(shapes, key=lambda shape: shape[0]))]
    assert run(ps, prio, strict)[0] == run(ps, fcfs, strict)[0]


@STRICT
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=6, deadline=None)
@given(WORKLOADS)
def test_segmentation_without_segments_is_first_fit(scheduler, strict, shapes):
    """A procedure that declares no segments is one segment, its whole
    size: segmentation then grants what first fit grants, and its run is
    first fit's, event for event, with the same binding log, but for the
    `segments` each Allocate line lists. Fails when segmentation cuts an
    undeclared demand in two."""
    first_fit = SimConfig(scheduler=scheduler, quantum=2, io_quantum=1,
                          cpu_quantum=3, allocator="first-fit", **MEMORY)
    segmentation = dataclasses.replace(first_fit, allocator="segmentation")
    ps = [dataclasses.replace(p, segments=None) for p in procedures(shapes)]
    segmented, _ = run(ps, segmentation, strict)
    plain, _ = run(ps, first_fit, strict)
    assert plain.binding == segmented.binding
    assert plain.events == tuple(
        e._replace(segments=None) if e.kind is EventKind.ALLOCATE else e
        for e in segmented.events)


@STRICT
@pytest.mark.parametrize("allocator", ALLOCATORS)
@settings(max_examples=20, deadline=None)
@given(WORKLOADS, st.integers(1, 4))
def test_one_quantum_for_every_class_is_round_robin(allocator, strict, shapes, q):
    """Variable quantum whose I/O-bound and CPU-bound quanta are both q
    gives round robin with quantum q, event for event, so byte for byte
    once rendered, and the same binding log."""
    rr = SimConfig(scheduler="rr", quantum=q, allocator=allocator, **MEMORY)
    classes = dataclasses.replace(rr, scheduler="var-quantum", io_quantum=q,
                                  cpu_quantum=q)
    ps = procedures(shapes)
    assert run(ps, classes, strict)[0] == run(ps, rr, strict)[0]


@STRICT
@pytest.mark.parametrize("allocator", ALLOCATORS)
@settings(max_examples=10, deadline=None)
@given(WORKLOADS, st.integers(8, 12))
def test_rr_past_every_time_is_fcfs_while_memory_holds_everything(allocator, strict,
                                                                  shapes, q):
    """Round robin whose quantum is at least every CPU demand cuts each
    procedure into one chunk; when memory holds every procedure, each
    joins the ready set on arrival, so join order is arrival order and
    the run is fcfs's, event for event."""
    fcfs = SimConfig(scheduler="fcfs", allocator=allocator,
                     **{**MEMORY, "memory_capacity": 256})
    rr = dataclasses.replace(fcfs, scheduler="rr", quantum=q)
    ps = procedures(shapes)
    assert run(ps, rr, strict)[0] == run(ps, fcfs, strict)[0]


def test_rr_past_every_time_is_not_fcfs_once_joins_leave_arrival_order():
    """The law above fails as soon as admission reorders the joins, even
    with no swap: procedure 2 waits in the backlog while 3, which fits,
    is admitted at instant 2, and 2 only at 3. fcfs keys its ready set
    by arrival and dispatches 2 at instant 3; a chunked identity rotates
    by join order and dispatches 3."""
    ps = [proc(1, size=6, time=3), proc(2, size=6, time=3, arrival=1),
          proc(3, size=1, time=4, arrival=2)]
    fcfs = SimConfig(scheduler="fcfs", allocator="first-fit", memory_capacity=8,
                     backing_capacity=32)
    rr = dataclasses.replace(fcfs, scheduler="rr", quantum=4)
    dispatches = {}
    for cfg in (fcfs, rr):
        trace, _ = run(ps, cfg)
        assert [e.pid for e in trace.of_kind(EventKind.ADMIT)] == [1, 3, 2]
        assert not trace.of_kind(EventKind.SWAP_OUT)
        dispatches[cfg.scheduler] = [(e.instant, e.pid, e.run)
                                     for e in trace.of_kind(EventKind.DISPATCH)]
    assert dispatches == {"fcfs": [(0, 1, 3), (3, 2, 3), (6, 3, 4)],
                          "rr": [(0, 1, 3), (3, 3, 4), (7, 2, 3)]}
