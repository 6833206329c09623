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
        dataclasses.replace(e, instant=e.instant + k) for e in trace.events)


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
        dispatches[cfg.scheduler] = [(e.instant, e.pid, e.value("run"))
                                     for e in trace.of_kind(EventKind.DISPATCH)]
    assert dispatches == {"fcfs": [(0, 1, 3), (3, 2, 3), (6, 3, 4)],
                          "rr": [(0, 1, 3), (3, 3, 4), (7, 2, 3)]}
