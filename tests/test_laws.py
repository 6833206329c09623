"""Laws of the composition algebra, each stated as an equality between the
traces of two runs whose inputs the law relates. The simulator is checked
against itself: no reference model takes part (metamorphic testing).

The workloads are small and the memory tight, so most of them swap."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from osalg import SimConfig, WorkClass, run
from osalg.sim import ALLOCATORS, SCHEDULERS

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
