"""The free stores change in place, and the simulator answers a refusal
from the free total before it enters a grant.

Over the memory of each of the five allocators, random grants, releases
and swaps check that:
- whenever `MemoryState.exceeds` refuses, the store itself would refuse
  the grant the simulator skips, so the shortcut changes no run;
- a refused grant or release leaves the store's free extents as they
  were;
- a select over a store leaves it as it was;
- a simulated run's trace equals the trace of a run whose every grant
  and release works on a fresh copy of its store.

And `fits` is exact: it holds just when the empty store grants the
pieces a chunk cuts, for every organization and every chunk.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from osalg import Extent, Organize, Select, SimConfig, compose, run, sim
from osalg.allocators import (
    MemoryState,
    build_page_table,
    deallocate,
    paginate,
    segment_alloc,
    swap_in,
    swap_out,
    victim_key,
)
from osalg.combinators import BuddyTree, Chunk, FreeRuns
from osalg.errors import (
    AllocationFailure,
    NotFoundError,
    ParameterError,
    UnrunnableProcedureError,
)
from osalg.sim import ALLOCATORS, FIRST_FIT, Allocator

from conftest import proc

CAPACITY, BACKING, UNIT = 64, 24, 4
CONFIG = SimConfig(memory_capacity=CAPACITY, unit_size=UNIT, page_size=UNIT)

OPS = st.lists(
    st.tuples(
        st.sampled_from(["grant", "grant", "release", "swap_out", "swap_in", "probe"]),
        st.integers(1, 70),
        st.integers(0, 70),
    ),
    max_size=50,
)


def pieces_of(allocator, p):
    """The pieces the grant of p asks the store for, as the simulator
    grants them: a page table's frames, or the pieces its chunk cuts."""
    if allocator.paged:
        return (UNIT,) * paginate(p, UNIT).page_count
    return allocator.discipline.chunk.pieces(p, p.size)


def grant(allocator, m, p):
    d = allocator.discipline
    if allocator.paged:
        return build_page_table(paginate(p, UNIT), m)
    return segment_alloc(d, m, p)


def assert_store_refuses(store, pieces):
    """The store refuses the pieces and stays as it was."""
    before = store.free_extents()
    with pytest.raises(AllocationFailure):
        store.grant(pieces)
    assert store.free_extents() == before


def segmented(pid, size, cut):
    """A procedure of `size` units, declaring two segments when `cut`
    falls inside it."""
    return proc(pid, size=size, segments=(cut, size - cut) if 0 < cut < size else None)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(ALLOCATORS)), ops=OPS)
# a grant of exactly the free total, which the store grants
@example(name="first-fit", ops=[("grant", CAPACITY, 0)])
# more units than a partitioned store has, which it refuses whole
@example(name="paging", ops=[("grant", 40, 0), ("probe", 17, 0)])
@example(name="fixed", ops=[("probe", 17, 3)])
def test_a_refusal_leaves_every_store_as_it_was(name, ops):
    """The shortcut is sound: when the free total refuses a grant, a
    swap-out or a swap-in, the store refuses it too. A refused grant or
    release, of any pieces or extents, leaves the store as it was, and so
    does a select over the store."""
    allocator = ALLOCATORS[name](CONFIG)
    organize = allocator.discipline.organize
    m, backing = MemoryState.initial(CAPACITY, organize), MemoryState.initial(BACKING)
    procs, records = {}, []
    for pid, (op, n, k) in enumerate(ops, start=1):
        if op == "grant":
            p = segmented(pid, n, k if name == "segmentation" else 0)
            procs[pid] = p
            if m.exceeds(p.size):
                assert_store_refuses(m.store, pieces_of(allocator, p))
            else:
                try:
                    grant(allocator, m, p)
                except AllocationFailure:
                    pass
        elif op == "release" and m.allocated:
            deallocate(m, sorted(m.allocated)[n % len(m.allocated)])
        elif op == "swap_out" and m.allocated:
            victim = min((procs[pid] for pid in m.allocated), key=victim_key)
            if backing.exceeds(victim.size):
                assert_store_refuses(backing.store, (victim.size,))
            else:
                try:
                    records.append(swap_out(m, backing, victim))
                except AllocationFailure:
                    pass
        elif op == "swap_in" and records:
            record = records[n % len(records)]
            if m.exceeds(sum(record.pieces)):
                assert_store_refuses(m.store, record.pieces)
            else:
                try:
                    swap_in(m, backing, record)
                    records.remove(record)
                except AllocationFailure:
                    pass
        elif op == "probe":
            # n pieces of at most one unit each straight to the store, an
            # extent back, and a select of k units
            for store in (m.store, backing.store):
                before = store.free_extents()
                try:
                    granted = store.grant([1 + i % UNIT for i in range(n)])
                except AllocationFailure:
                    assert store.free_extents() == before
                else:
                    store.release(*granted)
                    assert store.free_extents() == before
                with pytest.raises(NotFoundError):
                    store.release(*m.allocated.get(min(m.allocated, default=0), ()),
                                  Extent(0, CAPACITY + 1))
                assert store.free_extents() == before
                try:
                    Select.first_fit()(store, k)
                except (AllocationFailure, ParameterError):
                    pass
                assert store.free_extents() == before
        m.check_invariants()
        backing.check_invariants()


def fresh_at_every_step(method):
    """`method` of a store run on a fresh copy of it, whose fields then
    become the store's, so that a grant or release that raises cannot
    change the store, whatever it does to its copy."""
    def step(store, *args):
        fresh = copy.deepcopy(store)
        result = method(fresh, *args)
        for field in dataclasses.fields(store):
            setattr(store, field.name, getattr(fresh, field.name))
        return result
    return step


WORKLOADS = st.lists(
    st.tuples(st.integers(1, 16), st.integers(1, 6), st.integers(0, 3),
              st.integers(0, 16)),
    min_size=1, max_size=12,
)


def cut_in_two(shapes):
    """A procedure for each (size, time, arrival, cut), of two segments
    split at cut when it lies inside the size."""
    return [proc(i, size=size, time=time, arrival=arrival, priority=i % 3,
                 segments=(cut, size - cut) if 0 < cut < size else None)
            for i, (size, time, arrival, cut) in enumerate(shapes, start=1)]


def of_segments(shapes):
    """A procedure for each (segments, time, arrival)."""
    return [proc(i, size=sum(segments), time=time, arrival=arrival, priority=i % 3,
                 segments=tuple(segments))
            for i, (segments, time, arrival) in enumerate(shapes, start=1)]


# (allocator, memory capacity, procedures): any allocator over the
# workloads above, or procedures of two or three segments each in tight
# first-fit or segmentation memory, where a segment grant is often refused
# after its first segment was placed
RUNS = st.one_of(
    st.tuples(st.sampled_from(sorted(ALLOCATORS)), st.just(32), WORKLOADS.map(cut_in_two)),
    st.tuples(st.sampled_from(["first-fit", "segmentation"]), st.integers(16, 32),
              st.lists(st.tuples(st.lists(st.integers(1, 6), min_size=2, max_size=3),
                                 st.integers(1, 6), st.integers(0, 6)),
                       min_size=2, max_size=12).map(of_segments)),
)


@settings(max_examples=40, deadline=None)
@given(case=RUNS, scheduler=st.sampled_from(["fcfs", "rr", "priority"]))
# segment grants refused after their first segment was placed, which the
# grant gives back: found by search, a run that differs when it does not
@example(case=("segmentation", 32, cut_in_two(
    [(8, 6, 3, 7), (2, 6, 2, 4), (7, 1, 2, 2), (3, 3, 2, 5), (14, 5, 2, 4), (1, 5, 0, 6)])),
    scheduler="priority")
def test_a_run_on_stores_changed_in_place_is_a_run_on_fresh_stores(case, scheduler):
    name, memory, ps = case
    cfg = SimConfig(memory_capacity=memory, backing_capacity=16, scheduler=scheduler,
                    allocator=name, unit_size=UNIT, page_size=UNIT, quantum=2)
    try:
        in_place, _ = run(ps, cfg, strict=False)
    except UnrunnableProcedureError:
        return
    with pytest.MonkeyPatch.context() as patch:
        for store in (FreeRuns, BuddyTree):
            for method in ("grant", "release"):
                patch.setattr(store, method, fresh_at_every_step(getattr(store, method)))
        fresh, _ = run(ps, cfg, strict=False)
    assert in_place.events == fresh.events


# -- fits ------------------------------------------------------------------


CHUNKS = st.one_of(
    st.just(Chunk.whole()), st.just(Chunk.segments()),
    st.integers(1, 9).map(Chunk.fixed),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda q: Chunk.by_class(sim.class_quantum(*q))),
)
ORGANIZES = st.one_of(
    st.just(Organize.identity()), st.just(Organize.buddy()),
    st.integers(1, 6).map(Organize.fixed_partition),
)


@settings(max_examples=400, deadline=None)
@given(organize=ORGANIZES, chunk=CHUNKS, log_capacity=st.integers(0, 6),
       segments=st.lists(st.integers(1, 20), min_size=1, max_size=4))
# a segment longer than the first, and past one unit or half the tree
@example(organize=Organize.fixed_partition(4), chunk=Chunk.segments(), log_capacity=4,
         segments=[1, 5])
@example(organize=Organize.buddy(), chunk=Chunk.segments(), log_capacity=4,
         segments=[1, 11])
def test_fits_holds_just_when_the_empty_store_grants(organize, chunk, log_capacity,
                                                    segments):
    """Over every organization and every chunk, a procedure fits just when
    the empty store of its memory grants the pieces its chunk cuts. The
    capacity is a power of two so that the buddy tree can take it."""
    p = proc(1, size=sum(segments), segments=tuple(segments), io_class=None)
    store = organize(1 << log_capacity)
    try:
        store.grant(chunk.pieces(p, p.size))
        granted = True
    except AllocationFailure:
        granted = False
    assert store.fits(chunk, p) == granted


@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
def test_segments_over_units_end_unrunnable_when_one_exceeds_a_unit(strict):
    """First fit over a fixed partition of 4, in declared segments: a
    procedure whose second segment exceeds a unit can never be resident,
    and the run says so before its first event; one whose segments each
    fit one unit runs, a unit a segment."""
    allocator = Allocator(
        compose(FIRST_FIT, Organize.fixed_partition(UNIT), Chunk.segments()), "frames")
    with pytest.raises(UnrunnableProcedureError, match="procedure 1 "):
        sim._Simulation([proc(1, size=6, segments=(1, 5))], sim.FCFS, allocator,
                        16, 16, strict).run()
    trace = sim._Simulation([proc(1, size=7, segments=(3, 4))], sim.FCFS, allocator,
                            16, 16, strict).run()
    (allocate,) = trace.of_kind(sim.Allocate)
    assert allocate.extents == (Extent(0, 4), Extent(4, 8))
