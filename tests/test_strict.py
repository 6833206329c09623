"""Strict mode's check of each memory change, against mutated simulators.

Each test breaks one thing in an otherwise working run and expects a
strict run to stop with an ``InvariantViolation`` that names the broken
invariant and the event where the breach happened: its (instant, kind,
pid), as the rendered trace shows it, and its index in emission order,
the order the simulator makes events before the trace sorts the events
of each instant by kind. A lax run with the same fault records the
emitted events, so the expected event never comes from the checker under
test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from osalg import Extent, SimConfig, allocators, run, sim, strict
from osalg.allocators import MemoryState
from osalg.cli import EXIT_WORKLOAD, main, render_trace
from osalg.errors import InvariantViolation, NotFoundError, ParameterError
from osalg.sim import (
    Admit, Allocate, Complete, Deallocate, Dispatch, SwapIn, SwapOut, TraceEvent,
)

from conftest import proc

REPO = Path(__file__).resolve().parents[1]

# allocator -> SimConfig keywords
ALLOCATORS = {
    "first-fit": {},
    "fixed": {"unit_size": 4},
    "buddy": {},
    "paging": {"page_size": 4},
    "segmentation": {},
}

# pid 1 completes at 2 and pid 2 arrives at 5, both of 4 units in 16
TWO = [proc(1, size=4, time=2), proc(2, size=4, time=1, arrival=5)]


def record_emissions(monkeypatch) -> list[tuple[int, type[TraceEvent], int]]:
    """(instant, kind, pid) of every event the simulator emits, in emission
    order, from now on."""
    order: list[tuple[int, type[TraceEvent], int]] = []
    real_emit = sim._Simulation.emit

    def recording(self, event):
        order.append((event.instant, type(event), event.pid))
        real_emit(self, event)

    monkeypatch.setattr(sim._Simulation, "emit", recording)
    return order


def index_of(order, kind, pid):
    """The emission index of the first event of this kind for pid."""
    return next(i for i, (_, k, p) in enumerate(order) if (k, p) == (kind, pid))


def assert_found_at(found, order, kind, pid):
    """`found` names the first emitted event of this kind for pid, by its
    index and by its (instant, kind, pid)."""
    i = index_of(order, kind, pid)
    instant = order[i][0]
    assert found.event == i
    assert found.at == (instant, kind.__name__, pid)
    assert (f"at event {i} ({kind.__name__} of procedure {pid} at instant {instant}):"
            in str(found))


def violation(workload, cfg) -> InvariantViolation:
    with pytest.raises(InvariantViolation) as caught:
        run(workload, cfg, strict=True)
    return caught.value


def delta_violation(workload, cfg) -> InvariantViolation:
    """The violation of a strict run, found by a delta check rather than
    by a full check that happened to run at the same event."""
    found = violation(workload, cfg)
    assert "full check" not in str(found)
    return found


def lax_emissions(monkeypatch, workload, cfg):
    """The emission order of a lax run of the workload, which completes."""
    return lax_run(monkeypatch, workload, cfg)[0]


def lax_run(monkeypatch, workload, cfg):
    """The emitted events and the rendered trace of a lax run of the
    workload, which completes."""
    order = record_emissions(monkeypatch)
    trace, _ = run(workload, cfg, strict=False)
    assert len(trace.of_kind(Complete)) == len(workload)
    emitted = list(order)
    order.clear()
    return emitted, render_trace(trace)


# -- each delta check bites, at the event of the breach -------------------


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_a_skipped_release_is_caught_at_its_deallocate(monkeypatch, allocator):
    """A release that changes nothing leaves a consistent memory that
    only the delta sees is wrong: procedure 1 still holds its extents."""
    real_deallocate = sim.deallocate

    def skipping(m, pid):
        return m.extents_of(pid) if pid == 1 else real_deallocate(m, pid)

    monkeypatch.setattr(sim, "deallocate", skipping)
    cfg = SimConfig(memory_capacity=16, allocator=allocator, **ALLOCATORS[allocator])
    order = lax_emissions(monkeypatch, TWO, cfg)
    found = delta_violation(TWO, cfg)
    assert found.invariant == "conservation"
    assert_found_at(found, order, Deallocate, 1)
    assert "not free in the store" in str(found)


@pytest.mark.parametrize("shift, invariant, words", [
    (1, "conservation", "gap before [5..9)"),
    (-1, "disjointness", "[3..7) overlaps"),
])
def test_a_grant_shifted_by_one_unit_is_caught_at_its_admit(
    monkeypatch, shift, invariant, words
):
    """The memory records procedure 2 one unit off the extent its store
    gave: the full check, run at once, reports it in its own words. The
    strict run stops there, before the release the store would refuse, so
    the lax run that gives the emission order runs without the fault."""
    real_allocate = sim.allocate_op

    def shifted(d, m, p):
        granted = real_allocate(d, m, p)
        if p.id == 2:
            (e,) = granted
            m.allocated[2] = (Extent(e.start + shift, e.end + shift),)
        return granted

    ps = [proc(1, size=4, time=3), proc(2, size=4, time=1)]
    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, ps, cfg)
    monkeypatch.setattr(sim, "allocate_op", shifted)
    found = delta_violation(ps, cfg)
    assert found.invariant == invariant
    assert_found_at(found, order, Admit, 2)
    assert words in str(found)


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_a_free_counted_twice_is_caught_at_its_deallocate(monkeypatch, allocator):
    """Procedure 1's release adds its size to the free total twice."""
    real_deallocate = sim.deallocate

    def doubled(m, pid):
        freed = real_deallocate(m, pid)
        if pid == 1:
            m.free_total += sum(e.size for e in freed)
        return freed

    monkeypatch.setattr(sim, "deallocate", doubled)
    cfg = SimConfig(memory_capacity=16, allocator=allocator, **ALLOCATORS[allocator])
    order = lax_emissions(monkeypatch, TWO, cfg)
    found = delta_violation(TWO, cfg)
    assert found.invariant == "free-total"
    assert_found_at(found, order, Deallocate, 1)
    assert "carried free total 20, free list holds 16" in str(found)


def test_extents_rewritten_before_their_release_are_caught_at_its_deallocate(
    monkeypatch,
):
    """Procedure 1's extents change in the memory between its grant and
    its release, and the release writes them among the free runs itself,
    where the store would refuse them: it frees what was never granted."""
    real_deallocate = sim.deallocate

    def rewriting(m, pid):
        if pid != 1:
            return real_deallocate(m, pid)
        m.allocated[1] = (Extent(1, 5),)
        freed = m.allocated.pop(1)
        m.store = with_free(m.store, [*freed, *m.store.free_extents()])
        m.free_total += 4
        return freed

    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, TWO, cfg)
    monkeypatch.setattr(sim, "deallocate", rewriting)
    found = delta_violation(TWO, cfg)
    assert_found_at(found, order, Deallocate, 1)
    assert found.invariant == "conservation"
    assert "gap before [1..5)" in str(found)


def test_a_swap_in_to_the_wrong_place_is_caught_at_its_swap_in(monkeypatch):
    """A swap-in whose grant reports extents the store did not give. The
    strict run stops at the SwapIn, before the release the store would
    refuse, so the lax run runs without the fault."""
    real_swap_in = sim.swap_in

    def misplaced(m, backing, record):
        granted = real_swap_in(m, backing, record)
        moved = tuple(Extent(e.start + 1, e.end + 1) for e in granted)
        m.allocated[record.pid] = moved
        return moved

    ps = [proc(1, size=8, time=4, priority=5), proc(2, size=8, time=1, priority=1),
          proc(3, size=8, time=1, arrival=1, priority=9)]
    cfg = SimConfig(memory_capacity=16, scheduler="priority")
    order, rendered = lax_run(monkeypatch, ps, cfg)
    monkeypatch.setattr(sim, "swap_in", misplaced)
    (swapped,) = {pid for _, kind, pid in order if kind is SwapIn}
    found = delta_violation(ps, cfg)
    assert_found_at(found, order, SwapIn, swapped)
    assert found.invariant == "conservation"
    assert "gap before [1..9)" in str(found)
    # the rendered trace orders this run's events otherwise than the
    # simulator emits them, but `at` still names the line
    rendered_order = [tuple(line.split(",")[:3]) for line in rendered.splitlines()[1:]]
    emitted_order = [(str(t), k.__name__, str(p)) for t, k, p in order]
    assert rendered_order != emitted_order
    assert tuple(map(str, found.at)) in rendered_order


def test_a_corrupted_release_is_a_disjointness_breach_at_its_deallocate(
    monkeypatch,
):
    """The release test_sim's corrupted run makes: the freed extent stays
    allocated too."""
    real_deallocate = sim.deallocate

    def leaky(m, pid):
        freed = real_deallocate(m, pid)
        m.allocated[pid] = freed
        return freed

    monkeypatch.setattr(sim, "deallocate", leaky)
    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, TWO, cfg)
    found = delta_violation(TWO, cfg)
    assert found.invariant == "disjointness"
    assert_found_at(found, order, Deallocate, 1)
    assert "overlaps a previous one" in str(found)
    assert "primary memory, release of [0..4) for procedure 1" in str(found)


def test_a_corrupted_grant_is_a_disjointness_breach_at_its_admit(monkeypatch):
    """The grant test_sim's corrupted run makes: its extents are recorded
    under a second id as well."""
    real_allocate = sim.allocate_op

    def doubled(d, m, p):
        granted = real_allocate(d, m, p)
        m.allocated[-p.id] = granted
        return granted

    monkeypatch.setattr(sim, "allocate_op", doubled)
    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, TWO, cfg)
    found = delta_violation(TWO, cfg)
    assert found.invariant == "disjointness"
    assert_found_at(found, order, Admit, 1)
    assert "overlaps a previous one" in str(found)


# pid 1 completes at 2 while pid 2, granted the 4 units after it, waits
SIDE_BY_SIDE = [proc(1, size=4, time=2), proc(2, size=4, time=3)]


def with_free(store, extents):
    """The free store with its free extents replaced, whatever its kind."""
    field = "runs" if hasattr(store, "runs") else "free_leaves"
    return replace(store, **{field: list(extents)})


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_a_grant_that_leaks_a_unit_is_caught_at_its_admit(monkeypatch, allocator):
    """The store's grant to procedure 2 also drops the free unit just
    after it, one unit off in the split: the units and every holder add
    up, but unit 8 is neither occupied nor free."""
    real_grant = allocators._grant

    def leaking(m, pid, pieces):
        granted = real_grant(m, pid, pieces)
        if pid == 2:
            end = granted[-1].end
            m.store = with_free(m.store, [Extent(f.start + 1, f.end) if f.start == end
                                          else f for f in m.store.free_extents()])
        return granted

    monkeypatch.setattr(allocators, "_grant", leaking)
    cfg = SimConfig(memory_capacity=16, allocator=allocator, **ALLOCATORS[allocator])
    order = lax_emissions(monkeypatch, SIDE_BY_SIDE, cfg)
    found = delta_violation(SIDE_BY_SIDE, cfg)
    assert found.invariant == "conservation"
    assert_found_at(found, order, Admit, 2)
    assert "gap before [9..16)" in str(found)


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_a_release_merged_over_a_neighbour_is_caught_at_its_deallocate(
    monkeypatch, allocator
):
    """The store merges procedure 1's freed [0..4) over procedure 2's
    [4..8): the freed extent is free, the holders and the carried free
    total agree, but a free extent overlaps an occupied one. A lax run
    goes on to procedure 2's release, which every store refuses, as its
    extent lies inside the free [0..8)."""
    real_deallocate = sim.deallocate

    def merging(m, pid):
        freed = real_deallocate(m, pid)
        if pid == 1:
            m.store = with_free(m.store, [Extent(0, 8) if f.start == 0 else f
                                          for f in m.store.free_extents()])
        return freed

    monkeypatch.setattr(sim, "deallocate", merging)
    cfg = SimConfig(memory_capacity=16, allocator=allocator, **ALLOCATORS[allocator])
    order = record_emissions(monkeypatch)
    with pytest.raises(NotFoundError, match=r"no allocated \w+ \[4\.\.8\)"):
        run(SIDE_BY_SIDE, cfg, strict=False)
    order = list(order)
    assert order[-1][1:] == (Complete, 2)
    found = delta_violation(SIDE_BY_SIDE, cfg)
    assert found.invariant == "disjointness"
    assert_found_at(found, order, Deallocate, 1)
    assert "[4..8) overlaps a previous one" in str(found)


# a swap: procedure 3 arrives at 1, outranks 1 and 2 in 16 units, and
# procedure 2 is swapped out for it, then swapped back in
SWAP = [proc(1, size=8, time=4, priority=5), proc(2, size=8, time=1, priority=1),
        proc(3, size=8, time=1, arrival=1, priority=9)]


def test_a_second_admit_of_a_held_procedure_is_caught_at_it(monkeypatch):
    """The simulator emits procedure 1's Admit twice, so the record is
    asked to grant to a procedure it already holds."""
    real_emit = sim._Simulation.emit

    def doubled(self, event):
        real_emit(self, event)
        if type(event) is Admit and event.pid == 1:
            real_emit(self, event)

    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, TWO, cfg)
    monkeypatch.setattr(sim._Simulation, "emit", doubled)
    found = delta_violation(TWO, cfg)
    assert found.invariant == "conservation"
    assert found.event == index_of(order, Admit, 1) + 1
    assert found.at == (0, "Admit", 1)
    assert "procedure 1 already holds [0..4)" in str(found)


@pytest.mark.parametrize("allocator, moved, invariant, words", [
    ("first-fit", lambda e: Extent(16, 16 + e.size), "conservation",
     "extent [16..24) beyond the 16 units of the memory"),
    ("paging", lambda e: Extent(e.start + 1, e.end + 1), "store-shape",
     "is not whole units of 4"),
], ids=["past-the-memory", "off-the-frames"])
def test_a_swap_in_that_misreports_its_grant_is_caught_at_its_swap_in(
    monkeypatch, allocator, moved, invariant, words
):
    """The swap-in grants what its store gives, but its SwapIn reports
    other extents: past the end of the memory, or off the frames of a
    paged memory. The memory itself stays consistent, so the delta
    reports the breach in its own words."""
    real_swap_in = sim.swap_in
    monkeypatch.setattr(sim, "swap_in", lambda m, backing, record: tuple(
        map(moved, real_swap_in(m, backing, record))))
    cfg = SimConfig(memory_capacity=16, scheduler="priority", allocator=allocator,
                    **ALLOCATORS[allocator])
    order = lax_emissions(monkeypatch, SWAP, cfg)
    found = delta_violation(SWAP, cfg)
    assert found.invariant == invariant
    assert_found_at(found, order, SwapIn, 2)
    assert words in str(found)


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_an_allocate_that_drops_an_extent_is_caught_at_it(monkeypatch, allocator):
    """Procedure 2's Allocate line leaves out the last extent of its
    grant, so it lists less than its Admit granted. The memory stays
    consistent, so the delta reports the breach in its own words."""
    real_emit = sim._Simulation.emit

    def dropping(self, event):
        if type(event) is Allocate and event.pid == 2:
            event = event._replace(extents=event.extents[:-1])
        real_emit(self, event)

    ps = [proc(1, size=4, time=2), proc(2, size=4, time=1, segments=(1, 3))]
    cfg = SimConfig(memory_capacity=16, allocator=allocator, **ALLOCATORS[allocator])
    monkeypatch.setattr(sim._Simulation, "emit", dropping)
    order = lax_emissions(monkeypatch, ps, cfg)
    found = delta_violation(ps, cfg)
    assert found.invariant == "conservation"
    assert_found_at(found, order, Allocate, 2)
    assert "procedure 2 was granted [" in str(found)


def test_a_grant_recorded_a_unit_short_is_caught_at_its_admit(monkeypatch):
    """The memory records procedure 2 in [5..8), one unit short of the
    [4..8) its store gave, and carries that unit as free: the totals
    agree with the record, but unit 4, just before the grant, is neither
    occupied nor free."""
    real_allocate = sim.allocate_op

    def short(d, m, p):
        granted = real_allocate(d, m, p)
        if p.id == 2:
            m.allocated[2] = (Extent(5, 8),)
            m.free_total += 1
        return granted

    monkeypatch.setattr(sim, "allocate_op", short)
    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, SIDE_BY_SIDE, cfg)
    found = delta_violation(SIDE_BY_SIDE, cfg)
    assert found.invariant == "conservation"
    assert_found_at(found, order, Admit, 2)
    assert "gap before [5..8)" in str(found)


@pytest.mark.parametrize("free, words", [
    # the free extent around the release runs past the memory
    ([Extent(0, 20), Extent(20, 24)], "extent [0..20) beyond capacity 16"),
    # unit 0, before the free extent, drops out of the store
    ([Extent(1, 16)], "gap before [1..16)"),
    # unit 15, after the free extent, drops out of the store
    ([Extent(0, 15)], "covered 15 of 16 units"),
], ids=["past-the-memory", "unit-before", "unit-after"])
def test_a_last_release_that_misshapes_the_store_is_caught_at_its_deallocate(
    monkeypatch, free, words
):
    """Procedure 2's release, the last, leaves the store's free extents
    other than the whole memory, though the free total stays 16: the
    delta finds the free extent around the release past the memory, or
    a unit beside it neither occupied nor free, and the full check that
    it runs at once reports the breach in its words."""
    real_deallocate = sim.deallocate

    def misshaping(m, pid):
        freed = real_deallocate(m, pid)
        if pid == 2:
            m.store = with_free(m.store, free)
        return freed

    monkeypatch.setattr(sim, "deallocate", misshaping)
    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, SIDE_BY_SIDE, cfg)
    found = delta_violation(SIDE_BY_SIDE, cfg)
    assert found.invariant == "conservation"
    assert_found_at(found, order, Deallocate, 2)
    assert words in str(found)


# -- each dispatch check bites, at the dispatch ----------------------------


def test_a_dispatch_that_overstates_its_slice_is_a_cpu_time_breach(monkeypatch):
    """Procedure 1's Dispatch claims one instant more than it runs, so the
    next Dispatch, at the end of the real slice, starts on a CPU instant
    already assigned."""
    real_emit = sim._Simulation.emit

    def overstating(self, event):
        if type(event) is Dispatch and event.pid == 1:
            event = event._replace(run=event.run + 1)
        real_emit(self, event)

    cfg = SimConfig(memory_capacity=16)
    monkeypatch.setattr(sim._Simulation, "emit", overstating)
    order = lax_emissions(monkeypatch, SIDE_BY_SIDE, cfg)
    found = violation(SIDE_BY_SIDE, cfg)
    assert found.invariant == "cpu-time"
    assert_found_at(found, order, Dispatch, 2)
    assert "CPU instant 2 would be assigned twice" in str(found)


def test_a_swapped_out_procedure_left_ready_is_a_residency_breach(monkeypatch):
    """Round robin's ready set keeps procedure 2 when it is swapped out
    for procedure 3, so 2 is dispatched while it is not resident."""
    real_ready_set = sim.ready_set

    def leaky_ready_set(discipline):
        ready = real_ready_set(discipline)
        ready.discard = lambda pid: None
        return ready

    monkeypatch.setattr(sim, "ready_set", leaky_ready_set)
    ps = [proc(1, size=8, time=3, priority=5), proc(2, size=8, time=3, priority=1),
          proc(3, size=8, time=1, arrival=1, priority=9)]
    cfg = SimConfig(memory_capacity=16, scheduler="rr")
    # a lax run dispatches 2 between its SwapOut and its SwapIn; the
    # SwapIn's rejoin replaces the entry left behind, so the run completes
    order = lax_emissions(monkeypatch, ps, cfg)
    dispatched = index_of(order, Dispatch, 2)
    assert (index_of(order, SwapOut, 2) < dispatched
            < index_of(order, SwapIn, 2))
    found = violation(ps, cfg)
    assert found.invariant == "residency"
    assert_found_at(found, order, Dispatch, 2)
    assert "dispatch of non-resident procedure 2" in str(found)


def broken(allocated=None, runs=None, free_total=16):
    """An empty first-fit memory of 16 units with the fields given changed."""
    m = MemoryState.initial(16)
    m.allocated.update(allocated or {})
    if runs is not None:
        m.store = replace(m.store, runs=runs)
    m.free_total = free_total
    return m


def broken_states():
    """(state, invariant, words): one state for each message of the full
    check."""
    return [
        (broken(allocated={1: (Extent(0, 4),)}), "disjointness", "overlaps"),
        (broken(runs=(Extent(2, 16),), free_total=14), "conservation", "gap before"),
        (broken(allocated={1: (Extent(16, 20),)}), "conservation", "beyond capacity"),
        (broken(runs=(Extent(0, 8),), free_total=8), "conservation", "conservation broken"),
        (broken(free_total=15), "free-total", "carried free total"),
        (broken(runs=(Extent(0, 8), Extent(8, 16))), "store-shape", "not maximal"),
    ]


@pytest.mark.parametrize("state, invariant, words", broken_states())
def test_the_full_check_names_the_invariant_it_finds_broken(state, invariant, words):
    with pytest.raises(InvariantViolation, match=words) as caught:
        state.check_invariants()
    assert caught.value.invariant == invariant
    assert caught.value.event is None and caught.value.at is None


# -- the store's own shape waits for a full check --------------------------


def split_a_free_run(m):
    """Cut the memory's last free run of two units or more in two: the
    units, the totals and every holder stay as they were."""
    runs = list(m.store.runs)
    for i in reversed(range(len(runs))):
        e = runs[i]
        if e.size >= 2:
            mid = e.start + e.size // 2
            runs[i:i + 1] = [Extent(e.start, mid), Extent(mid, e.end)]
            m.store = replace(m.store, runs=runs)
            return True
    return False


def test_a_store_shape_breach_waits_for_the_next_full_check(monkeypatch):
    """A free run split in two, away from any change, is no delta's
    business: the next full check finds it, and names the last event at
    which the memory was found clean."""
    ps = [proc(i, size=2, time=2, arrival=i) for i in range(1, 9)]
    cfg = SimConfig(memory_capacity=64)
    real_deallocate = sim.deallocate

    def splitting(m, pid):
        freed = real_deallocate(m, pid)
        if pid == 2:
            assert split_a_free_run(m)
        return freed

    monkeypatch.setattr(sim, "deallocate", splitting)
    order = lax_emissions(monkeypatch, ps, cfg)
    broken_at = index_of(order, Deallocate, 2)
    found = violation(ps, cfg)
    assert found.invariant == "store-shape"
    assert "not maximal" in str(found) and "found by a full check" in str(found)
    assert broken_at <= found.event < len(order)  # before the run's end
    instant, kind, pid = order[found.event]
    assert found.at == (instant, kind.__name__, pid)
    assert found.last_clean is not None and found.last_clean < broken_at
    instant, kind, pid = order[found.last_clean]
    assert (f"last found clean at event {found.last_clean} "
            f"({kind.__name__} of procedure {pid} at instant {instant}):") in str(found)


def test_a_store_shape_breach_made_while_memory_fills_waits_no_longer_than_the_fill(
    monkeypatch,
):
    """40 grants fill the memory before anything is released. A free run
    split at the 5th grant is found by the full check at the 8th, where
    the holders have doubled since the last full check at the 4th, not at
    the first Deallocate."""
    ps = [proc(i, size=4, time=1) for i in range(1, 41)]
    cfg = SimConfig(memory_capacity=256)
    real_allocate = sim.allocate_op

    def splitting(d, m, p):
        granted = real_allocate(d, m, p)
        if p.id == 5:
            assert split_a_free_run(m)
        return granted

    monkeypatch.setattr(sim, "allocate_op", splitting)
    order = lax_emissions(monkeypatch, ps, cfg)
    assert index_of(order, Admit, 40) < index_of(order, Deallocate, 1)
    found = violation(ps, cfg)
    assert found.invariant == "store-shape" and "not maximal" in str(found)
    eighth, fourth = index_of(order, Admit, 8), index_of(order, Admit, 4)
    assert (found.event, found.at, found.last_clean) == (eighth, (0, "Admit", 8), fourth)
    assert (f"broken at event {eighth} (Admit of procedure 8 at instant 0), "
            f"found by a full check, last found clean at event {fourth} ") in str(found)


def test_a_store_shape_breach_after_the_last_change_is_caught_at_the_end(
    monkeypatch,
):
    """The end of the run fully checks both memories, so a breach after
    the last change is still found, at the index past the last event."""
    real_emit = sim._Simulation.emit

    def splitting_at_the_end(self, event):
        real_emit(self, event)
        if type(event) is Deallocate and not self.primary.allocated:
            assert split_a_free_run(self.primary)

    ps = [proc(1, size=4, time=2)]
    cfg = SimConfig(memory_capacity=16)
    order = lax_emissions(monkeypatch, ps, cfg)
    monkeypatch.setattr(sim._Simulation, "emit", splitting_at_the_end)
    found = violation(ps, cfg)
    assert found.invariant == "store-shape"
    assert found.event == len(order) and found.at is None
    assert f"broken at the end of the run (event {len(order)})" in str(found)
    # the release emptied the memory, so its full check ran at once
    assert found.last_clean == index_of(order, Deallocate, 1)
    assert "last found clean at event 5 (Deallocate of procedure 1 at instant 2)" in str(found)


# -- what strict mode costs, and what it reports ---------------------------


def test_full_checks_are_spread_over_the_changes(monkeypatch):
    """40 procedures resident at once make 80 changes. A full check runs
    once the changes since the last reach the holders that one found (at
    least one): while memory fills, each time the holders double; then
    once 8 grants and 24 releases have left 16, at the last release, and
    on both memories at the end. That is 10 checks, not one per event."""
    calls = []
    real_check = MemoryState.check_invariants

    def counted(state):
        calls.append(len(state.allocated))
        return real_check(state)

    monkeypatch.setattr(MemoryState, "check_invariants", counted)
    ps = [proc(i, size=4, time=1) for i in range(1, 41)]
    trace, _ = run(ps, SimConfig(memory_capacity=256), strict=True)
    assert len(trace) == 6 * 40
    assert calls == [1, 2, 4, 8, 16, 32, 16, 0, 0, 0]


def test_a_clean_strict_run_checks_every_memory_at_the_end(monkeypatch):
    checked = []
    real_full = strict.MemoryCheck.full

    def counted(check, change=None):
        checked.append(check.name)
        return real_full(check, change)

    monkeypatch.setattr(strict.MemoryCheck, "full", counted)
    run(TWO, SimConfig(memory_capacity=16), strict=True)
    assert checked[-2:] == ["primary", "backing"]


def test_lax_runs_keep_no_record(monkeypatch):
    made = []
    real_check = strict.MemoryCheck

    def recorded(*args):
        made.append(args[0])
        return real_check(*args)

    monkeypatch.setattr(strict, "MemoryCheck", recorded)
    run(TWO, SimConfig(memory_capacity=16), strict=False)
    assert made == []
    run(TWO, SimConfig(memory_capacity=16), strict=True)
    assert made == ["primary", "backing"]


def test_importing_the_cli_leaves_the_strict_module_unloaded():
    """Lax runs, the default, never load strict mode's module."""
    code = ("import sys, osalg.cli; "
            "sys.exit('osalg.strict' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert done.returncode == 0


def test_a_violation_is_a_parameter_error_with_the_workload_exit_code(
    monkeypatch, tmp_path, capsys
):
    real_deallocate = sim.deallocate
    monkeypatch.setattr(
        sim, "deallocate",
        lambda m, pid: m.extents_of(pid) if pid == 1 else real_deallocate(m, pid),
    )
    assert issubclass(InvariantViolation, ParameterError)
    path = tmp_path / "w.txt"
    path.write_text("id=1 size=4 time=2\nid=2 size=4 time=1 arrival=5\n")
    monkeypatch.setenv("OSALG_STRICT", "1")
    code = main(["run", "--workload", str(path), "--scheduler", "fcfs",
                 "--allocator", "first-fit", "--memory", "16"])
    err = capsys.readouterr().err
    assert code == EXIT_WORKLOAD
    assert err.startswith("error: conservation broken at event ")
    assert "Traceback" not in err
