"""The simulator's ready set against its specification: the discipline
applied to the live members in (arrival, id) order, or, for a rotating
discipline, the earliest live join; and its swap candidates against the
candidate of least `victim_key`."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import proc
from osalg import SimConfig, sim
from osalg.allocators import victim_key
from osalg.combinators import Chunk, Organize, Select, SortKey, compose, order_key
from osalg.errors import CompositionError
from osalg.sim import FCFS, PRIORITY, SJF, ready_set

CHUNKED_SJF = compose(Select.identity(1), Organize.sort(SortKey.TIME), Chunk.fixed(2))
CHUNKED_PRIORITY = compose(Select.argmax_priority(), Organize.identity(), Chunk.fixed(2))
ROTATING = compose(Select.identity(1), Organize.identity(), Chunk.fixed(1))

ORDERED = {
    "fcfs": FCFS,
    "sjf-size": SJF[SortKey.SIZE],
    "sjf-time": SJF[SortKey.TIME],
    "priority": PRIORITY,
    "chunked sjf-time": CHUNKED_SJF,
    "chunked priority": CHUNKED_PRIORITY,
}

PROCS = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 8), st.integers(1, 9), st.integers(0, 4)
    ),
    min_size=1,
    max_size=12,
)
# (operation, a number that picks its operand)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "pop", "swap-out", "rejoin"]), st.integers(0, 99)
    ),
    max_size=40,
)


def members(ready):
    """The procedures in a ready set, in its own order of keeping."""
    return [p for _, p in ready.live.values()]


def arrival_order(procedures):
    return sorted(procedures, key=lambda p: (p.arrival, p.id))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ORDERED)), PROCS, OPS)
def test_every_pop_is_the_disciplines_pick(name, shapes, ops):
    discipline = ORDERED[name]
    unseen = [
        proc(i + 1, size=size, time=time, arrival=arrival, priority=priority)
        for i, (arrival, size, time, priority) in enumerate(shapes)
    ]
    ready = ready_set(discipline)
    live, out = {}, []  # out: popped or swapped out, free to rejoin
    for op, pick in ops:
        if op == "add" and unseen:
            p = unseen.pop(pick % len(unseen))
        elif op == "rejoin" and out:
            p = out.pop(pick % len(out))
        elif op == "pop" and live:
            expected = discipline.apply(arrival_order(live.values()))
            got = ready.pop()
            assert got is expected
            out.append(live.pop(got.id))
            p = None
        elif op == "swap-out" and live:
            pid = sorted(live)[pick % len(live)]
            ready.discard(pid)
            out.append(live.pop(pid))
            p = None
        else:
            continue
        if p is not None:
            ready.add(p)
            live[p.id] = p
        assert len(ready) == len(live)
        assert {p.id for p in members(ready)} == set(live)
    while live:  # stale keys left by swap-outs never surface
        expected = discipline.apply(arrival_order(live.values()))
        assert ready.pop() is expected
        del live[expected.id]
    assert not ready


def test_stale_keys_are_dropped_once_they_outnumber_the_members():
    ready = ready_set(FCFS)
    ps = [proc(i, arrival=i) for i in range(1, 101)]
    for p in ps:
        ready.add(p)
    for p in ps[:90]:
        ready.discard(p.id)
    assert len(ready.heap) <= 2 * len(ready) + 32
    ready.add(ps[0])  # rejoins after its stale key is gone
    assert [ready.pop().id for _ in range(11)] == [1, *range(91, 101)]


def test_a_rebuilt_rotation_keeps_join_order():
    """The heap is rebuilt from the keys the members joined with, so the
    rotation order, here the reverse of arrival order, survives it."""
    ready = ready_set(ROTATING)
    ps = [proc(i, arrival=100 - i) for i in range(1, 101)]
    for p in ps:
        ready.add(p)
    for p in ps[:90]:
        ready.discard(p.id)
    assert len(ready.heap) <= 2 * len(ready) + 32
    ready.add(ps[0])
    assert [ready.pop().id for _ in range(11)] == [*range(91, 101), 1]


def test_rotation_is_first_in_first_out():
    ready = ready_set(ROTATING)
    a, b, c = proc(1), proc(2), proc(3)
    for p in (c, a, b):
        ready.add(p)
    ready.discard(1)
    assert members(ready) == [c, b]
    assert ready.pop() is c
    ready.add(c)
    assert [ready.pop(), ready.pop()] == [b, c]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), OPS)
def test_every_rotating_pop_is_the_earliest_live_join(n, ops):
    """A rotating set against a model of its joins: a list in join order.
    A procedure that is swapped out and rejoins, or that rejoins after a
    pop, joins at the end, whatever it left behind in the set."""
    unseen = [proc(i, arrival=n - i) for i in range(1, n + 1)]
    ready = ready_set(ROTATING)
    joined, out = [], []  # joined: the live members, earliest join first
    for op, pick in ops:
        if op == "add" and unseen:
            p = unseen.pop(pick % len(unseen))
        elif op == "rejoin" and out:
            p = out.pop(pick % len(out))
        elif op == "pop" and joined:
            assert ready.pop() is joined[0]
            out.append(joined.pop(0))
            continue
        elif op == "swap-out" and joined:
            p = joined.pop(pick % len(joined))
            ready.discard(p.id)
            out.append(p)
            continue
        else:
            continue
        ready.add(p)
        joined.append(p)
        assert len(ready) == len(joined)
    while joined:
        assert ready.pop() is joined.pop(0)
    assert not ready


@pytest.mark.parametrize(
    "discipline",
    [
        compose(Select.identity(2), Organize.identity()),
        compose(Select.identity(2), Organize.sort(SortKey.TIME)),
        compose(Select.argmax_priority(), Organize.sort(SortKey.SIZE)),
    ],
)
def test_a_discipline_without_an_order_is_rejected(discipline):
    with pytest.raises(CompositionError):
        order_key(discipline)
    with pytest.raises(CompositionError):
        ready_set(discipline)


# (id, time, arrival, priority), each of size 2. Procedure 1 runs alone
# for its first chunk, then 2 and 3 come first by time and by priority
# alike, and 3, preempted, rejoins ahead of 1 by its declared key.
CHUNKED_PROCS = [proc(1, size=2, time=5, arrival=0, priority=1),
                 proc(2, size=2, time=2, arrival=1, priority=7),
                 proc(3, size=2, time=3, arrival=2, priority=3)]
CHUNKED_SLICES = [(1, 0, 2), (2, 2, 2), (3, 4, 2), (3, 6, 1), (1, 7, 2), (1, 9, 1)]


@pytest.mark.parametrize("discipline", [CHUNKED_SJF, CHUNKED_PRIORITY],
                         ids=["sjf-time", "priority"])
@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
def test_a_chunked_discipline_rejoins_by_its_declared_key(discipline, strict):
    """Chunked shortest job first and chunked priority preempt at chunk
    boundaries, and a preempted procedure rejoins by the key it declared,
    not by the time it has left."""
    trace = sim._Simulation(CHUNKED_PROCS, discipline, sim.FIRST_FIT_MEMORY, 6, 6,
                            strict).run()
    slices = [(e.pid, e.instant, e.run)
              for e in trace.of_kind(sim.Dispatch)]
    assert slices == CHUNKED_SLICES
    assert sim.dispatch_slices(CHUNKED_PROCS, discipline) == CHUNKED_SLICES


class WatchedSimulation(sim._Simulation):
    """A run that, after every event, compares the head of its swap
    candidates with the candidate of least `victim_key` among the ready
    members plus the procedure just preempted, which the events name: from
    its Preempt on, until it is seen among the ready members or its next
    Dispatch or SwapOut. `swaps` counts the swap-outs."""

    swaps = 0
    preempted = None

    def emit(self, event):
        super().emit(event)
        kind, pid = type(event), event.pid
        self.swaps += kind is sim.SwapOut
        candidates = members(self.ready)
        if self.preempted is not None and (
            self.preempted in candidates or (
                pid == self.preempted.id
                and kind in (sim.Dispatch, sim.SwapOut))):
            self.preempted = None
        if self.preempted is not None:
            candidates.append(self.preempted)
        expected = min(candidates, key=victim_key) if candidates else None
        assert self.candidates.head() is expected
        if kind is sim.Preempt:
            self.preempted = self.procedures[pid]


def watched_run(scheduler, shapes):
    members = [
        proc(i + 1, size=size, time=time, arrival=arrival, priority=priority)
        for i, (arrival, size, time, priority) in enumerate(shapes)
    ]
    cfg = SimConfig(scheduler=scheduler, quantum=2)
    simulation = WatchedSimulation(members, sim.SCHEDULERS[scheduler](cfg),
                                   sim.FIRST_FIT_MEMORY, 12, 16, strict=False)
    simulation.procedures = {p.id: p for p in members}
    simulation.run()
    return simulation


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["fcfs", "sjf-time", "priority", "rr", "var-quantum"]),
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 8), st.integers(1, 6),
                  st.integers(0, 3)),
        min_size=1,
        max_size=14,
    ),
)
def test_victim_heap_head_is_the_default_victim(scheduler, shapes):
    """Admits, dispatches, preemptions and swaps keep the head of the
    swap candidates equal to the least `victim_key` over the ready members
    plus the procedure just preempted."""
    watched_run(scheduler, shapes)


def test_watched_runs_do_swap():
    shapes = [(i % 3, 5 + i % 4, 3, i % 4) for i in range(10)]
    assert watched_run("rr", shapes).swaps > 0


@pytest.mark.parametrize("key", [order_key(SJF[SortKey.TIME]), victim_key],
                         ids=["ready set", "swap candidates"])
def test_a_rebuild_while_every_member_is_live_keeps_them_all(key):
    """Each rejoin leaves the key before it stale, so the heap outgrows
    2·live + 32 keys while every member stays live; the rebuild that the
    next discard makes keeps each member's key, and the members pop in
    their key order. Fails when the rebuild drops a live key."""
    ready = sim.OrderedReady(key)
    ps = [proc(i, size=i * 7 % 11, time=i * 5 % 9 + 1, priority=i % 4, arrival=i % 3)
          for i in range(1, 11)]
    for _ in range(8):
        for p in ps:
            ready.add(p)
    assert len(ready.heap) > 2 * len(ready) + 32
    ready.discard(0)  # no member has id 0: the discard only rebuilds
    assert len(ready.heap) == len(ready) == len(ps)
    assert [ready.pop() for _ in ps] == sorted(ps, key=key)
    assert not ready
