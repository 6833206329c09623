"""The simulator's ready set against its specification, the discipline
applied to the live members in (arrival, id) order, and its swap
candidates against the candidate of least `victim_key`."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import proc
from osalg import ArrivalStream, SimConfig, sim
from osalg.allocators import victim_key
from osalg.combinators import Organize, Select, SortKey, compose, order_key
from osalg.errors import CompositionError
from osalg.sim import FCFS, PRIORITY, SJF, Policy

ORDERED = {
    "fcfs": FCFS,
    "sjf-size": SJF[SortKey.SIZE],
    "sjf-time": SJF[SortKey.TIME],
    "priority": PRIORITY,
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
    if isinstance(ready, sim.RotatingReady):
        return list(ready.queue)
    return list(ready.live.values())


def arrival_order(procedures):
    return sorted(procedures, key=lambda p: (p.arrival, p.id))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ORDERED)), PROCS, OPS)
def test_every_pop_is_the_disciplines_pick(name, shapes, ops):
    policy = ORDERED[name]
    unseen = [
        proc(i + 1, size=size, time=time, arrival=arrival, priority=priority)
        for i, (arrival, size, time, priority) in enumerate(shapes)
    ]
    ready = policy.ready_set()
    live, out = {}, []  # out: popped or swapped out, free to rejoin
    for op, pick in ops:
        if op == "add" and unseen:
            p = unseen.pop(pick % len(unseen))
        elif op == "rejoin" and out:
            p = out.pop(pick % len(out))
        elif op == "pop" and live:
            expected = policy.discipline.apply(arrival_order(live.values()))
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
        expected = policy.discipline.apply(arrival_order(live.values()))
        assert ready.pop() is expected
        del live[expected.id]
    assert not ready


def test_stale_keys_are_dropped_once_they_outnumber_the_members():
    ready = FCFS.ready_set()
    ps = [proc(i, arrival=i) for i in range(1, 101)]
    for p in ps:
        ready.add(p)
    for p in ps[:90]:
        ready.discard(p.id)
    assert len(ready.heap) <= 2 * len(ready) + 32
    ready.add(ps[0])  # rejoins after its stale key is gone
    assert [ready.pop().id for _ in range(11)] == [1, *range(91, 101)]


def test_rotation_is_first_in_first_out():
    ready = Policy(quantum_of=lambda p: 1).ready_set()
    a, b, c = proc(1), proc(2), proc(3)
    for p in (c, a, b):
        ready.add(p)
    ready.discard(1)
    assert members(ready) == [c, b]
    assert ready.pop() is c
    ready.add(c)
    assert [ready.pop(), ready.pop()] == [b, c]


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
        Policy(discipline)



class WatchedSimulation(sim._Simulation):
    """A run that, after every event, compares the head of its swap
    candidates with the candidate of least `victim_key` among the ready
    members plus the holdover; `swaps` counts the swap-outs."""

    swaps = 0

    def emit(self, instant, kind, pid, detail=()):
        super().emit(instant, kind, pid, detail)
        self.swaps += kind is sim.EventKind.SWAP_OUT
        candidates = members(self.ready)
        if self.holdover is not None:
            candidates.append(self.holdover)
        expected = min(candidates, key=victim_key) if candidates else None
        assert self.candidates.head() is expected


def watched_run(scheduler, shapes):
    members = [
        proc(i + 1, size=size, time=time, arrival=arrival, priority=priority)
        for i, (arrival, size, time, priority) in enumerate(shapes)
    ]
    members.sort(key=lambda p: (p.arrival, p.id))
    cfg = SimConfig(memory_capacity=12, backing_capacity=16, scheduler=scheduler,
                    quantum=2)
    simulation = WatchedSimulation(ArrivalStream(members), cfg, strict=False)
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
    plus the holdover."""
    watched_run(scheduler, shapes)


def test_watched_runs_do_swap():
    shapes = [(i % 3, 5 + i % 4, 3, i % 4) for i in range(10)]
    assert watched_run("rr", shapes).swaps > 0
