"""CPU disciplines: correctness against hand values and the oracles."""

import random
from itertools import permutations

import pytest

from osalg import (
    SortKey,
    WorkClass,
    fcfs,
    priority_schedule,
    round_robin,
    sjf,
)
from osalg.schedulers import class_quantum, variable_quantum
from osalg.core import ArrivalStream
from osalg.errors import ParameterError

from conftest import proc, random_arrivals, random_batch
from oracle import brute_schedule, replay_rr


def ids_of(schedule):
    return [s.pid for s in schedule]


def assert_disjoint(schedule):
    """No CPU instant is assigned twice and time never rewinds."""
    clock = 0
    for s in schedule:
        assert s.start >= clock, f"slice for {s.pid} at {s.start} overlaps instant {clock - 1}"
        clock = s.end


class TestFcfs:
    def test_arrival_order(self):
        ps = [proc(3, time=2, arrival=0), proc(1, time=2, arrival=1),
              proc(2, time=2, arrival=2)]
        schedule = fcfs(ps)
        assert [(s.pid, s.start, s.end) for s in schedule] == [
            (3, 0, 2), (1, 2, 4), (2, 4, 6),
        ]

    def test_single(self):
        schedule = fcfs([proc(1, time=5)])
        assert [(s.pid, s.start, s.end) for s in schedule] == [(1, 0, 5)]

    def test_empty(self):
        assert len(fcfs([])) == 0

    def test_idle_gap_jumps_to_next_arrival(self):
        schedule = fcfs([proc(1, time=1, arrival=0), proc(2, time=1, arrival=5)])
        assert [(s.pid, s.start) for s in schedule] == [(1, 0), (2, 5)]
        assert_disjoint(schedule)


class TestSjf:
    def test_by_time(self):
        ps = [proc(1, time=3), proc(2, time=1), proc(3, time=2)]
        assert ids_of(sjf(ps, SortKey.TIME)) == [2, 3, 1]

    def test_by_size(self):
        ps = [proc(1, size=5), proc(2, size=2), proc(3, size=9)]
        assert ids_of(sjf(ps, "size")) == [2, 1, 3]

    def test_time_order_minimizes_total_wait(self):
        ps = [proc(1, time=3), proc(2, time=1), proc(3, time=2)]
        schedule = sjf(ps, SortKey.TIME)
        total_wait = sum(s.start for s in schedule)
        by_order = {}
        for order in permutations(ps):
            clock, total = 0, 0
            for p in order:
                total += clock
                clock += p.time
            by_order[tuple(q.id for q in order)] = total
        assert total_wait == min(by_order.values())

    def test_priority_key_rejected(self):
        with pytest.raises(ParameterError):
            sjf([proc(1)], SortKey.PRIORITY)


class TestPriority:
    def test_argmax_first(self):
        ps = [proc(1, priority=3), proc(2, priority=7), proc(3, priority=1)]
        assert ids_of(priority_schedule(ps))[0] == 2

    def test_tie_breaks_by_id(self):
        ps = [proc(2, priority=5), proc(1, priority=5)]
        assert ids_of(priority_schedule(ps)) == [1, 2]

    def test_missing_priority_rejected(self):
        with pytest.raises(ParameterError):
            priority_schedule([proc(1, priority=3), proc(2)])


class TestRoundRobin:
    def test_unit_quantum_interleaves(self):
        schedule = round_robin([proc(1, time=3), proc(2, time=2)], 1)
        assert ids_of(schedule) == [1, 2, 1, 2, 1]

    def test_single_member_chunks(self):
        schedule = round_robin([proc(1, time=4)], 2)
        assert [(s.pid, s.start, s.end) for s in schedule] == [(1, 0, 2), (1, 2, 4)]

    def test_remainder_chunk(self):
        schedule = round_robin([proc(1, time=3)], 2)
        assert [s.length for s in schedule] == [2, 1]

    def test_zero_quantum_rejected(self):
        with pytest.raises(ParameterError):
            round_robin([proc(1)], 0)

    def test_matches_replay_oracle_on_random_workloads(self):
        rng = random.Random(17)
        for _ in range(60):
            ps = random_arrivals(rng, rng.randint(1, 10), spread=12)
            q = rng.randint(1, 4)
            got = [(s.pid, s.start, s.length) for s in round_robin(ps, q)]
            assert got == list(replay_rr(ps, q))

    def test_fairness_bound_always_ready(self):
        """Completed-turn counts of unfinished members differ by <= 1."""
        rng = random.Random(23)
        for _ in range(40):
            ps = random_batch(rng, rng.randint(2, 8))
            q = rng.randint(1, 3)
            schedule = round_robin(ps, q)
            turns = {p.id: 0 for p in ps}
            done = {p.id: 0 for p in ps}
            for s in schedule:
                turns[s.pid] += 1
                done[s.pid] += s.length
                unfinished = [
                    p.id for p in ps if done[p.id] < p.time
                ]
                counts = [turns[pid] for pid in unfinished]
                if counts:
                    assert max(counts) - min(counts) <= 1


class TestVariableQuantum:
    def test_constant_classifier_equals_fixed(self):
        rng = random.Random(29)
        for _ in range(25):
            ps = random_arrivals(rng, rng.randint(1, 8), spread=8)
            q = rng.randint(1, 3)
            assert list(variable_quantum(ps, lambda p: q)) == list(round_robin(ps, q))

    def test_per_class_quanta(self):
        ps = [
            proc(1, time=2, io_class=WorkClass.IO_BOUND),
            proc(2, time=3, io_class=WorkClass.CPU_BOUND),
        ]
        schedule = variable_quantum(ps, class_quantum(io_quantum=1, cpu_quantum=3))
        assert [(s.pid, s.start, s.end) for s in schedule] == [
            (1, 0, 1), (2, 1, 4), (1, 4, 5),
        ]

    def test_empty(self):
        assert len(variable_quantum([], class_quantum())) == 0

    def test_zero_classifier_rejected(self):
        with pytest.raises(ParameterError):
            variable_quantum([proc(1)], lambda p: 0)

    def test_matches_replay_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            ps = random_arrivals(rng, rng.randint(1, 8), with_class=True)
            classifier = class_quantum(io_quantum=1, cpu_quantum=4)
            got = [(s.pid, s.start, s.length) for s in variable_quantum(ps, classifier)]
            assert got == list(replay_rr(ps, classifier))


class TestAdmit:
    def test_threshold_filter(self):
        ps = [proc(1, arrival=0), proc(2, arrival=5), proc(3, arrival=9)]
        ready = ArrivalStream(iter(ps)).take_until(5)
        assert [p.id for p in ready] == [1, 2]

    def test_idle_when_nothing_arrived(self):
        ready = ArrivalStream([proc(1, arrival=3)]).take_until(0)
        assert len(ready) == 0

    def test_incremental_pulls(self):
        stream = ArrivalStream([proc(1, arrival=0), proc(2, arrival=5)])
        assert [p.id for p in stream.take_until(0)] == [1]
        assert [p.id for p in stream.take_until(5)] == [2]
        assert stream.peek() is None


class TestNonReusability:
    def test_slices_disjoint_and_gap_free_when_saturated(self):
        rng = random.Random(37)
        for make in (
            lambda ps: fcfs(ps),
            lambda ps: sjf(ps, SortKey.TIME),
            lambda ps: round_robin(ps, 2),
        ):
            ps = random_batch(rng, 8)
            schedule = make(ps)
            assert_disjoint(schedule)
            # batch arrivals at 0: no idle gap anywhere
            clock = 0
            for s in schedule:
                assert s.start == clock
                clock = s.end

    def test_work_conservation(self):
        rng = random.Random(41)
        ps = random_arrivals(rng, 12, spread=15)
        for schedule in (fcfs(ps), sjf(ps, "size"), round_robin(ps, 3)):
            for p in ps:
                assert sum(s.length for s in schedule if s.pid == p.id) == p.time


class TestAgainstEnumeration:
    def test_sjf_time_optimal_for_batches(self):
        rng = random.Random(43)
        for _ in range(40):
            ps = random_batch(rng, rng.randint(1, 8))
            schedule = sjf(ps, SortKey.TIME)
            total_wait = sum(
                schedule.completion(p.id) - p.time for p in ps
            )
            assert total_wait == brute_schedule(ps).cost


class TestCombinatorIdentity:
    def test_orderings_equal_reference_sorts(self):
        rng = random.Random(47)
        for _ in range(30):
            ps = random_batch(rng, rng.randint(1, 100), with_priority=True)
            members = list(ps)
            assert ids_of(fcfs(ps)) == [
                p.id for p in sorted(members, key=lambda p: (p.arrival, p.id))
            ]
            assert ids_of(sjf(ps, "size")) == [
                p.id for p in sorted(members, key=lambda p: (p.size, p.id))
            ]
            assert ids_of(sjf(ps, "time")) == [
                p.id for p in sorted(members, key=lambda p: (p.time, p.id))
            ]
            assert ids_of(priority_schedule(ps)) == [
                p.id for p in sorted(members, key=lambda p: (-p.priority, p.id))
            ]
