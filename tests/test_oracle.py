"""The reference implementations themselves, pinned before anything else."""

import pytest

from osalg.errors import AllocationFailure, NotFoundError, ParameterError
from osalg.oracle import ReferenceBuddy, brute_schedule, reference_buddy, replay_rr

from conftest import proc


class TestBruteSchedule:
    def test_three_jobs_minimum_total_wait(self):
        jobs = [proc(1, time=3), proc(2, time=1), proc(3, time=2)]
        best = brute_schedule(jobs)
        assert best.order == (2, 3, 1)
        assert best.cost == 4  # waits 0, 1, 3

    def test_single_job(self):
        best = brute_schedule([proc(1, time=5)])
        assert best.order == (1,)
        assert best.cost == 0

    def test_equal_times_tie_to_smaller_ids(self):
        best = brute_schedule([proc(2, time=3), proc(1, time=3)])
        assert best.order == (1, 2)

    def test_enumeration_cap(self):
        jobs = [proc(i, time=1) for i in range(1, 10)]
        with pytest.raises(ParameterError):
            brute_schedule(jobs)

    def test_exhaustive_agreement_with_manual_check(self):
        # all six orders of times [3, 1, 2], checked by hand replay
        jobs = {1: 3, 2: 1, 3: 2}
        costs = {}
        from itertools import permutations

        for order in permutations(jobs):
            clock, total = 0, 0
            for pid in order:
                total += clock
                clock += jobs[pid]
            costs[order] = total
        best = brute_schedule([proc(i, time=t) for i, t in jobs.items()])
        assert best.cost == min(costs.values())


class TestReferenceBuddy:
    def test_first_two_allocations(self):
        b = reference_buddy(16, [("alloc", "a", 3), ("alloc", "b", 4)])
        starts_ends = {k: (s, s + n) for k, (s, n) in b.placements.items()}
        assert starts_ends["a"] == (0, 4)
        assert starts_ends["b"] == (4, 8)

    def test_whole_root(self):
        b = reference_buddy(16, [("alloc", "a", 16)])
        assert b.placements["a"] == (0, 16)
        assert b.free_blocks == []

    def test_demand_beyond_capacity_fails(self):
        b = ReferenceBuddy(8)
        with pytest.raises(AllocationFailure):
            b.alloc("a", 9)

    def test_free_merges_back_to_root(self):
        b = reference_buddy(16, [("alloc", "a", 3), ("alloc", "b", 4)])
        b.free("a")
        b.free("b")
        assert b.free_blocks == [(0, 16)]

    def test_unknown_free_rejected(self):
        with pytest.raises(NotFoundError):
            ReferenceBuddy(8).free("nope")

    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            ReferenceBuddy(12)


class TestReplayRR:
    def test_two_jobs_unit_quantum(self):
        jobs = [proc(1, time=3), proc(2, time=2)]
        slices = replay_rr(jobs, 1)
        assert [s[0] for s in slices] == [1, 2, 1, 2, 1]

    def test_single_job_chunks(self):
        slices = replay_rr([proc(1, time=4)], 2)
        assert slices == ((1, 0, 2), (1, 2, 2))

    def test_remainder_chunk(self):
        slices = replay_rr([proc(1, time=3)], 2)
        assert slices == ((1, 0, 2), (1, 2, 1))

    def test_empty(self):
        assert replay_rr([], 1) == ()

    def test_callable_quantum(self):
        jobs = [proc(1, time=2), proc(2, time=3)]
        slices = replay_rr(jobs, lambda p: 1 if p.id == 1 else 3)
        assert slices == ((1, 0, 1), (2, 1, 3), (1, 4, 1))

    def test_zero_quantum_rejected(self):
        with pytest.raises(ParameterError):
            replay_rr([proc(1)], 0)

    def test_arrival_at_turn_end_goes_ahead_of_the_preempted(self):
        # 2 arrives at instant 2, the end of 1's first turn: 2 runs next
        jobs = [proc(1, time=4), proc(2, time=1, arrival=2)]
        assert replay_rr(jobs, 2) == ((1, 0, 2), (2, 2, 1), (1, 3, 2))

    def test_idle_gap_jumps_to_arrival(self):
        slices = replay_rr([proc(1, time=2, arrival=5)], 1)
        assert slices == ((1, 5, 1), (1, 6, 1))
