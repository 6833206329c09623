"""Core type behavior: extents, procedures, procedure sets, and the
procedure lifecycle as a run's trace records it."""

import gc
import importlib
import sys
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from osalg import Extent, ProcedureSet, SimConfig, run
from osalg.allocators import MemoryState
from osalg.errors import MalformedExtentError, ParameterError
from osalg.sim import EventKind

from conftest import proc, regression_runs

ACTIVATE, PASSIVATE = "activate", "passivate"


def lifecycles(trace):
    """Each procedure's transitions in trace order, with the extents each
    one takes or gives back: its Admit and each SwapIn activate it, each
    SwapOut and its Complete passivate it."""
    granted = {e.pid: e.extents for e in trace.of_kind(EventKind.ALLOCATE)}
    freed = {e.pid: e.extents for e in trace.of_kind(EventKind.DEALLOCATE)}
    steps = {}
    for e in trace:
        if e.kind is EventKind.ADMIT:
            step = (ACTIVATE, granted[e.pid])
        elif e.kind is EventKind.SWAP_IN:
            step = (ACTIVATE, e.extents)
        elif e.kind is EventKind.SWAP_OUT:
            step = (PASSIVATE, e.extents)
        elif e.kind is EventKind.COMPLETE:
            step = (PASSIVATE, freed[e.pid])
        else:
            continue
        steps.setdefault(e.pid, []).append(step)
    return steps


def units(extents):
    return sum(e.size for e in extents)


def regression_lifecycles():
    for _, workload, cfg in regression_runs():
        trace, _ = run(workload, cfg, strict=False)
        yield {p.id: p for p in workload}, lifecycles(trace)


class TestExtents:
    def test_size_counts_half_open(self):
        assert Extent(0, 4).size == 4

    def test_empty_extent(self):
        assert Extent(7, 7).size == 0

    def test_plain_arithmetic(self):
        assert Extent(2, 10).size == 8

    def test_malformed_extent_rejected(self):
        with pytest.raises(MalformedExtentError):
            Extent(5, 2)

    def test_negative_start_rejected(self):
        with pytest.raises(MalformedExtentError):
            Extent(-1, 2)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_size_is_end_minus_start(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert Extent(lo, hi).size == hi - lo


class TestAddresses:
    """A memory's addresses are 0 up to its capacity, held as extents and
    never unit by unit."""

    def test_memory_set_does_not_scale_with_capacity(self):
        huge = MemoryState.initial(10**18)
        assert huge.capacity == huge.free_total == 10**18
        assert huge.free == (Extent(0, 10**18),)
        with pytest.raises(ParameterError):
            MemoryState.initial(-1)


class TestLifecycle:
    """A procedure is a file until it is admitted, a process while it
    holds primary memory, and a file again once swapped out or complete."""

    def test_activation_needs_context(self):
        """Each activation grants the procedure its whole demand."""
        for procs, steps in regression_lifecycles():
            for pid, transitions in steps.items():
                for kind, extents in transitions:
                    assert kind == PASSIVATE or units(extents) >= procs[pid].size

    def test_round_trip_preserves_fields(self):
        """Swapped out and back in, a procedure holds as many units as
        its admission gave it."""
        for _, steps in regression_lifecycles():
            for transitions in steps.values():
                held = {units(extents) for kind, extents in transitions}
                assert len(held) == 1

    def test_double_activation_rejected(self):
        swapped_in = 0
        for _, steps in regression_lifecycles():
            for transitions in steps.values():
                kinds = [kind for kind, _ in transitions]
                assert kinds[0] == ACTIVATE
                assert (ACTIVATE, ACTIVATE) not in zip(kinds, kinds[1:])
                swapped_in += kinds.count(ACTIVATE) - 1
        assert swapped_in > 0

    def test_double_passivation_rejected(self):
        for _, steps in regression_lifecycles():
            for transitions in steps.values():
                kinds = [kind for kind, _ in transitions]
                assert kinds[-1] == PASSIVATE
                assert (PASSIVATE, PASSIVATE) not in zip(kinds, kinds[1:])

    def test_activate_passivate_is_identity_on_context(self):
        """A passivation gives back exactly the extents the activation
        before it took."""
        for _, steps in regression_lifecycles():
            for transitions in steps.values():
                for (_, taken), (_, given_back) in zip(transitions[::2], transitions[1::2]):
                    assert given_back == taken

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["fcfs", "sjf-time", "rr"]),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8), st.integers(1, 6)),
                 min_size=1, max_size=10),
    )
    def test_round_trip_property(self, scheduler, shapes):
        """Under swapping, every procedure alternates activate and
        passivate, from its Admit to its Complete, and gives back what
        it took."""
        workload = [proc(i + 1, size=size, time=time, arrival=arrival)
                    for i, (arrival, size, time) in enumerate(shapes)]
        cfg = SimConfig(memory_capacity=10, backing_capacity=16, scheduler=scheduler,
                        quantum=2)
        trace, _ = run(workload, cfg, strict=False)
        steps = lifecycles(trace)
        assert sorted(steps) == [p.id for p in workload]
        for transitions in steps.values():
            kinds = [kind for kind, _ in transitions]
            assert kinds == [ACTIVATE, PASSIVATE] * (len(kinds) // 2)
            for (_, taken), (_, given_back) in zip(transitions[::2], transitions[1::2]):
                assert given_back == taken


class TestProcedureInvariants:
    def test_zero_time_rejected(self):
        with pytest.raises(ParameterError, match="time must be >= 1"):
            proc(1, time=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ParameterError):
            proc(1, size=-1)

    @pytest.mark.parametrize("field, message", [
        ("arrival", "arrival must be >= 0, got -1"),
        ("priority", "priority must be natural, got -1"),
    ])
    def test_negative_arrival_or_priority_rejected(self, field, message):
        with pytest.raises(ParameterError, match=message):
            proc(1, **{field: -1})

    def test_segments_must_sum_to_size(self):
        with pytest.raises(ParameterError):
            proc(1, size=10, segments=(4, 5))
        assert proc(1, size=10, segments=(4, 6)).segments == (4, 6)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParameterError):
            ProcedureSet.of(proc(1), proc(1))

    def test_a_late_duplicate_is_found_in_linear_time(self):
        """A repeated id is found in one count of the ids: 50 000
        procedures with the last one repeated are refused at once (a scan
        that counted the ids again for each id took 1.2 s at 8 000)."""
        members = [proc(i) for i in range(50_000)]
        started = time.perf_counter()
        with pytest.raises(ParameterError, match="duplicate procedure id 49999$"):
            ProcedureSet(tuple(members + [proc(49_999)]))
        assert time.perf_counter() - started < 1


def test_first_classness_thread_through_positions():
    """One procedure value survives set membership, parameter passing,
    and return from selection."""
    from osalg import Organize, Select, compose

    p = proc(7, size=3, time=2)
    members = ProcedureSet.of(proc(1, size=9, time=9), p)
    discipline = compose(Select.identity(2), Organize.identity())
    returned = discipline.apply(members)
    assert returned is p
    assert returned in list(members)


def test_reimport_frees_the_previous_copy():
    """Nothing in the package keeps an earlier import of it alive, so a
    process that imports osalg afresh, as the benchmark does between
    passes, does not grow by one copy per import."""

    def osalg_modules():
        return [k for k in sys.modules if k == "osalg" or k.startswith("osalg.")]

    saved = {k: sys.modules[k] for k in osalg_modules()}
    try:
        for name in osalg_modules():
            del sys.modules[name]
        importlib.import_module("osalg")
        old = weakref.ref(sys.modules["osalg.core"].Procedure)
        for name in osalg_modules():
            del sys.modules[name]
        importlib.import_module("osalg")
        gc.collect()
        assert old() is None
    finally:
        for name in osalg_modules():
            del sys.modules[name]
        sys.modules.update(saved)
