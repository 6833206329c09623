"""Core type behavior: addresses, extents, projection, lifecycle."""

import gc
import importlib
import sys
import weakref

import pytest
from hypothesis import given, strategies as st

from osalg import (
    Extent,
    LifecycleState,
    Procedure,
    ProcedureSet,
    ResourceKind,
    ResourceSet,
    ResourceUnit,
    activate,
    addr,
    extent_size,
    passivate,
    project,
    set_state,
)
from osalg.errors import (
    BoundsError,
    IllegalTransitionError,
    MalformedExtentError,
    ParameterError,
)

from conftest import proc


class TestAddresses:
    def test_third_unit_of_memory(self):
        memory = ResourceSet.memory(16)
        assert addr(memory.units[2]) == 2

    def test_first_unit_is_zero(self):
        assert addr(ResourceSet.memory(16).units[0]) == 0

    def test_injective_over_one_set(self):
        memory = ResourceSet.memory(512)
        addresses = [addr(u) for u in memory.units]
        assert len(set(addresses)) == len(addresses)

    def test_addresses_strictly_increase(self):
        memory = ResourceSet.memory(64)
        addresses = [addr(u) for u in memory.units]
        assert addresses == sorted(set(addresses))

    def test_cpu_time_is_infinite_kind(self):
        cpu = ResourceSet.cpu_time()
        assert cpu.kind is ResourceKind.INFINITE_NONREUSABLE
        assert cpu.capacity is None
        assert addr(cpu.unit_at(12345)) == 12345

    def test_memory_is_finite_kind(self):
        assert ResourceSet.memory(4).kind is ResourceKind.FINITE_REUSABLE

    def test_capacity_must_match_units(self):
        with pytest.raises(ParameterError):
            ResourceSet(kind=ResourceKind.FINITE_REUSABLE, units=(), capacity=3)

    @pytest.mark.parametrize("n", range(6))
    def test_memory_matches_eager_construction(self, n):
        """Units made on demand look like units given up front."""
        lazy = ResourceSet.memory(n)
        eager = ResourceSet(
            kind=ResourceKind.FINITE_REUSABLE,
            units=tuple(ResourceUnit(a) for a in range(n)),
            capacity=n,
        )
        assert len(lazy.units) == len(eager.units) == n
        assert list(lazy.units) == list(eager.units)
        assert [lazy.units[i] for i in range(-n, n)] == \
            [eager.units[i] for i in range(-n, n)]
        assert lazy.units[1:-1] == eager.units[1:-1]
        assert [lazy.unit_at(a) for a in range(n)] == [eager.unit_at(a) for a in range(n)]
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert lazy == ResourceSet.memory(n)
        assert lazy != ResourceSet.memory(n + 1)
        shifted = tuple(ResourceUnit(a + 1) for a in range(n))
        assert n == 0 or lazy.units != shifted
        assert n == 0 or lazy != ResourceSet(ResourceKind.FINITE_REUSABLE, shifted, n)
        with pytest.raises(IndexError):
            lazy.units[n]
        with pytest.raises(BoundsError):
            lazy.unit_at(n)

    def test_memory_set_does_not_scale_with_capacity(self):
        huge = ResourceSet.memory(10**18)
        assert huge.capacity == len(huge.units) == 10**18
        assert addr(huge.unit_at(10**18 - 1)) == 10**18 - 1


class TestExtents:
    def test_size_counts_half_open(self):
        assert extent_size(Extent(0, 4)) == 4

    def test_empty_extent(self):
        assert extent_size(Extent(7, 7)) == 0

    def test_plain_arithmetic(self):
        assert extent_size(Extent(2, 10)) == 8

    def test_malformed_extent_rejected(self):
        with pytest.raises(MalformedExtentError):
            Extent(5, 2)

    def test_negative_start_rejected(self):
        with pytest.raises(MalformedExtentError):
            Extent(-1, 2)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_size_is_end_minus_start(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert extent_size(Extent(lo, hi)) == hi - lo


class TestProjection:
    def test_first_component_is_size(self):
        assert project(1, proc(1, size=5, time=7)) == 5

    def test_second_component_is_time(self):
        assert project(2, proc(1, size=5, time=7)) == 7

    def test_set_membership_is_one_indexed(self):
        p1, p2, p3 = proc(1), proc(2), proc(3)
        assert project(2, ProcedureSet.of(p1, p2, p3)) is p2

    def test_out_of_range(self):
        with pytest.raises(BoundsError):
            project(3, proc(1, size=5, time=7))
        with pytest.raises(BoundsError):
            project(4, ProcedureSet.of(proc(1)))
        with pytest.raises(BoundsError):
            project(0, ProcedureSet.of(proc(1)))

    def test_plain_tuples_project_too(self):
        assert project(1, (5, 7)) == 5


class TestLifecycle:
    def test_activation_needs_context(self):
        p = proc(1)
        active = activate(p, {"pc": 0})
        assert active.state is LifecycleState.ACTIVE
        with pytest.raises(ParameterError):
            set_state(p, LifecycleState.ACTIVE, context=None)

    def test_round_trip_preserves_fields(self):
        p = proc(3, size=5, time=7, arrival=2, priority=4, owner="a")
        back = passivate(activate(p, {"k": 1}))
        assert back.state is LifecycleState.PASSIVE
        for field in ("id", "size", "time", "priority", "owner", "arrival"):
            assert getattr(back, field) == getattr(p, field)
        assert back.context == (("k", 1),)

    def test_double_activation_rejected(self):
        active = activate(proc(1), {})
        with pytest.raises(IllegalTransitionError):
            activate(active, {})

    def test_double_passivation_rejected(self):
        with pytest.raises(IllegalTransitionError):
            passivate(proc(1))

    def test_activate_passivate_is_identity_on_context(self):
        p = activate(proc(1), {"x": 2, "a": 1})
        again = activate(passivate(p), p.context)
        assert again.context == p.context == (("a", 1), ("x", 2))

    @given(
        st.integers(0, 100), st.integers(0, 20), st.integers(1, 20),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=4),
    )
    def test_round_trip_property(self, pid, size, time, context):
        p = proc(pid, size=size, time=time)
        back = passivate(activate(p, context))
        assert (back.id, back.size, back.time, back.arrival) == (
            p.id, p.size, p.time, p.arrival,
        )


class TestProcedureInvariants:
    def test_zero_time_rejected(self):
        with pytest.raises(ParameterError, match="time must be >= 1"):
            proc(1, time=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ParameterError):
            proc(1, size=-1)

    def test_segments_must_sum_to_size(self):
        with pytest.raises(ParameterError):
            proc(1, size=10, segments=(4, 5))
        assert proc(1, size=10, segments=(4, 6)).segments == (4, 6)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParameterError):
            ProcedureSet.of(proc(1), proc(1))


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
