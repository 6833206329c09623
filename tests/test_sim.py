"""End-to-end simulator behavior: traces, metrics, swapping, determinism."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osalg import Extent, ProcedureSet, SimConfig, Trace, WorkClass, run
from osalg import binding, schedulers, sim
from osalg.binding import validate
from osalg.combinators import Chunk, Organize, Select, compose
from osalg.errors import (
    IncompleteRunError,
    OsAlgError,
    ParameterError,
    TraceLimitError,
    UnrunnableProcedureError,
)
from osalg.sim import (
    Admit, Allocate, Arrive, Complete, Deallocate, Dispatch, Preempt, SwapIn, SwapOut,
    class_quantum, metrics,
)

from conftest import proc, random_batch, random_arrivals, regression_runs
from oracle import brute_schedule, replay_rr


def dispatch_slices(trace):
    return [
        (e.pid, e.instant, e.run)
        for e in trace.of_kind(Dispatch)
    ]


def check_trace_wellformed(trace):
    """Instants non-decreasing, dispatch only while resident, completes
    dispatched, CPU intervals disjoint."""
    instants = [e.instant for e in trace.events]
    assert instants == sorted(instants)
    resident = set()
    dispatched = set()
    intervals = []
    for e in trace.events:
        if type(e) in (Allocate, SwapIn):
            resident.add(e.pid)
        elif type(e) in (Deallocate, SwapOut):
            resident.discard(e.pid)
        elif type(e) is Dispatch:
            assert e.pid in resident, f"dispatch of non-resident {e.pid}"
            dispatched.add(e.pid)
            intervals.append((e.instant, e.instant + e.run))
        elif type(e) is Complete:
            assert e.pid in dispatched
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, "overlapping CPU intervals"


class TestHandScenarios:
    def test_two_job_first_fit_fcfs(self):
        ps = ProcedureSet.of(proc(1, size=4, time=3), proc(2, size=4, time=2))
        cfg = SimConfig(memory_capacity=16, scheduler="fcfs", allocator="first-fit")
        trace, m = run(ps, cfg, strict=True)
        assert m.makespan == 5
        assert dict(m.waiting) == {1: 0, 2: 3}
        check_trace_wellformed(trace)

    def test_single_tiny_job(self):
        trace, m = run([proc(1, size=1, time=1)], SimConfig(memory_capacity=16))
        assert m.makespan == 1
        assert m.waiting[1] == 0

    def test_unrunnable_procedure(self):
        cfg = SimConfig(memory_capacity=16, backing_capacity=16)
        with pytest.raises(UnrunnableProcedureError):
            run([proc(1, size=999, time=1)], cfg)

    def test_unrunnable_under_fixed_units(self):
        cfg = SimConfig(memory_capacity=16, allocator="fixed", unit_size=4)
        with pytest.raises(UnrunnableProcedureError):
            run([proc(1, size=5, time=1)], cfg)

    def test_empty_workload(self):
        trace, m = run([], SimConfig())
        assert len(trace) == 0
        assert m.makespan == 0


def test_events_carry_typed_values():
    """Fields are values, not text: the CLI alone renders them."""
    ps = [proc(1, size=4, time=3), proc(2, size=4, time=2)]
    trace, _ = run(ps, SimConfig(memory_capacity=8), strict=True)
    for e in trace.of_kind(Arrive):
        assert type(e.size) is int and type(e.time) is int
    runs = [e.run for e in trace.of_kind(Dispatch)]
    assert runs == [3, 2] and all(type(r) is int for r in runs)
    for kind in (Allocate, Deallocate):
        for e in trace.of_kind(kind):
            extents = e.extents
            assert type(extents) is tuple
            assert extents and all(isinstance(x, Extent) for x in extents)
    allocations = trace.of_kind(Allocate)
    # the first grant leaves [4..8) free, the second leaves nothing free
    assert [e.ext_frag for e in allocations] == [Fraction(1), None]
    assert type(allocations[0].ext_frag) is Fraction
    assert [e.int_frag for e in allocations] == [0, 0]


def test_events_are_equal_only_within_one_kind():
    """The kind is part of an event's value: a Preempt and a Dispatch of
    the same instant, pid and length differ and hash apart, so a set of
    events or a search of a trace tells them apart."""
    trace, _ = run([proc(1, size=4, time=3)], SimConfig(scheduler="rr", quantum=2))
    assert len(trace) == 8 and len(set(trace.events)) == 8
    assert trace.events.index(Dispatch(2, 1, 1)) == 5
    assert Preempt(2, 1, 1) != Dispatch(2, 1, 1) and Complete(3, 1) != Admit(3, 1)
    assert not Preempt(2, 1, 1) == Dispatch(2, 1, 1)
    assert Dispatch(2, 1, 1) == Dispatch(2, 1, 1) and not Dispatch(2, 1, 1) != Dispatch(2, 1, 1)
    assert hash(Dispatch(2, 1, 1)) == hash(Dispatch(2, 1, 1))
    assert len({Preempt(2, 1, 1), Dispatch(2, 1, 1), Dispatch(2, 1, 1)}) == 2


@pytest.mark.parametrize("compare", [
    lambda: Preempt(2, 1, 1) <= Dispatch(2, 1, 1),
    lambda: Preempt(2, 1, 1) >= Dispatch(2, 1, 1),
    lambda: Dispatch(2, 1, 1) < Dispatch(3, 1, 1),
    lambda: sorted([Complete(0, 1), Dispatch(0, 1, 1)]),
], ids=["le", "ge", "lt-one-kind", "sorted"])
def test_events_have_no_order_of_their_own(compare):
    """Ordering two events raises, so no reader can sort a trace other
    than by its own order, the instant and then the kind's rank."""
    with pytest.raises(TypeError):
        compare()


class TestMetricsArithmetic:
    def test_fcfs_batch(self):
        ps = [proc(1, time=3), proc(2, time=2), proc(3, time=1)]
        _, m = run(ps, SimConfig(scheduler="fcfs"))
        assert [m.waiting[i] for i in (1, 2, 3)] == [0, 3, 5]
        assert m.mean_waiting == Fraction(8, 3)

    def test_sjf_same_batch(self):
        ps = [proc(1, time=3), proc(2, time=2), proc(3, time=1)]
        _, m = run(ps, SimConfig(scheduler="sjf-time"))
        assert sorted(m.waiting.values()) == [0, 1, 3]
        assert m.mean_waiting == Fraction(4, 3)

    def test_one_job_turnaround_equals_time(self):
        _, m = run([proc(1, size=2, time=7)], SimConfig())
        assert m.waiting[1] == 0
        assert m.turnaround[1] == 7

    def test_turnaround_and_waiting_invariants(self):
        rng = random.Random(61)
        ps = random_arrivals(rng, 15, spread=10)
        _, m = run(ps, SimConfig(memory_capacity=256, scheduler="rr", quantum=2))
        for p in ps:
            assert m.turnaround[p.id] >= p.time
            assert m.waiting[p.id] >= 0

    def test_incomplete_trace_rejected(self):
        partial = Trace(events=(
            sim.Arrive(0, 1, 1, 2, None, None, None),
            sim.Dispatch(0, 1, 1),
        ))
        with pytest.raises(IncompleteRunError):
            metrics(partial)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(st.none(), st.fractions(0, 1, max_denominator=70_000)), max_size=40,
    ))
    def test_mean_fragmentation_is_the_exact_mean(self, samples):
        """The mean taken over one common denominator equals the running
        sum of the samples over their count; None samples are skipped."""
        events = [sim.Arrive(0, 1, 1, 1, None, None, None)]
        events += [sim.Allocate(0, 1, (), None, None, s, 0) for s in samples]
        events.append(sim.Complete(1, 1))
        m = metrics(Trace(events=tuple(events)))
        taken = [s for s in samples if s is not None]
        assert m.external_fragmentation == tuple(taken)
        if taken:
            assert m.mean_external_fragmentation == sum(taken, Fraction(0)) / len(taken)
        else:
            assert m.mean_external_fragmentation is None


class TestSchedulerIntegration:
    """The batch schedulers are projections of the simulator, so the batch
    schedules these tests expect come from references that share no code
    with it: the unit-step round robin oracle, and a plain sort checked
    against enumeration."""

    def test_rr_trace_matches_batch_schedule(self):
        rng = random.Random(67)
        for _ in range(15):
            ps = random_arrivals(rng, rng.randint(1, 8), max_size=4, spread=8)
            cfg = SimConfig(memory_capacity=256, scheduler="rr", quantum=2)
            trace, _ = run(ps, cfg)
            assert dispatch_slices(trace) == list(replay_rr(ps, 2))

    def test_var_quantum_trace_matches_batch_schedule(self):
        rng = random.Random(71)
        classifier = class_quantum(io_quantum=1, cpu_quantum=3)
        for _ in range(10):
            ps = random_arrivals(rng, rng.randint(1, 8), max_size=4, with_class=True)
            cfg = SimConfig(memory_capacity=256, scheduler="var-quantum",
                            io_quantum=1, cpu_quantum=3)
            trace, _ = run(ps, cfg)
            assert dispatch_slices(trace) == list(replay_rr(ps, classifier))

    def test_sjf_trace_matches_batch_schedule(self):
        rng = random.Random(73)
        for n in (10, 8, 5):
            ps = random_batch(rng, n)
            trace, m = run(ps, SimConfig(memory_capacity=512, scheduler="sjf-time"))
            want, clock = [], 0
            for p in sorted(ps, key=lambda p: (p.time, p.id)):
                want.append((p.id, clock, p.time))
                clock += p.time
            assert dispatch_slices(trace) == want
            if n <= 8:
                assert sum(m.waiting.values()) == brute_schedule(ps).cost

    def test_priority_requires_priorities(self):
        with pytest.raises(ParameterError):
            run([proc(1)], SimConfig(scheduler="priority"))

    def test_idle_clock_jumps_to_arrival(self):
        trace, m = run(
            [proc(1, size=1, time=1, arrival=7)], SimConfig(memory_capacity=8)
        )
        dispatches = trace.of_kind(Dispatch)
        assert dispatches[0].instant == 7
        assert m.makespan == 8


class TestSwapping:
    CFG = SimConfig(memory_capacity=8, backing_capacity=8,
                    scheduler="fcfs", allocator="first-fit")

    def swap_workload(self, p1_prio, p2_prio):
        return ProcedureSet.of(
            proc(1, size=4, time=6, arrival=0, priority=p1_prio),
            proc(2, size=4, time=6, arrival=0, priority=p2_prio),
            proc(3, size=4, time=2, arrival=1, priority=9),
        )

    def test_lowest_priority_victim_swapped_for_incoming(self):
        trace, m = run(self.swap_workload(5, 1), self.CFG, strict=True)
        swap_outs = trace.of_kind(SwapOut)
        assert [(e.pid, e.instant) for e in swap_outs] == [(2, 1)]
        swap_ins = trace.of_kind(SwapIn)
        assert [(e.pid, e.instant) for e in swap_ins] == [(2, 6)]
        # p3 got the freed memory at its arrival instant
        allocs = {e.pid: e.instant for e in trace.of_kind(Allocate)}
        assert allocs[3] == 1
        assert dict(m.waiting) == {1: 0, 2: 6, 3: 11}
        check_trace_wellformed(trace)

    def test_running_procedure_never_evicted(self):
        # p1 runs with the lowest priority; the victim must still be p2
        trace, _ = run(self.swap_workload(0, 5), self.CFG, strict=True)
        assert [e.pid for e in trace.of_kind(SwapOut)] == [2]

    def test_swapped_out_never_dispatched_while_out(self):
        trace, _ = run(self.swap_workload(5, 1), self.CFG, strict=True)
        out_at = {e.instant for e in trace.of_kind(SwapOut)}
        in_at = {e.instant for e in trace.of_kind(SwapIn)}
        lo, hi = min(out_at), min(in_at)
        for e in trace.of_kind(Dispatch):
            if e.pid == 2:
                assert not (lo <= e.instant < hi)

    def test_backlog_when_no_victim_helps(self):
        # backing too small for any victim: arrival waits in the backlog
        cfg = SimConfig(memory_capacity=8, backing_capacity=0,
                        scheduler="fcfs", allocator="first-fit")
        ps = ProcedureSet.of(
            proc(1, size=8, time=3),
            proc(2, size=8, time=2, arrival=1),
        )
        trace, m = run(ps, cfg, strict=True)
        assert [e.pid for e in trace.of_kind(SwapOut)] == []
        allocs = {e.pid: e.instant for e in trace.of_kind(Allocate)}
        assert allocs[2] == 3  # admitted only after p1 deallocates
        assert m.makespan == 5

    def test_preempted_procedure_is_evictable_at_the_preempt_instant(self):
        cfg = SimConfig(memory_capacity=4, backing_capacity=8,
                        scheduler="rr", quantum=2, allocator="first-fit")
        ps = ProcedureSet.of(
            proc(1, size=4, time=4, arrival=0, priority=0),
            proc(2, size=4, time=2, arrival=2, priority=9),
        )
        trace, m = run(ps, cfg, strict=True)
        check_trace_wellformed(trace)
        assert [(e.pid, e.instant) for e in trace.of_kind(SwapOut)] == [(1, 2)]
        assert [(e.pid, e.instant) for e in trace.of_kind(SwapIn)] == [(1, 4)]
        assert dict(m.waiting) == {1: 2, 2: 0}

    def test_paged_procedures_swap_and_return(self):
        cfg = SimConfig(memory_capacity=8, backing_capacity=16,
                        scheduler="fcfs", allocator="paging", page_size=4)
        ps = ProcedureSet.of(
            proc(1, size=8, time=5, priority=1),
            proc(2, size=5, time=2, arrival=1, priority=7),
        )
        trace, m = run(ps, cfg, strict=True)
        check_trace_wellformed(trace)
        assert validate(trace.binding) == []
        assert set(m.waiting) == {1, 2}


    @pytest.mark.parametrize("allocator, extra", [
        ("first-fit", {}),
        ("fixed", {"unit_size": 8}),
        ("buddy", {}),
        ("paging", {"page_size": 4}),
        ("segmentation", {}),
    ])
    def test_swap_in_regrants_the_admission_pieces_but_under_first_fit(
        self, allocator, extra
    ):
        """Admission and swap-in cut a procedure's memory into the same
        pieces under every allocator but first fit, whose registry entry
        regrants the declared segments though admission granted one
        extent, a known fault. Mending it flips the first-fit assertion
        to the other one."""
        ps = ProcedureSet.of(
            proc(1, size=8, time=6, priority=5),
            proc(2, size=6, time=3, priority=1, segments=(2, 4)),
            proc(3, size=8, time=2, arrival=1, priority=9),
        )
        cfg = SimConfig(memory_capacity=16, backing_capacity=16,
                        allocator=allocator, **extra)
        trace, _ = run(ps, cfg, strict=True)

        def pieces(kind):
            (event,) = [e for e in trace.of_kind(kind) if e.pid == 2]
            return [e.size for e in event.extents]

        admitted, regranted = pieces(Allocate), pieces(SwapIn)
        if allocator == "first-fit":
            assert (admitted, regranted) == ([6], [2, 4])
        else:
            assert admitted == regranted


class TestEverySchedulerAllocatorPair:
    def test_cross_product_sweep_under_memory_pressure(self):
        """Every scheduler/allocator pairing survives a tight-memory run
        with strict invariants on, and conserves CPU work."""
        rng = random.Random(89)
        allocator_cfg = {
            "first-fit": {},
            "fixed": {"unit_size": 8},
            "buddy": {},
            "paging": {"page_size": 4},
            "segmentation": {},
        }
        for scheduler in ("fcfs", "sjf-size", "sjf-time", "priority", "rr",
                          "var-quantum"):
            for allocator, extra in allocator_cfg.items():
                ps = random_arrivals(
                    rng, 12, max_size=8, spread=10,
                    with_priority=True, with_class=True,
                )
                cfg = SimConfig(
                    memory_capacity=16, backing_capacity=32,
                    scheduler=scheduler, quantum=2,
                    allocator=allocator, **extra,
                )
                trace, m = run(ps, cfg, strict=True)
                check_trace_wellformed(trace)
                assert validate(trace.binding) == []
                for p in ps:
                    total = sum(
                        e.run
                        for e in trace.of_kind(Dispatch)
                        if e.pid == p.id
                    )
                    assert total == p.time, (scheduler, allocator, p.id)
                    assert m.turnaround[p.id] >= p.time


class TestDominance:
    def test_sjf_time_never_worse_than_fcfs_on_batches(self):
        rng = random.Random(79)
        for _ in range(25):
            ps = random_batch(rng, rng.randint(1, 50))
            _, fcfs_m = run(ps, SimConfig(memory_capacity=512, scheduler="fcfs"))
            _, sjf_m = run(ps, SimConfig(memory_capacity=512, scheduler="sjf-time"))
            assert sjf_m.mean_waiting <= fcfs_m.mean_waiting

    def test_sjf_time_matches_enumeration_minimum(self):
        rng = random.Random(83)
        for _ in range(15):
            ps = random_batch(rng, rng.randint(1, 8))
            _, m = run(ps, SimConfig(memory_capacity=128, scheduler="sjf-time"))
            assert sum(m.waiting.values()) == brute_schedule(ps).cost


class TestDeterminismAndInvariants:
    def test_regression_runs_are_reproducible_and_clean(self):
        """Each run renders byte-identical when repeated, and with strict
        mode off: checking a run does not change its trace."""
        from osalg.cli import render_trace

        for name, workload, cfg in regression_runs():
            first_trace, first_metrics = run(workload, cfg, strict=True)
            second_trace, second_metrics = run(workload, cfg, strict=True)
            lax_trace, lax_metrics = run(workload, cfg, strict=False)
            assert render_trace(first_trace) == render_trace(second_trace), name
            assert render_trace(first_trace) == render_trace(lax_trace), name
            assert first_metrics == second_metrics == lax_metrics, name
            check_trace_wellformed(first_trace)
            assert validate(first_trace.binding) == [], name

    def test_strict_mode_follows_environment(self, monkeypatch):
        ps = [proc(1, size=2, time=1)]
        monkeypatch.setenv("OSALG_STRICT", "1")
        trace, _ = run(ps, SimConfig(memory_capacity=8))
        assert len(trace) > 0

    def test_paging_run_records_page_bindings(self):
        cfg = SimConfig(memory_capacity=32, allocator="paging", page_size=4)
        trace, _ = run([proc(1, size=10, time=2)], cfg, strict=True)
        symbols = {e.symbol for e in trace.binding.events}
        assert {"frames", "pages:1", "page-table:1"} <= symbols
        assert validate(trace.binding) == []

    @pytest.mark.parametrize("scheduler", ["rr", "var-quantum"])
    def test_paging_log_is_the_interleaved_one(self, scheduler):
        """The binding log that gathers the dependencies and builds the
        graph once equals the one grown event by event, each Allocate or
        SwapIn recording its binds and then declaring its dependencies."""
        bind, use = binding.EventKind.BIND, binding.EventKind.USE
        swapped = 0
        for seed in range(6):
            ps = random_arrivals(random.Random(seed), 14, max_size=12,
                                 spread=12, with_class=True)
            cfg = SimConfig(memory_capacity=16, backing_capacity=24,
                            scheduler=scheduler, quantum=2, allocator="paging",
                            page_size=4)
            trace, _ = run(ps, cfg, strict=False)
            swapped += len(trace.of_kind(SwapIn))
            g = binding.record(binding.BindingGraph(), "frames", bind, 0)
            for e in trace:
                table = f"page-table:{e.pid}"
                if type(e) in (Allocate, SwapIn):
                    g = binding.record(g, f"pages:{e.pid}", bind, e.instant)
                    g = binding.record(g, table, bind, e.instant)
                    g = g.with_dependency("frames", table)
                    g = g.with_dependency(f"pages:{e.pid}", table)
                elif type(e) is Dispatch:
                    g = binding.record(g, table, use, e.instant)
            assert trace.binding == g, seed
        assert swapped > 0

    @pytest.mark.parametrize("allocator, extra, symbol", [
        ("first-fit", {}, "free-list"),
        ("fixed", {"unit_size": 4}, "frames"),
        ("buddy", {}, "buddy-tree"),
        ("paging", {"page_size": 4}, "frames"),
        ("segmentation", {}, "free-list"),
    ])
    def test_free_store_is_bound_first(self, allocator, extra, symbol):
        cfg = SimConfig(memory_capacity=32, allocator=allocator, **extra)
        trace, _ = run([proc(1, size=3, time=1)], cfg)
        first = trace.binding.events[0]
        assert (first.symbol, first.kind.value, first.instant) == (symbol, "Bind", 0)

    def test_the_binding_log_follows_the_composition(self):
        """An allocator built directly from the paging composition logs the
        same page-table binds as the registry's paging entry: its fixed
        chunk, not the entry, decides the log."""
        direct = sim.Allocator(
            compose(Select.first_fit(), Organize.fixed_partition(4), Chunk.fixed(4)),
            "frames")
        paging = [(w, cfg) for _, w, cfg in regression_runs() if cfg.allocator == "paging"]
        swapped = 0
        for workload, cfg in paging:
            trace, _ = run(workload, cfg)
            swapped += len(trace.of_kind(SwapIn))
            assert direct.binding_log(trace.events) == trace.binding
            assert sim.ALLOCATORS["paging"](cfg).binding_log(trace.events) == trace.binding
        assert len(paging) >= 2 and swapped > 0

    def test_strict_mode_reports_binding_violation(self, monkeypatch):
        """With the page-table binds left out, the dispatch's Use precedes
        any binding: a strict run stops on it, a lax one completes."""
        real_log = sim.Allocator.binding_log

        def log_without_table_binds(allocator, events):
            g = real_log(allocator, events)
            kept = tuple(
                e for e in g.events
                if e.kind is not binding.EventKind.BIND
                or not e.symbol.startswith("page-table:")
            )
            return binding.BindingGraph(kept, g.dependencies)

        monkeypatch.setattr(sim.Allocator, "binding_log", log_without_table_binds)
        cfg = SimConfig(memory_capacity=32, allocator="paging", page_size=4)
        ps = [proc(1, size=10, time=2)]
        trace, _ = run(ps, cfg, strict=False)
        violations = validate(trace.binding)
        assert [v.kind for v in violations] == ["use-before-bind"]
        with pytest.raises(OsAlgError) as exc:
            run(ps, cfg, strict=True)
        assert str(exc.value) == (
            "binding violations: page-table:1 used at 0 with no prior binding")
        assert exc.value.invariant == "binding"
        assert (exc.value.event, exc.value.at) == (len(trace), None)

    def test_strict_mode_validates_the_binding_log_once(self, monkeypatch):
        """A strict run validates its finished binding log once; a lax run
        never validates it."""
        checked = []

        def counted_validate(g):
            checked.append(g)
            return validate(g)

        monkeypatch.setattr(binding, "validate", counted_validate)
        ps = [proc(i, size=6, time=3, arrival=i, priority=i % 3) for i in range(1, 9)]
        cfg = SimConfig(memory_capacity=16, backing_capacity=24, scheduler="rr",
                        quantum=2, allocator="paging", page_size=4)
        run(ps, cfg, strict=False)
        assert checked == []
        trace, _ = run(ps, cfg, strict=True)
        assert len(trace.of_kind(SwapIn)) > 0
        assert checked == [trace.binding]

    def test_strict_mode_reports_a_corrupted_release(self, monkeypatch):
        """A release that leaves the freed extent allocated as well breaks
        disjointness: a strict run stops on it, a lax one completes."""
        real_deallocate = sim.deallocate

        def leaky_deallocate(m, pid):
            freed = real_deallocate(m, pid)
            m.allocated[pid] = freed  # the freed extents stay allocated too
            return freed

        monkeypatch.setattr(sim, "deallocate", leaky_deallocate)
        ps = [proc(1, size=4, time=2), proc(2, size=4, time=1, arrival=5)]
        cfg = SimConfig(memory_capacity=16)
        trace, _ = run(ps, cfg, strict=False)
        assert len(trace.of_kind(Complete)) == 2
        with pytest.raises(ParameterError, match="overlaps"):
            run(ps, cfg, strict=True)

    def test_strict_mode_reports_a_corrupted_grant(self, monkeypatch):
        """A grant that also records its extents under a second id breaks
        disjointness: a strict run stops on it, a lax one completes."""
        real_allocate = sim.allocate_op

        def doubled_allocate(d, m, p):
            granted = real_allocate(d, m, p)
            m.allocated[-p.id] = granted
            return granted

        monkeypatch.setattr(sim, "allocate_op", doubled_allocate)
        ps = [proc(1, size=4, time=2), proc(2, size=4, time=1, arrival=5)]
        cfg = SimConfig(memory_capacity=16)
        trace, _ = run(ps, cfg, strict=False)
        assert len(trace.of_kind(Complete)) == 2
        with pytest.raises(ParameterError, match="overlaps"):
            run(ps, cfg, strict=True)

    def test_internal_fragmentation_reported(self):
        cfg = SimConfig(memory_capacity=32, allocator="paging", page_size=4)
        _, m = run([proc(1, size=10, time=2)], cfg)
        assert m.internal_fragmentation_total == 2

    def test_external_fragmentation_sampled_each_allocation(self):
        ps = [proc(1, size=4, time=3), proc(2, size=4, time=2)]
        _, m = run(ps, SimConfig(memory_capacity=16))
        assert m.external_fragmentation == (Fraction(1), Fraction(1))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(memory_capacity=0)
        with pytest.raises(ParameterError):
            SimConfig(scheduler="lottery")
        with pytest.raises(ParameterError):
            SimConfig(allocator="paging")  # needs page size
        with pytest.raises(ParameterError):
            SimConfig(allocator="buddy", memory_capacity=48)
        with pytest.raises(ParameterError, match="backing capacity must be >= 0"):
            SimConfig(backing_capacity=-1)
        with pytest.raises(ParameterError, match="unknown allocator 'nope'"):
            SimConfig(allocator="nope")


# (id, size, time, arrival, priority, class): procedure 1 is I/O-bound,
# procedure 3 untagged, so it counts as CPU-bound
BOUNDED = [proc(1, size=2, time=5, priority=1, io_class=WorkClass.IO_BOUND),
           proc(2, size=3, time=3, arrival=1, priority=4, io_class=WorkClass.CPU_BOUND),
           proc(3, size=1, time=2, arrival=2, priority=2)]


@pytest.mark.parametrize("entry, bound", [
    (lambda ps: run(ps, SimConfig()), 3),
    (lambda ps: run(ps, SimConfig(scheduler="rr", quantum=2, allocator="paging",
                                  page_size=1)), 6 + 6),
    (lambda ps: sim.dispatch_slices(ps, sim.FCFS), 3),
    (schedulers.fcfs, 3),
    (lambda ps: schedulers.sjf(ps, "time"), 3),
    (schedulers.priority_schedule, 3),
    (lambda ps: schedulers.round_robin(ps, 2), 3 + 2 + 1),
    (lambda ps: schedulers.variable_quantum(ps, class_quantum(1, 2)), 5 + 2 + 1),
], ids=["run", "run-rr-paging", "dispatch_slices", "fcfs", "sjf", "priority_schedule",
        "round_robin", "variable_quantum"])
def test_every_entry_counts_the_bound_before_its_first_event(monkeypatch, entry, bound):
    """Every way into the simulator counts `trace_bound` against
    MAX_TRACE before it emits an event: one below the bound raises
    TraceLimitError with no event emitted, at the bound the run runs."""
    emitted = []
    real_emit = sim._Simulation.emit

    def recording(self, event):
        emitted.append(event)
        real_emit(self, event)

    monkeypatch.setattr(sim._Simulation, "emit", recording)
    monkeypatch.setattr(sim, "MAX_TRACE", bound - 1)
    with pytest.raises(TraceLimitError):
        entry(BOUNDED)
    assert emitted == []
    monkeypatch.setattr(sim, "MAX_TRACE", bound)
    entry(BOUNDED)
    assert emitted


@pytest.mark.parametrize("entry", [
    lambda ps: run(ps, SimConfig(memory_capacity=8)),
    lambda ps: sim.dispatch_slices(ps, sim.FCFS),
    schedulers.fcfs,
    lambda ps: schedulers.round_robin(ps, 1),
], ids=["run", "dispatch_slices", "fcfs", "round_robin"])
def test_every_entry_refuses_a_duplicate_id(entry):
    """Two procedures of one id are refused even when their lifetimes do
    not overlap: each would overwrite the other's waiting time."""
    with pytest.raises(ParameterError, match=r"\bid 1\b"):
        entry([proc(1, size=4, time=1), proc(1, size=4, time=3, arrival=5)])


# in 16 units every pair swaps: procedures 3 to 5 outrank 1 and 2, and fixed
# units of 8 hold any one of them
SWAPPING = [proc(1, size=8, time=6, priority=1), proc(2, size=8, time=5, priority=2),
            proc(3, size=8, time=2, arrival=1, priority=9, segments=(4, 4)),
            proc(4, size=6, time=3, arrival=2, priority=5, segments=(3, 3)),
            proc(5, size=4, time=2, arrival=3, priority=7)]


def test_a_run_leaves_no_cyclic_garbage():
    """Every pair, lax and strict, frees all it made by reference counting
    alone: with the cyclic collector off, a collection of the objects made
    since the last one (generation 0) finds none unreachable."""
    run(SWAPPING, SimConfig(), strict=True)  # strict mode's module loaded
    gc.collect()
    gc.disable()
    try:
        for strict in (False, True):
            for scheduler in sim.SCHEDULERS:
                for allocator in sim.ALLOCATORS:
                    cfg = SimConfig(
                        scheduler=scheduler, quantum=2, io_quantum=1, cpu_quantum=3,
                        allocator=allocator, memory_capacity=16, backing_capacity=32,
                        unit_size=8, page_size=4)
                    trace, _ = run(SWAPPING, cfg, strict)
                    assert trace.of_kind(SwapOut)
                    del trace
                    assert gc.collect(0) == 0, (scheduler, allocator, strict)
    finally:
        gc.enable()
