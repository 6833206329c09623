"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion exactly: counts, tolerances, and
workload scales are pinned here, not configurable.
"""

import random

from osalg import (
    BindingGraph,
    BindingLayer,
    ProcedureSet,
    SimConfig,
    SortKey,
    fcfs,
    legal_orderings,
    organize_buddy,
    priority_schedule,
    record,
    round_robin,
    run,
    sjf,
    translate,
    validate,
)
from osalg.cli import render_trace
from osalg.errors import AllocationFailure, TranslationFault
from osalg.sim import EventKind

from conftest import proc, random_batch, regression_runs
from oracle import NoFreeBlock, ReferenceBuddy, brute_schedule


def report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_composition_fidelity():
    """Combinator orderings equal independent reference sorts, 1000 batches."""
    rng = random.Random(1001)
    mismatches = 0
    for _ in range(1000):
        ps = random_batch(rng, rng.randint(1, 100), with_priority=True)
        members = list(ps)
        pairs = [
            (fcfs(ps), sorted(members, key=lambda p: (p.arrival, p.id))),
            (sjf(ps, SortKey.SIZE), sorted(members, key=lambda p: (p.size, p.id))),
            (sjf(ps, SortKey.TIME), sorted(members, key=lambda p: (p.time, p.id))),
            (priority_schedule(ps),
             sorted(members, key=lambda p: (-p.priority, p.id))),
        ]
        for schedule, want in pairs:
            if [s.pid for s in schedule] != [p.id for p in want]:
                mismatches += 1
    report(1, "composition-fidelity", mismatches == 0)


def test_criterion_2_spt_optimality():
    """sjf(time) total waiting equals the enumerated minimum, 200 batches."""
    rng = random.Random(1002)
    exact = 0
    for _ in range(200):
        ps = random_batch(rng, rng.randint(1, 8))
        schedule = sjf(ps, SortKey.TIME)
        total_wait = sum(schedule.completion(p.id) - p.time for p in ps)
        if total_wait == brute_schedule(ps).cost:
            exact += 1
    report(2, "spt-optimality", exact == 200)


def test_criterion_3_buddy_equivalence():
    """Combinator buddy matches the reference allocator extent-for-extent
    over 100 random sequences; final stores have no free buddy pairs."""
    rng = random.Random(1003)
    ok = True
    for _ in range(100):
        capacity = rng.choice([16, 32, 64, 128, 256])
        tree = organize_buddy(capacity)
        ref = ReferenceBuddy(capacity)
        live = {}
        key = 0
        for _ in range(200):
            if live and rng.random() < 0.45:
                victim = rng.choice(sorted(live))
                tree.release(live.pop(victim))
                ref.free(victim)
            else:
                key += 1
                q = rng.randint(1, max(1, capacity // 2))
                try:
                    extent = tree.allocate(q)
                except AllocationFailure:
                    try:
                        ref.alloc(key, q)
                        ok = False
                    except NoFreeBlock:
                        pass
                    continue
                start, size = ref.alloc(key, q)
                ok = ok and (extent.start, extent.end) == (start, start + size)
                live[key] = extent
        ok = ok and sorted(
            (e.start, e.end) for e in tree.free_extents()
        ) == ref.free_extent_pairs()
        # no free block has a free buddy: the block of its size at start ^ size
        free = {(e.start, e.size) for e in tree.free_extents()}
        ok = ok and not any((start ^ size, size) in free for start, size in free)
    report(3, "buddy-equivalence", ok)


def test_criterion_4_conservation_and_disjointness(monkeypatch):
    """Strict-mode regression runs raise on any conservation or
    disjointness breach; zero breaches expected."""
    monkeypatch.setenv("OSALG_STRICT", "1")
    ok = True
    for name, workload, cfg in regression_runs():
        try:
            run(workload, cfg)  # strict taken from the environment
        except Exception:
            ok = False
    report(4, "conservation-and-disjointness", ok)


def test_criterion_5_cpu_non_reusability():
    """Disjoint slices everywhere; RR fairness bound on 100 workloads."""
    rng = random.Random(1005)
    ok = True
    for _ in range(100):
        ps = random_batch(rng, rng.randint(2, 10))
        q = rng.randint(1, 4)
        schedule = round_robin(ps, q)
        clock = 0
        for s in schedule:
            if s.start < clock:
                ok = False
            clock = s.end
        turns = {p.id: 0 for p in ps}
        done = {p.id: 0 for p in ps}
        for s in schedule:
            turns[s.pid] += 1
            done[s.pid] += s.length
            unfinished = [p.id for p in ps if done[p.id] < p.time]
            counts = [turns[pid] for pid in unfinished]
            if counts and max(counts) - min(counts) > 1:
                ok = False
    for make in (fcfs, lambda ps: sjf(ps, SortKey.TIME)):
        for _ in range(20):
            schedule = make(random_batch(rng, rng.randint(1, 20)))
            clock = 0
            for s in schedule:
                if s.start < clock:
                    ok = False
                clock = s.end
    report(5, "cpu-non-reusability", ok)


def test_criterion_6_binding_validation():
    """Page-table scenario valid under both independent orders; one
    violation when use precedes bind; simulator logs clean; exactly two
    legal orders."""
    deps = frozenset({("frames", "page-table"), ("pages", "page-table")})
    ok = True
    for first, second in (("frames", "pages"), ("pages", "frames")):
        g = BindingGraph(dependencies=deps)
        g = record(g, first, "Bind", 1)
        g = record(g, second, "Bind", 2)
        g = record(g, "page-table", "Bind", 3)
        g = record(g, "page-table", "Use", 4)
        ok = ok and validate(g) == []
    g = BindingGraph(dependencies=deps)
    g = record(g, "frames", "Bind", 1)
    g = record(g, "pages", "Bind", 1)
    g = record(g, "page-table", "Use", 2)
    g = record(g, "page-table", "Bind", 3)
    ok = ok and len(validate(g)) == 1
    for name, workload, cfg in regression_runs():
        trace, _ = run(workload, cfg, strict=True)
        ok = ok and validate(trace.binding) == []
    orders = legal_orderings(["frames", "pages", "page-table"], deps)
    ok = ok and len(orders) == 2
    report(6, "binding-validation", ok)


def test_criterion_7_translation_correctness():
    """Chained translation equals per-layer composition on 2-layer chains
    over up to 256 addresses; faults name the right layer."""
    rng = random.Random(1007)
    ok = True
    for _ in range(40):
        span = rng.randint(2, 256)
        dom1 = rng.sample(range(span), rng.randint(1, span))
        img1 = rng.sample(range(span), len(dom1))
        dom2 = rng.sample(range(span), rng.randint(1, span))
        img2 = rng.sample(range(span), len(dom2))
        m1, m2 = BindingLayer(dict(zip(dom1, img1))), BindingLayer(dict(zip(dom2, img2)))
        for a in range(span):
            try:
                whole = translate(a, [m1, m2])
            except TranslationFault as fault:
                if m1.lookup(a) is None:
                    ok = ok and fault.layer == 1
                else:
                    ok = ok and fault.layer == 2 and m2.lookup(m1.lookup(a)) is None
                continue
            ok = ok and whole == translate(translate(a, [m1]), [m2])
    report(7, "translation-correctness", ok)


def test_criterion_8_determinism():
    """Every regression workload renders byte-identical traces on repeat."""
    ok = True
    for name, workload, cfg in regression_runs():
        first, _ = run(workload, cfg, strict=True)
        second, _ = run(workload, cfg, strict=True)
        ok = ok and render_trace(first).encode() == render_trace(second).encode()
    report(8, "determinism", ok)


def test_criterion_9_hand_checked_end_to_end():
    """Two 4-unit jobs, 3 and 2 CPU units, first-fit over 16 units under
    first-come-first-served: makespan 5, waits 0 and 3."""
    ps = ProcedureSet.of(
        proc(1, size=4, time=3, arrival=0),
        proc(2, size=4, time=2, arrival=0),
    )
    cfg = SimConfig(memory_capacity=16, scheduler="fcfs", allocator="first-fit")
    trace, m = run(ps, cfg, strict=True)
    ok = (
        m.makespan == 5
        and m.waiting[1] == 0
        and m.waiting[2] == 3
        and len(trace.of_kind(EventKind.COMPLETE)) == 2
    )
    report(9, "hand-checked-end-to-end", ok)
