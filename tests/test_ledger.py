"""The simulator's memory ledger against the pure memory state it stands
in for.

The same random sequence of grants (plain, segmented and paged),
releases, swap-outs and swap-ins runs on a pair of ``MemoryState``
values and on a pair of ``MemoryLedger``s built from them. After every
step both must have raised the same exception type or returned the same
result; the ledgers' snapshots must equal the states; the states given
as inputs must be as they were; and a ledger's fields must change
exactly when the matching state was replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from osalg import Extent, Organize, Select, compose
from osalg.allocators import (
    MemoryLedger,
    MemoryState,
    allocate,
    build_page_table,
    deallocate,
    paginate,
    segment_alloc,
    swap_in,
    swap_out,
    victim_key,
)
from osalg.combinators import BuddyTree
from osalg.errors import AllocationFailure, OsAlgError, SwapFailure

from conftest import proc

UNIT = 4
BACKING = 24

# organization -> (organizer, primary capacity)
ORGANIZATIONS = {
    "identity": (Organize.identity(), 40),
    "fixed": (Organize.fixed_partition(UNIT), 50),  # 2 units of residue
    "buddy": (Organize.buddy(), 64),
    "paging": (Organize.fixed_partition(UNIT), 48),
}

# the memories, primary then backing, that a successful step replaces
TOUCHES = {
    "grant": (True, False),
    "regrant": (True, False),
    "release": (True, False),
    "swap_out": (True, True),
    "swap_in": (True, True),
}

OPS = st.lists(
    st.tuples(
        st.sampled_from(["grant", "grant", "regrant", "release", "swap_out", "swap_in"]),
        st.integers(0, 20),
        st.booleans(),
    ),
    max_size=60,
)


def grant_step(kind, discipline, p):
    """The step that grants p as `kind` memory does: a page table under
    paging, declared segments when p has them, else one plain grant."""
    if kind == "paging":
        def step(m, backing):
            table, m = build_page_table(paginate(p, UNIT), m)
            return m, backing, table
    elif p.segments is not None:
        def step(m, backing):
            seg_map, m = segment_alloc(p, p.segments, discipline, m)
            return m, backing, seg_map
    else:
        def step(m, backing):
            m, granted = allocate(discipline, m, p)
            return m, backing, granted
    return step


def attempt(step, m, backing):
    """The step's (primary, backing, result), or the type it raised."""
    try:
        return step(m, backing)
    except OsAlgError as exc:
        return type(exc)


def fields(m):
    return dict(m.allocated), m.store, m.free_total


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(ORGANIZATIONS)), ops=OPS)
# a swap-in of a record whose procedure is already back, and released
@example(kind="identity", ops=[("grant", 6, True), ("grant", 4, False),
                               ("release", 1, False), ("swap_out", 0, False),
                               ("swap_in", 0, False), ("release", 2, False),
                               ("swap_in", 0, False)])
# a buddy grant past the free total fails before the tree is searched
@example(kind="buddy", ops=[("grant", 20, False), ("grant", 20, False),
                            ("grant", 20, False)])
def test_ledger_agrees_with_memory_state(kind, ops):
    organizer, capacity = ORGANIZATIONS[kind]
    states = (MemoryState.initial(capacity, organizer), MemoryState.initial(BACKING))
    ledgers = tuple(MemoryLedger(state) for state in states)
    select = Select.buddy_fit() if kind == "buddy" else Select.first_fit()
    discipline = compose(select, organizer)
    procs, records = {}, []  # records stay listed after their swap-in
    for op, n, flag in ops:
        if op == "grant":
            size = n % (UNIT + 2) if kind == "fixed" else n
            cut = n // 2
            segments = (cut, n - cut) if kind == "identity" and flag and n > 1 else None
            p = proc(len(procs) + 1, size=size, segments=segments)
            procs[p.id] = p
            step = grant_step(kind, discipline, p)
        elif op == "regrant" and procs:
            step = grant_step(kind, discipline, procs[sorted(procs)[n % len(procs)]])
        elif op == "release":
            pid = n % (len(procs) + 2)  # at times one that holds nothing

            def step(m, backing, pid=pid):
                return deallocate(m, pid), backing, None
        elif op == "swap_out":
            residents = list(procs.values())

            def step(m, backing, residents=residents):
                held = [p for p in residents if m.holds(p.id)]
                if not held:
                    raise SwapFailure("no resident holds memory")
                return swap_out(m, backing, min(held, key=victim_key))
        elif op == "swap_in" and records:
            record = records[n % len(records)]

            def step(m, backing, record=record):
                return swap_in(m, backing, record)
        else:
            continue
        saved = [fields(state) for state in states]
        kept = [fields(ledger) for ledger in ledgers]
        expected = attempt(step, *states)
        got = attempt(step, *ledgers)
        assert [fields(state) for state in states] == saved  # inputs unchanged
        if isinstance(expected, type):
            assert got is expected
            assert [fields(ledger) for ledger in ledgers] == kept
        else:
            assert not isinstance(got, type), got
            assert got[2] == expected[2]
            assert got[0] is ledgers[0] and got[1] is ledgers[1]
            for old, new, ledger, before, touched in zip(
                states, expected, ledgers, kept, TOUCHES[op]
            ):
                assert (new is not old) == touched
                assert (fields(ledger) != before) == touched
            states = expected[:2]
            if op == "swap_out":
                records.append(expected[2])
        for state, ledger in zip(states, ledgers):
            snapshot = ledger.snapshot()
            assert snapshot.allocated == state.allocated
            assert snapshot.free == state.free
            assert snapshot.free_total == state.free_total
            assert snapshot == state
        states[0].check_invariants()
        states[1].check_invariants()


def test_snapshot_is_a_value():
    """A snapshot keeps the ledger's state as it was when taken."""
    ledger = MemoryLedger(MemoryState.initial(16))
    discipline = compose(Select.first_fit(), Organize.identity())
    allocate(discipline, ledger, proc(1, size=4))
    before = ledger.snapshot()
    allocate(discipline, ledger, proc(2, size=4))
    deallocate(ledger, 1)
    assert dict(before.allocated) == {1: (Extent(0, 4),)}
    assert before.free_total == 12 and ledger.free_total == 12
    assert dict(ledger.allocated) == {2: (Extent(4, 8),)}


def test_a_grant_past_the_free_total_fails_before_the_store(monkeypatch):
    searched = []
    real_grant = BuddyTree.grant

    def counted_grant(tree, pieces):
        searched.append(tuple(pieces))
        return real_grant(tree, pieces)

    monkeypatch.setattr(BuddyTree, "grant", counted_grant)
    discipline = compose(Select.buddy_fit(), Organize.buddy())
    m, _ = allocate(discipline, MemoryState.initial(16, Organize.buddy()), proc(1, size=8))
    with pytest.raises(AllocationFailure):
        allocate(discipline, m, proc(2, size=9))
    assert searched == [(8,)]
