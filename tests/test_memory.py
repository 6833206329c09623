"""The memory, updated in place, keeps its books through any sequence of
operations.

A random sequence of grants (plain, chunked, segmented and paged),
releases, swap-outs and swap-ins runs on a primary and a backing
``MemoryState``.
After every step both memories pass their full check. An operation that
raises leaves `allocated`, `store` and `free_total` of both exactly as
they were. One that succeeds changes only the memories it touches, and
returns what it granted or freed, which the memory then holds or no
longer holds, with the free total moved by its size.

Every memory and free store keeps one contract. A refused grant, swap-out
or swap-in raises ``AllocationFailure``, whichever memory refuses. A free
store takes back only what it could have granted: a release of an extent
that is empty, ends past the memory or in a fixed partition's residue,
overlaps a free extent, or is not whole units (free runs under a unit)
or an aligned block (the buddy tree) raises ``NotFoundError``, and the
store stays as it was, so a second release of the same extents is
refused too. What counts as foreign is decided here, from the memory's
capacity, residue and free extents, without asking the store.

Whether a procedure can ever be resident is a question about the memory,
not about what it holds now: every store a memory reaches answers
``fits`` as its empty store does.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from osalg import Extent, Organize, Select, compose
from osalg.allocators import (
    MemoryState,
    PageMap,
    allocate,
    build_page_table,
    deallocate,
    paginate,
    segment_alloc,
    swap_in,
    swap_out,
    victim_key,
)
from osalg.combinators import BuddyTree, Chunk
from osalg.errors import AllocationFailure, NotFoundError, OsAlgError

from conftest import proc

UNIT = 4
BACKING = 24

# organization -> (organizer, primary capacity, chunk of a plain grant)
ORGANIZATIONS = {
    "identity": (Organize.identity(), 40, Chunk.whole()),
    "fixed": (Organize.fixed_partition(UNIT), 50, Chunk.whole()),  # 2 units of residue
    "buddy": (Organize.buddy(), 64, Chunk.whole()),
    "buddy-chunked": (Organize.buddy(), 64, Chunk.fixed(UNIT)),  # a block per piece
    "paging": (Organize.fixed_partition(UNIT), 48, Chunk.whole()),
}
# the organizations whose procedures may declare segments
SEGMENTED = ("identity", "fixed", "buddy")

# the memories, primary then backing, that a successful step changes
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
        return lambda m, backing: build_page_table(paginate(p, UNIT), m)
    if p.segments is not None:
        segmented = replace(discipline, chunk=Chunk.segments())
        return lambda m, backing: segment_alloc(segmented, m, p)
    return lambda m, backing: allocate(discipline, m, p)


def fields(m):
    return dict(m.allocated), m.store.free_extents(), m.free_total


def units(extents):
    return sum(e.size for e in extents)


def lengths(extents):
    return tuple(e.size for e in extents)


def check_result(op, result, pid, before, memories):
    """What a successful step returned against what it changed."""
    (held, _, free), (backing_held, _, backing_free) = before
    m, backing = memories
    if op in ("grant", "regrant"):
        granted = m.allocated[pid]
        if isinstance(result, PageMap):
            assert [f for _, f in result.entries] == [e.start // UNIT for e in granted]
        elif result and isinstance(result[0], tuple):  # segment_alloc's segments
            assert [base for _, _, base in result] == [e.start for e in granted]
        else:
            assert result == granted
        assert m.free_total == free - units(granted)
    elif op == "release":
        assert result == held[pid] and pid not in m.allocated
        assert m.free_total == free + units(result)
    elif op == "swap_out":
        assert result == backing.allocated[pid]
        assert pid not in m.allocated and m.free_total == free + units(held[pid])
        assert backing.free_total == backing_free - units(result)
    else:
        assert result == m.allocated[pid] and pid not in backing.allocated
        assert m.free_total == free - units(result)
        assert backing.free_total == backing_free + units(backing_held[pid])


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
# a grant of several blocks, swapped out, swapped in and released
@example(kind="buddy-chunked", ops=[("grant", 6, False), ("swap_out", 0, False),
                                    ("swap_in", 0, False), ("release", 1, False)])
def test_a_step_changes_memory_only_when_it_succeeds(kind, ops):
    organizer, capacity, chunk = ORGANIZATIONS[kind]
    memories = (MemoryState.initial(capacity, organizer), MemoryState.initial(BACKING))
    stores = [m.store for m in memories]  # each changed in place, never replaced
    discipline = compose(Select.first_fit(), organizer, chunk)
    # (pid, the lengths it held) a swap-out, listed still after its swap-in
    procs, records = {}, []
    for op, n, flag in ops:
        if op == "grant":
            size = n % (UNIT + 2) if kind == "fixed" else n
            cut = size // 2
            segments = (cut, size - cut) if kind in SEGMENTED and flag and size > 1 else None
            p = proc(len(procs) + 1, size=size, segments=segments)
            procs[p.id] = p
            pid, step = p.id, grant_step(kind, discipline, p)
        elif op == "regrant" and procs:
            p = procs[sorted(procs)[n % len(procs)]]
            pid, step = p.id, grant_step(kind, discipline, p)
        elif op == "release":
            pid = n % (len(procs) + 2)  # at times one that holds nothing

            def step(m, backing, pid=pid):
                return deallocate(m, pid)
        elif op == "swap_out":
            held = [p for p in procs.values() if p.id in memories[0].allocated]
            victim = min(held, key=victim_key) if held else None
            pid = None if victim is None else victim.id

            def step(m, backing, victim=victim):
                if victim is None:
                    raise AllocationFailure("no resident holds memory")
                return swap_out(m, backing, victim)
        elif op == "swap_in" and records:
            pid, pieces = records[n % len(records)]

            def step(m, backing, pid=pid, pieces=pieces):
                return swap_in(m, backing, pid, pieces)
        else:
            continue
        before = [fields(m) for m in memories]
        try:
            result = step(*memories)
        except OsAlgError:
            assert [fields(m) for m in memories] == before
            assert all(m.store is store for m, store in zip(memories, stores))
        else:
            for m, b, touched in zip(memories, before, TOUCHES[op]):
                assert (fields(m) != b) == touched
            check_result(op, result, pid, before, memories)
            if op == "swap_out":
                records.append((pid, lengths(before[0][0][pid])))
            elif op == "swap_in":  # the lengths held, whatever the store rounds
                assert lengths(result) == pieces
        memories[0].check_invariants()
        memories[1].check_invariants()


def test_a_grant_past_the_free_total_fails_before_the_store(monkeypatch):
    searched = []
    real_grant = BuddyTree.grant

    def counted_grant(tree, pieces):
        searched.append(tuple(pieces))
        return real_grant(tree, pieces)

    monkeypatch.setattr(BuddyTree, "grant", counted_grant)
    discipline = compose(Select.first_fit(), Organize.buddy())
    m = MemoryState.initial(16, Organize.buddy())
    allocate(discipline, m, proc(1, size=8))
    with pytest.raises(AllocationFailure):
        allocate(discipline, m, proc(2, size=9))
    assert searched == [(8,)]


def foreign(m, e):
    """Whether no grant of m's store can have given `e`: it is empty, ends
    past the memory or in its residue, lies across a free extent, or is
    not whole units, or not a buddy block."""
    end = m.capacity if m.residue is None else m.residue.start
    if e.start >= e.end or e.end > end or any(
            f.start < e.end and e.start < f.end for f in m.free):
        return True
    if m.unit_size is not None:
        return bool(e.start % m.unit_size or e.end % m.unit_size)
    if m.organizer == Organize.buddy():
        return bool(e.size & (e.size - 1) or e.start % e.size)
    return False


def assert_refused(store, *extents):
    """The store refuses to take back `extents`, and stays as it was."""
    before = store.free_extents()
    with pytest.raises(NotFoundError):
        store.release(*extents)
    assert store.free_extents() == before


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(ORGANIZATIONS)), ops=OPS,
       bounds=st.tuples(st.integers(0, 64), st.integers(0, 64)))
# every refusal: a grant too large, a swap-out the backing store cannot
# hold, and a swap-in with primary memory full again
@example(kind="identity", ops=[("grant", 16, False), ("grant", 16, False),
                               ("grant", 8, False), ("grant", 8, True),
                               ("swap_out", 0, False), ("grant", 16, False),
                               ("swap_out", 0, False), ("swap_in", 0, False),
                               ("grant", 40, False)],
         bounds=(0, 0))
@example(kind="paging", ops=[("grant", 16, False), ("grant", 16, False),
                             ("grant", 16, False), ("grant", 4, False),
                             ("swap_out", 0, False), ("grant", 16, False),
                             ("swap_out", 0, False), ("swap_in", 0, False)],
         bounds=(5, 9))
@example(kind="buddy-chunked", ops=[("grant", 24, False), ("grant", 24, False),
                                    ("grant", 16, False), ("grant", 65, False),
                                    ("swap_out", 0, False), ("grant", 24, False),
                                    ("swap_out", 0, False), ("swap_in", 0, False),
                                    ("release", 1, False)],
         bounds=(4, 12))
@example(kind="buddy", ops=[("grant", 65, False), ("grant", 9, True),
                            ("grant", 3, False), ("release", 1, False)],
         bounds=(4, 12))
# an extent past the end of the memory, beside its last free run, and one
# that runs into a fixed partition's residue, though it is whole units
@example(kind="identity", ops=[("grant", 4, False)], bounds=(40, 44))
@example(kind="fixed", ops=[("grant", 4, False)], bounds=(48, 52))
def test_every_memory_keeps_one_contract(kind, ops, bounds):
    organizer, capacity, chunk = ORGANIZATIONS[kind]
    memories = (MemoryState.initial(capacity, organizer), MemoryState.initial(BACKING))
    primary, backing = memories
    discipline = compose(Select.first_fit(), organizer, chunk)
    procs, records = {}, []
    for op, n, flag in ops:
        # only steps a memory may refuse for want of room
        if op == "grant":
            size = n % (UNIT + 2) if kind == "fixed" else n
            cut = size // 2
            segments = (cut, size - cut) if kind in SEGMENTED and flag and size > 1 else None
            p = proc(len(procs) + 1, size=size, segments=segments)
            procs[p.id] = p
            step = grant_step(kind, discipline, p)
        elif op == "release" and primary.allocated:
            pid = sorted(primary.allocated)[n % len(primary.allocated)]
            step = lambda m, backing, pid=pid: deallocate(m, pid)
        elif op == "swap_out" and primary.allocated:
            victim = min((procs[pid] for pid in primary.allocated), key=victim_key)
            record = (victim.id, lengths(primary.allocated[victim.id]))
            step = lambda m, backing, v=victim, r=record: (swap_out(m, backing, v),
                                                           records.append(r))
        elif op == "swap_in" and records:
            step = lambda m, backing, r=records[0]: (swap_in(m, backing, *r),
                                                     records.remove(r))
        else:
            continue
        before = [fields(m) for m in memories]
        try:
            step(*memories)
        except AllocationFailure:
            assert [fields(m) for m in memories] == before
        # each store refuses its holders' extents a second time, and an
        # extent it cannot have granted, alone or after one it granted
        e = Extent(min(bounds), max(bounds))
        for m in memories:
            for held in m.allocated.values():
                if held:
                    released = copy.deepcopy(m.store)
                    released.release(*held)
                    assert_refused(released, *held)
            if foreign(m, e):
                assert_refused(m.store, e)
                granted = next((held for held in m.allocated.values() if held), ())
                assert_refused(m.store, *granted, e)


# every chunk a memory grant is cut by, segments included
CHUNKS = (Chunk.whole(), Chunk.fixed(UNIT), Chunk.fixed(3), Chunk.segments())


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(ORGANIZATIONS)), ops=OPS,
       sizes=st.lists(st.tuples(st.integers(1, 70), st.booleans()), min_size=1,
                      max_size=4))
# a store with half its one run granted, asked for more than half, and a
# partitioned store with one frame granted, asked for every frame
@example(kind="identity", ops=[("grant", 20, False)], sizes=[(30, False)])
@example(kind="fixed", ops=[("grant", 4, False)], sizes=[(48, False)])
def test_fits_depends_only_on_the_memory(kind, ops, sizes):
    """Under every chunk, a store reached through grants and releases
    answers `fits` as the empty store of the same memory does."""
    organizer, capacity, chunk = ORGANIZATIONS[kind]
    m = MemoryState.initial(capacity, organizer)
    empty = m.store
    discipline = compose(Select.first_fit(), organizer, chunk)
    probes = [proc(100 + i, size=size, segments=(size - size // 2, size // 2)
                   if split and size > 1 else None)
              for i, (size, split) in enumerate(sizes)]
    for pid, (op, n, _) in enumerate(ops, start=1):
        if op == "grant":
            size = n % (UNIT + 2) if kind == "fixed" else n
            try:
                grant_step(kind, discipline, proc(pid, size=size))(m, None)
            except AllocationFailure:
                pass
        elif op == "release" and m.allocated:
            deallocate(m, sorted(m.allocated)[n % len(m.allocated)])
        for c in CHUNKS:
            for p in probes:
                assert m.store.fits(c, p) == empty.fits(c, p), (c, p)
