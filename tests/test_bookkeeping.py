"""Memory bookkeeping by delta, checked against the whole-state algorithms
it replaced.

The references below are the former implementations, kept here as
oracles: the buddy grant as a depth-first search of a whole node tree,
the buddy release as a recursive search for the block, the free blocks
as a walk of every leaf, and the identity release as a sort-and-merge of
the whole free list. A reference memory replays every grant and release with
them; the state under test must agree with it after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from osalg import Extent, Organize, Select, compose
from osalg.allocators import (
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
from osalg.combinators import Chunk
from osalg.errors import AllocationFailure, ParameterError

from conftest import encloses, proc

UNIT = 4


# -- the former whole-state algorithms -------------------------------------


@dataclass(frozen=True)
class BuddyNode:
    """One block of a buddy node tree: a childless node is a whole block,
    free or used; a node with children is split."""

    extent: Extent
    used: bool = False
    left: "BuddyNode | None" = None
    right: "BuddyNode | None" = None

    @property
    def is_leaf(self):
        return self.left is None

    def split_extents(self):
        mid = self.extent.start + self.extent.size // 2
        return Extent(self.extent.start, mid), Extent(mid, self.extent.end)


def old_coalesce(extents):
    """Merge adjacent extents into maximal runs, address ordered."""
    merged = []
    for e in sorted(extents, key=lambda x: x.start):
        if e.size == 0:
            continue
        if merged and merged[-1].end == e.start:
            merged[-1] = Extent(merged[-1].start, e.end)
        else:
            merged.append(e)
    return tuple(merged)


def old_buddy_alloc(node, block):
    """Depth-first search for the leftmost free block holding `block`."""
    if node.used or node.extent.size < block:
        return None
    if node.is_leaf:
        if node.extent.size == block:
            return replace(node, used=True), node.extent
        left_ext, right_ext = node.split_extents()
        child, extent = old_buddy_alloc(BuddyNode(left_ext), block)
        return BuddyNode(node.extent, left=child, right=BuddyNode(right_ext)), extent
    for side in ("left", "right"):
        sub = old_buddy_alloc(getattr(node, side), block)
        if sub is not None:
            return replace(node, **{side: sub[0]}), sub[1]
    return None


def old_buddy_free(node, extent):
    if node.is_leaf:
        if node.used and node.extent == extent:
            return BuddyNode(node.extent)
        return None
    for side in ("left", "right"):
        child = getattr(node, side)
        if encloses(child.extent, extent):
            freed = old_buddy_free(child, extent)
            if freed is None:
                return None
            merged = replace(node, **{side: freed})
            left, right = merged.left, merged.right
            if left.is_leaf and right.is_leaf and not left.used and not right.used:
                return BuddyNode(node.extent)
            return merged
    return None


def old_buddy_leaves(node):
    if node.is_leaf:
        yield node.extent, node.used
    else:
        yield from old_buddy_leaves(node.left)
        yield from old_buddy_leaves(node.right)


class ReferenceMemory:
    """Free space kept by the former algorithms, one grant or release at a
    time; `kind` is "identity", "fixed" or "buddy"."""

    def __init__(self, kind, capacity):
        self.kind = kind
        self.allocated = {}
        if kind == "buddy":
            self.root = BuddyNode(Extent(0, capacity))
        elif kind == "fixed":
            self.units = tuple(
                Extent(i, i + UNIT) for i in range(0, capacity - UNIT + 1, UNIT)
            )
        else:
            self.runs = (Extent(0, capacity),) if capacity else ()

    @property
    def free(self):
        if self.kind == "buddy":
            return tuple(e for e, used in old_buddy_leaves(self.root) if not used)
        # the store keeps free units as coalesced runs of whole units
        return old_coalesce(self.units) if self.kind == "fixed" else self.runs

    def grant(self, pid, q, segments=None, pages=None):
        """The extents granted, or AllocationFailure with nothing changed."""
        if q == 0 and pages is None:
            granted = ()
        elif self.kind == "buddy":
            found = old_buddy_alloc(self.root, 1 << (q - 1).bit_length())
            if found is None:
                raise AllocationFailure("reference: no block")
            self.root, extent = found
            granted = (extent,)
        elif self.kind == "fixed":
            count = 1 if pages is None else pages
            if (pages is None and q > UNIT) or count > len(self.units):
                raise AllocationFailure("reference: no unit")
            granted, self.units = self.units[:count], self.units[count:]
        else:
            runs, taken = self.runs, []
            for length in segments or (q,):
                hole = next((e for e in runs if e.size >= length), None)
                if hole is None:
                    raise AllocationFailure("reference: no run")
                grant = Extent(hole.start, hole.start + length)
                taken.append(grant)
                rebuilt = []
                for e in runs:
                    if e.start == grant.start:
                        if grant.end < e.end:
                            rebuilt.append(Extent(grant.end, e.end))
                    else:
                        rebuilt.append(e)
                runs = tuple(rebuilt)
            self.runs, granted = runs, tuple(taken)
        self.allocated[pid] = granted
        return granted

    def release(self, pid):
        extents = self.allocated.pop(pid)
        if self.kind == "buddy":
            for e in extents:
                self.root = old_buddy_free(self.root, e)
        elif self.kind == "fixed":
            self.units = tuple(sorted(self.units + extents, key=lambda e: e.start))
        else:
            self.runs = old_coalesce(self.runs + extents)


# -- the differential test -------------------------------------------------

ORGANIZERS = {
    "identity": (Organize.identity(), 40),
    "fixed": (Organize.fixed_partition(UNIT), 50),  # 2 units of residue
    "buddy": (Organize.buddy(), 64),
}
BACKING = 24

OPS = st.lists(
    st.tuples(
        st.sampled_from(["grant", "grant", "release", "swap_out", "swap_in"]),
        st.integers(0, 20),
        st.booleans(),
    ),
    max_size=60,
)


def assert_agrees(m, ref):
    assert m.free == ref.free
    assert m.free_total == sum(e.size for e in m.free)
    largest = max((e.size for e in m.free), default=0)
    if m.unit_size is not None:  # a fixed-partition grant takes one unit
        largest = min(largest, m.unit_size)
    assert m.largest_free() == largest
    m.check_invariants()


def expect_same(attempt, reference):
    """Run both; they must fail together or succeed together."""
    try:
        expected = reference()
    except AllocationFailure:
        with pytest.raises(AllocationFailure):
            attempt()
        return None, None
    return attempt(), expected


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(ORGANIZERS)), ops=OPS)
# a larger free block left of a smaller one: leftmost fit, not best fit
@example(kind="buddy", ops=[("grant", 8, False), ("grant", 1, False),
                            ("release", 0, False), ("grant", 1, False)])
# a release merging buddies all the way up to the root
@example(kind="buddy", ops=[("grant", 1, False), ("release", 0, False)])
# a unit released ahead of the free units goes back in address order
@example(kind="fixed", ops=[("grant", 1, False), ("grant", 1, False),
                            ("release", 0, False)])
# a release between two free runs merges with both
@example(kind="identity", ops=[("grant", 4, False), ("grant", 4, False),
                               ("grant", 4, False), ("release", 0, False),
                               ("release", 1, False), ("release", 0, False)])
def test_bookkeeping_matches_whole_state_algorithms(kind, ops):
    organizer, capacity = ORGANIZERS[kind]
    m = MemoryState.initial(capacity, organizer)
    backing = MemoryState.initial(BACKING, Organize.identity())
    ref, ref_backing = ReferenceMemory(kind, capacity), ReferenceMemory("identity", BACKING)
    discipline = compose(Select.first_fit(), organizer)
    segmented = compose(Select.first_fit(), organizer, Chunk.segments())
    resident, swapped = [], []
    pid = 0
    for op, n, flag in ops:
        if op == "grant":
            pid += 1
            if kind == "identity" and flag and n > 1:
                cut = n // 2
                p = proc(pid, size=n, segments=(cut, n - cut))
                got, expected = expect_same(
                    lambda: segment_alloc(segmented, m, p),
                    lambda: ref.grant(p.id, n, segments=p.segments),
                )
                if got is not None:
                    assert tuple(base for _, _, base in got.segments) == \
                        tuple(e.start for e in expected)
            elif kind == "fixed" and flag:
                p = proc(pid, size=n)
                pages = paginate(p, UNIT)
                got, expected = expect_same(
                    lambda: build_page_table(pages, m),
                    lambda: ref.grant(p.id, n, pages=pages.page_count),
                )
            else:
                p = proc(pid, size=n if kind != "fixed" else n % (UNIT + 2))
                got, expected = expect_same(
                    lambda: allocate(discipline, m, p),
                    lambda: ref.grant(p.id, p.size),
                )
                if got is not None:
                    assert got == expected  # buddy: the DFS's block
            if got is not None:
                assert m.extents_of(p.id) == expected
                resident.append(p)
        elif op == "release" and resident:
            p = resident.pop(n % len(resident))
            assert deallocate(m, p.id) == ref.allocated[p.id]
            ref.release(p.id)
        elif op == "swap_out" and resident:
            victim = min(resident, key=victim_key)
            try:
                record = swap_out(m, backing, victim)
            except AllocationFailure:
                with pytest.raises(AllocationFailure):
                    ref_backing.grant(victim.id, victim.size)
            else:
                assert ref_backing.grant(record.pid, victim.size) == record.backing_extents
                ref.release(record.pid)
                resident = [q for q in resident if q.id != record.pid]
                swapped.append((record, victim))
        elif op == "swap_in" and swapped:
            record, p = swapped[0]
            if kind == "fixed":
                shape = {"pages": -(-p.size // UNIT)}
            else:
                shape = {"segments": p.segments}
            got, expected = expect_same(
                lambda: swap_in(m, backing, record),
                lambda: ref.grant(record.pid, p.size, **shape),
            )
            if got is not None:
                assert got == expected
                ref_backing.release(record.pid)
                swapped.pop(0)
                resident.append(p)
        assert_agrees(m, ref)
        assert_agrees(backing, ref_backing)


# -- strict checks still see a broken store shape or total ----------------


def buddy_memory_with_a_grant():
    m = MemoryState.initial(16, Organize.buddy())
    allocate(compose(Select.first_fit(), Organize.buddy()), m, proc(1, size=3))
    return m


class TestChecksBite:
    def test_clean_states_pass(self):
        buddy_memory_with_a_grant().check_invariants()

    def test_free_blocks_that_are_unmerged_buddies(self):
        m = buddy_memory_with_a_grant()
        # the same units, cut differently: conservation still holds
        wrong = (Extent(4, 6), Extent(6, 8), Extent(8, 16))
        m.store = replace(m.store, free_leaves=wrong)
        with pytest.raises(ParameterError, match="unmerged buddies"):
            m.check_invariants()

    @pytest.mark.parametrize("organizer", [
        Organize.identity(), Organize.fixed_partition(UNIT),
    ])
    def test_free_run_that_is_not_maximal(self, organizer):
        m = MemoryState.initial(16, organizer)
        m.store = replace(m.store, runs=(Extent(0, 8), Extent(8, 16)))
        with pytest.raises(ParameterError, match="not maximal"):
            m.check_invariants()

    def test_free_run_that_is_not_unit_aligned(self):
        m = MemoryState.initial(16, Organize.fixed_partition(UNIT))
        # [0, 2) held and one free run from mid-unit: conservation and
        # the carried total both hold
        m.allocated[1] = (Extent(0, 2),)
        m.store, m.free_total = replace(m.store, runs=(Extent(2, 16),)), 14
        with pytest.raises(ParameterError, match="not aligned"):
            m.check_invariants()

    @pytest.mark.parametrize("organizer", [
        Organize.identity(), Organize.fixed_partition(UNIT), Organize.buddy(),
    ])
    def test_wrong_carried_total(self, organizer):
        m = MemoryState.initial(16, organizer)
        m.free_total -= 1
        with pytest.raises(ParameterError, match="carried free total"):
            m.check_invariants()
