"""The select/organize algebra.

An ``Organize`` reshapes a set without creating or destroying members:
identity keeps the order, sort reorders procedures by a projection,
fixed-size partitioning cuts memory into equal allocation units, and the
buddy organizer views it as a binary tree of power-of-two blocks, a tree
implicit in the block addresses, so that only the free blocks are kept.
Organizing a memory, given by its capacity, gives its free store. A
``Select`` returns a member of the organized set, or, over a free store,
the one extent the store's own grant gives for the demand: first fit,
the one memory select, so allocators differ only in organize and chunk.
A ``Chunk`` cuts a demand, of CPU time or of memory, into the pieces it
is served in. Composing one of each yields a ``Discipline``, the
executable form of a resource-management algorithm:
first-come-first-served is identity selection over an identity
organization, shortest-job-first is identity selection over a sort,
buddy allocation is first fit over the buddy organization,
round robin is first-come-first-served in fixed chunks, and paging is
first fit over fixed partitions in chunks of the partition size.

Organize always runs before select, and either half may be constructed
first: disciplines are plain values.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

from .core import Extent, Procedure, ProcedureSet, address_order, arrival_order
from .errors import (
    AllocationFailure,
    BoundsError,
    CompositionError,
    NotFoundError,
    ParameterError,
)


class SortKey(Enum):
    """Projection an organize_sort orders by."""

    SIZE = "size"
    TIME = "time"
    PRIORITY = "priority"

    def value_of(self, p: Procedure) -> int:
        if not isinstance(p, Procedure):
            raise ParameterError(f"sort keys apply to procedures, got {type(p).__name__}")
        if self is SortKey.PRIORITY:
            if p.priority is None:
                raise ParameterError(f"procedure {p.id} has no priority")
            return p.priority
        return p.size if self is SortKey.SIZE else p.time


@dataclass(slots=True)
class FreeRuns:
    """The free store of identity and fixed-partition organized memory:
    address-ordered maximal free runs (Wilson et al. 1995) inside
    ``[0, capacity)``, capacity being the units the runs may cover: the
    whole memory, or its whole units under a fixed partition. Under a
    `unit`, every grant piece is rounded up to one whole unit and every
    run is unit aligned, so first fit takes the lowest free unit.

    Like ``BuddyTree``, a store changes in place, with ``grant`` (of the
    pieces a chunk cut), ``release`` (of the extents one grant gave),
    ``fits``, ``free_extents``, ``largest`` and ``check``. A grant or
    release that raises leaves the store as it was.
    """

    capacity: int
    runs: list[Extent]
    unit: int | None = None

    def grant(self, pieces: Sequence[int]) -> tuple[Extent, ...]:
        """First fit of each piece in turn, under a unit one sweep of whole
        units from the lowest free one; ParameterError when a piece is
        below 1 and AllocationFailure when one does not fit."""
        return _grant_each(self, pieces, self._take)

    def _take(self, q: int) -> Extent:
        """The first fit of q units, or of one whole unit, taken out of the runs."""
        runs, unit = self.runs, self.unit
        if unit is not None:
            if q < 1:
                raise ParameterError(f"demand must be >= 1, got {q}")
            if q > unit:
                raise AllocationFailure(f"demand {q} exceeds the {unit}-unit partitions")
            q = unit
        extent = select_first_fit(runs, q)
        i = bisect_left(runs, extent.start, key=address_order)
        if extent.end < runs[i].end:
            runs[i] = Extent(extent.end, runs[i].end)
        else:
            del runs[i]
        return extent

    def release(self, *extents: Extent) -> None:
        """Merge the extents one grant gave with the runs they touch;
        NotFoundError unless each is non-empty, ends by the capacity, is
        whole units under a unit, and overlaps no free run."""
        runs, unit = self.runs, self.unit
        before = runs[:] if len(extents) > 1 else None
        for e in extents:
            start, end = e.start, e.end
            i = bisect_left(runs, start, key=address_order)
            if (start >= end or end > self.capacity
                    or (unit is not None and (start % unit or end % unit))
                    or (i < len(runs) and runs[i].start < end)
                    or (i > 0 and runs[i - 1].end > start)):
                if before is not None:
                    runs[:] = before
                raise NotFoundError(f"no allocated extent {e}")
            lo, hi = i, i
            if i > 0 and runs[i - 1].end == start:
                lo -= 1
                start = runs[lo].start
            if i < len(runs) and runs[i].start == end:
                hi += 1
                end = runs[i].end
            runs[lo:hi] = (Extent(start, end),)

    def fits(self, chunk: "Chunk", p: Procedure) -> bool:
        """Whether this store's memory, while empty, grants p's memory cut
        by chunk: whole units, each holding a piece, under a unit, else
        one run. It reads the capacity, not the runs, so it is the same
        for every store of one memory."""
        capacity, unit, size = self.capacity, self.unit, p.size
        if unit is None:
            return size <= capacity
        return chunk.largest(p, size) <= unit and chunk.count(p, size) * unit <= capacity

    def free_extents(self) -> tuple[Extent, ...]:
        return tuple(self.runs)

    def largest(self) -> int:
        """The largest single extent a grant piece can take."""
        if self.unit is not None:
            return self.unit if self.runs else 0
        return max((e.size for e in self.runs), default=0)

    def check(self) -> None:
        """Raise ParameterError unless the runs are non-empty, address
        ordered, maximal and, under a unit, unit aligned."""
        end, unit = -1, self.unit
        for run in self.runs:
            if run.start <= end or run.size == 0:
                raise ParameterError(f"free run {run} is not maximal")
            if unit is not None and (run.start % unit or run.size % unit):
                raise ParameterError(f"free run {run} is not aligned to unit {unit}")
            end = run.end


@dataclass(slots=True)
class BuddyTree:
    """The free store of buddy-organized memory over ``[0, capacity)``:
    its free blocks, address ordered.

    A block of size s is a power of two that starts at a multiple of s,
    and its buddy is the block of the same size at ``start ^ s``
    (Knowlton 1965), so the binary tree of blocks is implicit in the
    addresses and only the free blocks are kept. Grants and releases
    change the store in place, and one that raises leaves it as it was;
    eager merging keeps the invariant that no two free blocks are
    buddies. The tree is a free-block organization (Knuth, TAOCP vol. 1,
    2.5) that first fit selects from: a grant takes the leftmost free
    block that holds the demand, not the smallest one.
    """

    capacity: int
    free_leaves: list[Extent]

    def block_size_for(self, q: int) -> int:
        """Smallest power of two holding a demand of q units."""
        if q < 1:
            raise ParameterError(f"demand must be >= 1, got {q}")
        return 1 << (q - 1).bit_length()

    def allocate(self, q: int) -> Extent:
        """Take the first fit of q units rounded up to a block, split down
        to the block size at the left end of the free block it lies in.

        Raises AllocationFailure when no free block can hold q units.
        """
        free = self.free_leaves
        extent = select_first_fit(free, self.block_size_for(q))
        i = bisect_left(free, extent.start, key=address_order)
        leaf = free[i]
        # the right halves split off stay free, in address order
        start, size, halves = extent.start, extent.size, []
        while size < leaf.size:
            halves.append(Extent(start + size, start + 2 * size))
            size *= 2
        free[i:i + 1] = halves
        return extent

    def release(self, *extents: Extent) -> None:
        """Free the blocks one grant gave, each merged with its free buddy
        all the way up; NotFoundError unless each is an aligned
        power-of-two block inside the memory that overlaps no free
        block."""
        free = self.free_leaves
        before = free[:] if len(extents) > 1 else None
        for extent in extents:
            start, size = extent.start, extent.size
            i = bisect_left(free, start, key=address_order)
            if (size < 1 or size & (size - 1) or start % size
                    or extent.end > self.capacity
                    or (i < len(free) and free[i].start < extent.end)
                    or (i > 0 and free[i - 1].end > start)):
                if before is not None:
                    free[:] = before
                raise NotFoundError(f"no allocated block {extent}")
            lo, hi = i, i
            while size < self.capacity:
                if start & size:  # a right half: its buddy ends where it starts
                    if lo == 0 or free[lo - 1] != Extent(start - size, start):
                        break
                    lo -= 1
                    start -= size
                elif hi == len(free) or free[hi] != Extent(start + size, start + 2 * size):
                    break
                else:
                    hi += 1
                size *= 2
            free[lo:hi] = (Extent(start, start + size),)

    def grant(self, pieces: Sequence[int]) -> tuple[Extent, ...]:
        """One block per piece, each rounded up to a power of two."""
        return _grant_each(self, pieces, self.allocate)

    def fits(self, chunk: "Chunk", p: Procedure) -> bool:
        """Whether this tree, while empty, grants p's memory cut by chunk: its
        pieces' blocks sum to at most the capacity, a power of two, so equal
        pieces but a shorter last one count exactly as that many largest."""
        size = p.size
        if p.segments and chunk.tag is _SEGMENTS:
            blocks = sum(map(self.block_size_for, p.segments))
        else:
            blocks = chunk.count(p, size) * self.block_size_for(chunk.largest(p, size))
        return blocks <= self.capacity

    def free_extents(self) -> tuple[Extent, ...]:
        return tuple(self.free_leaves)

    def largest(self) -> int:
        return max((e.size for e in self.free_leaves), default=0)

    def check(self) -> None:
        """Raise ParameterError unless the free blocks are address ordered,
        disjoint, aligned powers of two inside the memory, and no two of
        them are buddies."""
        end, before = 0, None
        for block in self.free_leaves:
            start, size = block.start, block.size
            if size < 1 or size & (size - 1) or start % size:
                raise ParameterError(f"free block {block} is not an aligned power of two")
            if start < end:
                raise ParameterError(f"free block {block} overlaps or precedes the one before")
            if block.end > self.capacity:
                raise ParameterError(f"free block {block} lies past capacity {self.capacity}")
            # a free buddy pair is adjacent, so its right half follows its left
            if before == Extent(start ^ size, (start ^ size) + size):
                raise ParameterError(f"free blocks {before} and {block} are unmerged buddies")
            end, before = block.end, block


def _grant_each(store: "FreeStore", pieces: Sequence[int],
                take: Callable[[int], Extent]) -> tuple[Extent, ...]:
    """Each piece taken from the store in turn; when one raises, the
    pieces taken before it go back, so the store is as it was."""
    granted: list[Extent] = []
    try:
        for q in pieces:
            granted.append(take(q))
    except (AllocationFailure, ParameterError):
        if granted:
            store.release(*granted)
        raise
    return tuple(granted)


def _members(x: Any) -> tuple:
    """Materialize the members of a set-like value in its current order."""
    if isinstance(x, ProcedureSet):
        return x.members
    return tuple(x)


def organize_identity(x: Any) -> tuple:
    """Leave the set as found: output order equals input order."""
    return _members(x)


def organize_sort(procedures: Any, key: SortKey | str) -> tuple[Procedure, ...]:
    """Stable ascending sort by the key projection, ids breaking ties."""
    key = SortKey(key) if not isinstance(key, SortKey) else key
    members = _members(procedures)
    return tuple(sorted(members, key=lambda p: (key.value_of(p), p.id)))


def organize_buddy(capacity: int) -> BuddyTree:
    """View a memory of `capacity` units as a binary tree of power-of-two
    blocks, all free."""
    if capacity < 1 or capacity & (capacity - 1):
        raise ParameterError(f"buddy capacity must be a power of two, got {capacity}")
    return BuddyTree(capacity, [Extent(0, capacity)])


def select_identity(organized: Any, i: int) -> Any:
    """The i-th member of the organized set, 1-indexed."""
    members = _members(organized)
    if not 1 <= i <= len(members):
        raise BoundsError(f"index {i} outside 1..{len(members)}")
    return members[i - 1]


def select_first_fit(free_extents: Sequence[Extent], q: int) -> Extent:
    """The q-unit prefix of the lowest-addressed free extent holding q."""
    if q < 1:
        raise ParameterError(f"demand must be >= 1, got {q}")
    for free in free_extents:
        if free.end - free.start >= q:
            return Extent(free.start, free.start + q)
    raise AllocationFailure(f"no free extent of {q} units")


def select_argmax_priority(organized: Any) -> Procedure:
    """The highest-priority member, lowest id breaking ties."""
    members = _members(organized)
    if not members:
        raise BoundsError("empty set has no members to select")
    for p in members:
        if not isinstance(p, Procedure) or p.priority is None:
            raise ParameterError("priority selection needs priorities on every member")
    return max(members, key=lambda p: (p.priority, -p.id))


class OrganizeTag(Enum):
    IDENTITY = "identity"
    SORT = "sort"
    FIXED_PARTITION = "fixed-partition"
    BUDDY_TREE = "buddy-tree"


class SelectTag(Enum):
    IDENTITY = "identity"
    FIRST_FIT = "first-fit"
    ARGMAX_PRIORITY = "argmax-priority"


# Set shapes each select knows how to consume.
_COMPATIBLE = {
    SelectTag.IDENTITY: {OrganizeTag.IDENTITY, OrganizeTag.SORT},
    SelectTag.FIRST_FIT: {OrganizeTag.IDENTITY, OrganizeTag.FIXED_PARTITION,
                          OrganizeTag.BUDDY_TREE},
    SelectTag.ARGMAX_PRIORITY: {OrganizeTag.IDENTITY, OrganizeTag.SORT},
}


@dataclass(frozen=True)
class Organize:
    """A tagged organize operation, applicable as a callable."""

    tag: OrganizeTag
    key: SortKey | None = None
    unit_size: int | None = None

    @staticmethod
    def identity() -> "Organize":
        return Organize(OrganizeTag.IDENTITY)

    @staticmethod
    def sort(key: SortKey | str) -> "Organize":
        return Organize(OrganizeTag.SORT, key=SortKey(key))

    @staticmethod
    def fixed_partition(unit_size: int) -> "Organize":
        if unit_size < 1:
            raise ParameterError(f"unit size must be >= 1, got {unit_size}")
        return Organize(OrganizeTag.FIXED_PARTITION, unit_size=unit_size)

    @staticmethod
    def buddy() -> "Organize":
        return Organize(OrganizeTag.BUDDY_TREE)

    def __call__(self, x: Any) -> Any:
        """Organize a set of procedures, or, given a memory's capacity,
        give its free store."""
        if self.tag is OrganizeTag.SORT:
            assert self.key is not None
            return organize_sort(x, self.key)
        if self.tag is OrganizeTag.IDENTITY and not isinstance(x, int):
            return organize_identity(x)
        return free_store(self, x)


FreeStore = FreeRuns | BuddyTree


def free_store(organize: Organize, capacity: int) -> FreeStore:
    """The free store of an empty memory of `capacity` units shaped by
    `organize`, in O(1): the buddy tree, or one free run of every whole
    unit. Fixed partitioning leaves a trailing remainder smaller than one
    unit out of the store, and out of its capacity, as unusable residue,
    rather than making it an odd-sized unit."""
    if organize.tag is OrganizeTag.BUDDY_TREE:
        return organize_buddy(capacity)
    if organize.tag is OrganizeTag.FIXED_PARTITION:
        capacity -= capacity % organize.unit_size
    elif organize.tag is not OrganizeTag.IDENTITY:
        raise ParameterError(f"memory cannot be organized by {organize.tag.value}")
    return FreeRuns(capacity, [Extent(0, capacity)] if capacity else [], organize.unit_size)


@dataclass(frozen=True)
class Select:
    """A tagged select operation, applicable as a callable."""

    tag: SelectTag
    index: int | None = None

    @staticmethod
    def identity(i: int) -> "Select":
        if i < 1:
            raise ParameterError(f"selection index must be >= 1, got {i}")
        return Select(SelectTag.IDENTITY, index=i)

    @staticmethod
    def first_fit() -> "Select":
        return Select(SelectTag.FIRST_FIT)

    @staticmethod
    def argmax_priority() -> "Select":
        return Select(SelectTag.ARGMAX_PRIORITY)

    def __call__(self, organized: Any, demand: int | None = None) -> Any:
        """The selected member; over a free store, the one extent its
        grant of the demand gives, the store itself unchanged."""
        if self.tag is SelectTag.IDENTITY:
            assert self.index is not None
            return select_identity(organized, self.index)
        if self.tag is SelectTag.ARGMAX_PRIORITY:
            return select_argmax_priority(organized)
        if demand is None:
            raise ParameterError(f"{self.tag.value} selection needs a demand")
        # first fit from maximal runs or merged buddies is undone exactly
        (extent,) = organized.grant((demand,))
        organized.release(extent)
        return extent


class ChunkTag(Enum):
    WHOLE = "whole"
    FIXED = "fixed"
    CLASS = "class"
    SEGMENTS = "segments"


Classifier = Callable[[Procedure], int]
# a member looked up once: reading ChunkTag.SEGMENTS on every dispatch and
# grant costs more than the rest of a whole chunk's measure
_SEGMENTS = ChunkTag.SEGMENTS


@dataclass(frozen=True)
class Chunk:
    """A tagged chunk operation: it cuts a procedure's demand, of CPU time
    or memory units, into pieces each >= 1 and summing to the demand.
    Whole leaves one piece; fixed(q) cuts pieces of q, the last shorter;
    by class cuts pieces of the length a classifier gives the procedure;
    segments cuts its memory demand into its declared segments, if any.
    The count, the first piece and, but for segments, the largest cost
    O(1); over CPU time the first piece is how long a dispatch runs."""

    tag: ChunkTag
    size: int | None = None
    classifier: Classifier | None = None

    @staticmethod
    def whole() -> "Chunk":
        return Chunk(ChunkTag.WHOLE)

    @staticmethod
    def fixed(q: int) -> "Chunk":
        if q < 1:
            raise ParameterError(f"chunk size must be >= 1, got {q}")
        return Chunk(ChunkTag.FIXED, size=q)

    @staticmethod
    def by_class(classifier: Classifier) -> "Chunk":
        return Chunk(ChunkTag.CLASS, classifier=classifier)

    @staticmethod
    def segments() -> "Chunk":
        return Chunk(ChunkTag.SEGMENTS)

    def _classify(self, p: Procedure) -> int:
        """The piece length the classifier gives p, at least 1."""
        q = self.classifier(p)
        if q < 1:
            raise ParameterError(f"quantum for procedure {p.id} must be >= 1")
        return q

    def pieces(self, p: Procedure, demand: int) -> tuple[int, ...]:
        q = self.size if self.classifier is None else self._classify(p)
        if q is not None:
            full, rest = divmod(demand, q)
            return (q,) * full + ((rest,) if rest else ())
        if p.segments is not None and self.tag is _SEGMENTS:
            return p.segments
        return (demand,) if demand else ()

    def count(self, p: Procedure, demand: int) -> int:
        q = self.size if self.classifier is None else self._classify(p)
        if q is not None:
            return -(-demand // q)
        if p.segments is not None and self.tag is _SEGMENTS:
            return len(p.segments)
        return 1 if demand else 0

    def first(self, p: Procedure, demand: int) -> int:
        """The first piece; the demand itself when it is 0."""
        q = self.size if self.classifier is None else self._classify(p)
        if q is not None:
            return min(q, demand)
        if p.segments and self.tag is _SEGMENTS:
            return p.segments[0]
        return demand

    def largest(self, p: Procedure, demand: int) -> int:
        """The longest piece; the demand itself when it is 0."""
        if p.segments and self.tag is _SEGMENTS:
            return max(p.segments)
        return self.first(p, demand)


@dataclass(frozen=True)
class Discipline:
    """A composed (select, organize, chunk) triple; organize always runs
    first, and the chunk cuts the selected member's demand."""

    select: Select
    organize: Organize
    chunk: Chunk = Chunk.whole()

    def apply(self, x: Any, demand: int | None = None) -> Any:
        return self.select(self.organize(x), demand)


def compose(
    select: Select, organize: Organize, chunk: Chunk = Chunk.whole()
) -> Discipline:
    """Compose a select with an organize, rejecting shape mismatches, and
    with a chunk."""
    if organize.tag not in _COMPATIBLE[select.tag]:
        raise CompositionError(
            f"{select.tag.value} selection cannot consume a "
            f"{organize.tag.value} organization"
        )
    return Discipline(select, organize, chunk)


OrderKey = Callable[[Procedure], tuple]


def order_key(d: Discipline) -> OrderKey:
    """The total order a procedure discipline selects by, as a key ending
    in the procedure id: for every non-empty set of procedures listed in
    (arrival, id) order, `d.apply` returns the member of least key.

    This is the organize done once, when a procedure joins a ready set,
    so that select takes the head: (arrival, id) under identity, the
    sort projection then the id under a sort, and for argmax priority
    the negated priority then the id. Any other composition raises
    CompositionError.
    """
    select, organize = d.select, d.organize
    if select.tag is SelectTag.IDENTITY and select.index == 1:
        if organize.tag is OrganizeTag.IDENTITY:
            return arrival_order
        if organize.tag is OrganizeTag.SORT:
            value_of = organize.key.value_of
            return lambda p: (value_of(p), p.id)
    if (
        select.tag is SelectTag.ARGMAX_PRIORITY
        and organize.tag is OrganizeTag.IDENTITY
    ):
        return lambda p: (-p.priority, p.id)
    index = f"({select.index})" if select.index is not None else ""
    raise CompositionError(
        f"{select.tag.value}{index} selection over the {organize.tag.value} "
        "organization has no order to keep a ready set in"
    )
