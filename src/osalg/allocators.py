"""Memory disciplines: contiguous allocation, fixed units, buddy blocks,
paging, segmentation, virtualization chains, deallocation and swapping.

A ``MemoryState`` is a pure value: every operation on one returns a new
state. A ``MemoryLedger`` holds the same fields and is updated in place,
so that a simulation pays for what a grant or release changes and no
more; it gives its state as a ``MemoryState`` on demand. Each operation
is written once for both: only recording a grant and recording a
release differ between them. At all times the allocated extents, the
free extents, and any partition residue tile ``[0, capacity)`` exactly,
pairwise disjoint. Extent sharing is rejected outright; temporal
coordination of shared writes is out of scope.

Address virtualization is a chain of injective partial maps: a resource
set bound to an intermediate set that is in turn bound to the physical
one. ``translate`` walks such a chain and reports the faulting hop when
an address is unmapped.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import TypeVar

from .combinators import (
    Discipline,
    FreeStore,
    Organize,
    SelectTag,
    free_store,
)
from .core import Extent, Procedure
from .errors import (
    AllocationFailure,
    InvariantViolation,
    NotFoundError,
    ParameterError,
    SwapFailure,
    TranslationFault,
)


class _MemoryReads:
    """The reads MemoryState and MemoryLedger share, over the fields both
    carry: `capacity`, `organizer`, `allocated`, `store`, `free_total`
    and `residue`."""

    __slots__ = ()

    @property
    def unit_size(self) -> int | None:
        return self.organizer.unit_size

    @property
    def free(self) -> tuple[Extent, ...]:
        return self.store.free_extents()

    def holds(self, pid: int) -> bool:
        return pid in self.allocated

    def extents_of(self, pid: int) -> tuple[Extent, ...]:
        if pid not in self.allocated:
            raise NotFoundError(f"procedure {pid} holds no memory")
        return self.allocated[pid]

    @property
    def free_size(self) -> int:
        return self.free_total

    def largest_free(self) -> int:
        return self.store.largest()


@dataclass(frozen=True)
class MemoryState(_MemoryReads):
    """Allocation bookkeeping for one memory of `capacity` units.

    `store` is the free store `organizer` shapes: free runs for the
    identity organization, free runs of whole units for fixed
    partitioning, the free blocks for the buddy organizer. `free` is its
    free extents, so under fixed partitioning it holds runs of whole
    units, not single units. `allocated` maps procedure ids to the
    extents they hold, `free_total` is the size of `free`, and `residue`
    is a fixed-partitioned memory's tail too short for one unit. Each
    grant and release updates the store and `free_total` by what it
    changes, never by a rescan.
    """

    capacity: int
    organizer: Organize
    allocated: Mapping[int, tuple[Extent, ...]]
    store: FreeStore
    free_total: int
    residue: Extent | None = None

    @staticmethod
    def initial(capacity: int, organizer: Organize | None = None) -> "MemoryState":
        """An empty memory of `capacity` units under the given organizer."""
        if capacity < 0:
            raise ParameterError(f"capacity must be natural, got {capacity}")
        organizer = organizer or Organize.identity()
        store = free_store(organizer, capacity)
        # an empty store is one run from 0, or none; the rest is residue
        free_total = sum(e.size for e in store.free_extents())
        residue = Extent(free_total, capacity) if free_total < capacity else None
        return MemoryState(capacity, organizer, {}, store, free_total, residue)

    def check_invariants(self) -> None:
        """Conservation and disjointness, the carried free total and the
        store's own shape, each recomputed from scratch; raises an
        InvariantViolation, a ParameterError, that names the invariant
        broken."""
        pieces = list(self.free)
        for exts in self.allocated.values():
            pieces.extend(exts)
        if self.residue is not None:
            pieces.append(self.residue)
        pieces = [e for e in pieces if e.start < e.end]
        pieces.sort(key=_start)
        capacity = self.capacity
        covered = 0
        for e in pieces:
            if e.start < covered:
                raise InvariantViolation(
                    "disjointness", f"extent {e} overlaps a previous one")
            if e.start > covered:
                raise InvariantViolation(
                    "conservation", f"gap before {e}: units uncovered")
            if e.end > capacity:
                raise InvariantViolation(
                    "conservation", f"extent {e} beyond capacity {capacity}")
            covered = e.end
        if covered != capacity:
            raise InvariantViolation(
                "conservation",
                f"covered {covered} of {capacity} units: conservation broken",
            )
        scanned = 0
        for e in self.free:
            scanned += e.end - e.start
        if scanned != self.free_total:
            raise InvariantViolation(
                "free-total",
                f"carried free total {self.free_total}, free list holds {scanned}",
            )
        try:
            self.store.check()
        except ParameterError as exc:
            raise InvariantViolation("store-shape", str(exc)) from exc

    def _record_grant(
        self, pid: int, granted: tuple[Extent, ...], store: FreeStore, size: int
    ) -> "MemoryState":
        allocated = dict(self.allocated)
        allocated[pid] = granted
        return MemoryState(self.capacity, self.organizer, allocated, store,
                           self.free_total - size, self.residue)

    def _record_release(self, pid: int, store: FreeStore, size: int) -> "MemoryState":
        allocated = dict(self.allocated)
        del allocated[pid]
        return MemoryState(self.capacity, self.organizer, allocated, store,
                           self.free_total + size, self.residue)


class MemoryLedger(_MemoryReads):
    """A memory updated in place: a MemoryState's fields, of which each
    grant and release changes `allocated`, the `store` reference and
    `free_total`. The free store itself stays a value. `snapshot` gives
    the ledger's state as a MemoryState.
    """

    __slots__ = ("capacity", "organizer", "allocated", "store", "free_total",
                 "residue")

    def __init__(self, state: MemoryState):
        self.capacity = state.capacity
        self.organizer = state.organizer
        self.allocated: dict[int, tuple[Extent, ...]] = dict(state.allocated)
        self.store = state.store
        self.free_total = state.free_total
        self.residue = state.residue

    def snapshot(self) -> MemoryState:
        return MemoryState(self.capacity, self.organizer, dict(self.allocated),
                           self.store, self.free_total, self.residue)

    def _record_grant(
        self, pid: int, granted: tuple[Extent, ...], store: FreeStore, size: int
    ) -> "MemoryLedger":
        self.allocated[pid] = granted
        self.store = store
        self.free_total -= size
        return self

    def _record_release(self, pid: int, store: FreeStore, size: int) -> "MemoryLedger":
        del self.allocated[pid]
        self.store = store
        self.free_total += size
        return self


# Either kind of memory; each operation returns the kind it was given.
Memory = TypeVar("Memory", MemoryState, MemoryLedger)

_start = attrgetter("start")


def _grant(m: Memory, pid: int, pieces: Sequence[int]) -> tuple[Memory, tuple[Extent, ...]]:
    """Grant pid one extent per piece size, from the memory's own store.
    Pieces that sum past the free total fail before the store is
    searched."""
    if m.holds(pid):
        raise ParameterError(f"procedure {pid} already holds memory")
    asked = sum(pieces)
    if asked > m.free_total:
        raise AllocationFailure(f"{asked} units asked, {m.free_total} free")
    granted, store = m.store.grant(pieces)
    return m._record_grant(pid, granted, store, sum(e.size for e in granted)), granted


def allocate(
    d: Discipline, m: Memory, p: Procedure
) -> tuple[Memory, tuple[Extent, ...]]:
    """Assign an extent (or whole allocation unit, or buddy block) of total
    size >= p.size to p, under the discipline d.

    The discipline must organize the set the same way the state does;
    paging and segmentation have their own entry points
    (:func:`build_page_table`, :func:`segment_alloc`). Under fixed
    partitioning a procedure fits in one unit.
    """
    if d.organize != m.organizer:
        raise ParameterError("discipline and memory are organized differently")
    if d.select.tag not in (SelectTag.FIRST_FIT, SelectTag.BUDDY_FIT):
        raise ParameterError(f"{d.select.tag.value} selection does not allocate memory")
    if m.unit_size is not None and p.size > m.unit_size:
        raise AllocationFailure(
            f"demand {p.size} exceeds the {m.unit_size}-unit partitions"
        )
    return _grant(m, p.id, m.store.pieces(p.size))


def deallocate(m: Memory, pid: int) -> Memory:
    """Return pid's extents to the free space, merging where the
    organization allows: adjacent runs coalesce, buddy siblings merge."""
    extents = m.extents_of(pid)
    # a release takes back what one grant gave: one block from a buddy tree
    store = m.store.release(*extents) if extents else m.store
    return m._record_release(pid, store, sum(e.size for e in extents))


@dataclass(frozen=True)
class Pagination:
    """A procedure's demand of `size` units cut into pages of `page_size`
    units: only the last page may fall short, and what it leaves unused
    is the internal fragmentation."""

    pid: int
    page_size: int
    size: int

    @property
    def page_count(self) -> int:
        return -(-self.size // self.page_size)

    @property
    def internal_fragmentation(self) -> int:
        return self.page_count * self.page_size - self.size


def paginate(p: Procedure, page_size: int) -> Pagination:
    """Cut p's memory demand into ceil(size / page_size) pages."""
    if page_size < 1:
        raise ParameterError(f"page size must be >= 1, got {page_size}")
    return Pagination(pid=p.id, page_size=page_size, size=p.size)


@dataclass(frozen=True)
class PageMap:
    """Injective binding of page numbers to frame numbers."""

    page_size: int
    entries: tuple[tuple[int, int], ...]  # (page, frame), ascending by page

    def __post_init__(self) -> None:
        pages = [page for page, _ in self.entries]
        frames = [frame for _, frame in self.entries]
        if pages != list(range(len(pages))):
            raise ParameterError("page numbers must be exactly 0..count-1")
        if len(set(frames)) != len(frames):
            raise ParameterError("two pages may not share a frame")

    @property
    def page_count(self) -> int:
        return len(self.entries)

    def frame_of(self, page: int) -> int:
        for p, f in self.entries:
            if p == page:
                return f
        raise TranslationFault(page, 1)

    def translate(self, logical: int) -> int:
        """Physical address of a logical one: frame base plus offset."""
        if logical < 0 or logical >= self.page_count * self.page_size:
            raise TranslationFault(logical, 1)
        page, offset = divmod(logical, self.page_size)
        return self.frame_of(page) * self.page_size + offset


def build_page_table(pages: Pagination, m: Memory) -> tuple[PageMap, Memory]:
    """Bind pages to the lowest free frames of a framed memory.

    Framing (fixed partitioning of memory) and pagination (fixed chunking
    of the demand) are independent; either may exist first. Building the
    table requires both, plus enough free frames.
    """
    unit = m.unit_size
    if unit is None:
        raise ParameterError("page tables need a fixed-partitioned memory")
    if pages.page_size != unit:
        raise ParameterError(
            f"page size {pages.page_size} does not match frame size {unit}"
        )
    frames = m.free_total // unit
    if pages.page_count > frames:
        raise AllocationFailure(f"{pages.page_count} frames needed, {frames} free")
    m2, granted = _grant(m, pages.pid, (unit,) * pages.page_count)
    entries = tuple((page, extent.start // unit) for page, extent in enumerate(granted))
    return PageMap(page_size=pages.page_size, entries=entries), m2


@dataclass(frozen=True)
class SegmentMap:
    """Placement of a procedure's variable-sized chunks."""

    pid: int
    segments: tuple[tuple[int, int, int], ...]  # (segment id, length, base)


def segment_alloc(
    p: Procedure,
    spec: Sequence[int],
    d: Discipline,
    m: Memory,
) -> tuple[SegmentMap, Memory]:
    """Place each segment independently through d, all or nothing.

    Segment lengths must each be >= 1 and sum to p's size. Any segment
    failing to fit rolls the whole operation back.
    """
    lengths = tuple(spec)
    if any(s < 1 for s in lengths):
        raise ParameterError("segment lengths must each be >= 1")
    if sum(lengths) != p.size:
        raise ParameterError(
            f"segments sum to {sum(lengths)}, procedure size is {p.size}"
        )
    if d.organize != Organize.identity() or m.organizer != Organize.identity():
        raise ParameterError("segments place into an identity-organized memory")
    m2, granted = _grant(m, p.id, lengths)
    segments = tuple(
        (i, length, extent.start)
        for i, (length, extent) in enumerate(zip(lengths, granted))
    )
    return SegmentMap(pid=p.id, segments=segments), m2


@dataclass(frozen=True)
class BindingLayer:
    """One virtualization hop: an injective partial map of addresses."""

    mapping: Mapping[int, int]

    def __post_init__(self) -> None:
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise ParameterError("binding layer must be injective")

    def lookup(self, address: int) -> int | None:
        return self.mapping.get(address)

    def __len__(self) -> int:
        return len(self.mapping)


def translate(address: int, chain: Sequence[BindingLayer]) -> int:
    """Image of an address through a chain of binding layers.

    An empty chain is the identity. An unmapped address raises a
    TranslationFault naming the 1-indexed faulting layer.
    """
    current = address
    for i, layer in enumerate(chain, start=1):
        bound = layer.lookup(current)
        if bound is None:
            raise TranslationFault(current, i)
        current = bound
    return current


@dataclass(frozen=True)
class SwapRecord:
    """Where a swapped-out procedure's contents live in the backing store.

    Swap-in regrants `size` in the pieces the primary store makes of it:
    whole units, one buddy block, or, under the identity organization,
    the declared `segments` (even where admission granted one extent).
    """

    pid: int
    size: int
    backing_extents: tuple[Extent, ...]
    segments: tuple[int, ...] | None = None


def victim_key(p: Procedure) -> tuple[int, int, int, int]:
    """The swap-victim order, least first: lowest priority (none counts
    lowest), then largest size, then highest id. Ids are unique, so it is
    a total order. Like a ready set's order key it ends in the id, so a
    heap of these keys names its members."""
    return (p.priority if p.priority is not None else -1, -p.size, -p.id, p.id)


def swap_out(
    m: Memory, backing: Memory, victim: Procedure
) -> tuple[Memory, Memory, SwapRecord]:
    """Evict the victim's extents to the backing store.

    The caller has chosen the victim, one that holds primary memory (see
    :func:`victim_key`). Its contents are first-fit placed in the backing
    store; a full backing store fails the swap with the primary state
    unchanged.
    """
    m.extents_of(victim.id)  # NotFoundError before the grant
    try:
        pieces = backing.store.pieces(victim.size)
        backing2, granted = _grant(backing, victim.id, pieces)
    except AllocationFailure as exc:
        raise SwapFailure(f"backing store cannot hold procedure {victim.id}") from exc
    record = SwapRecord(
        pid=victim.id,
        size=victim.size,
        backing_extents=granted,
        segments=victim.segments,
    )
    return deallocate(m, victim.id), backing2, record


def swap_in(
    m: Memory, backing: Memory, record: SwapRecord
) -> tuple[Memory, Memory, tuple[Extent, ...]]:
    """Restore a swapped-out procedure to primary memory.

    Residency may land at different addresses; the grant takes the
    pieces described on :class:`SwapRecord`. Insufficient primary space
    raises AllocationFailure, which is retriable once memory frees up.
    A swap-in that fails changes neither memory.
    """
    backing.extents_of(record.pid)  # NotFoundError before the grant
    pieces = m.store.pieces(record.size, record.segments)
    m2, granted = _grant(m, record.pid, pieces)
    backing2 = deallocate(backing, record.pid)
    return m2, backing2, granted
