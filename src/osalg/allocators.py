"""Memory disciplines: contiguous allocation, fixed units, buddy blocks,
paging, segmentation, virtualization chains, deallocation and swapping.

A ``MemoryState`` is one memory, updated in place: each operation changes
what its grant or release changes and no more, and returns only what it
produces. An operation that raises changes nothing. At all times the
allocated extents, the free extents, and any partition residue tile
``[0, capacity)`` exactly, pairwise disjoint. Extent sharing is rejected
outright; temporal coordination of shared writes is out of scope. Every
grant, plain, segmented or paged, is the memory's own store granting the
pieces a chunk cuts, and every release gives it back what one grant gave.

Address virtualization is a chain of injective partial maps: an address
space bound to an intermediate one that is in turn bound to physical
memory. ``translate`` walks such a chain and reports the faulting hop
when an address is unmapped.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter

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
    TranslationFault,
)


class MemoryState:
    """Allocation bookkeeping for one memory of `capacity` units.

    `store` is the free store `organizer` shapes: free runs for the
    identity organization, free runs of whole units for fixed
    partitioning, the free blocks for the buddy organizer. `free` is its
    free extents, so under fixed partitioning it holds runs of whole
    units, not single units. `allocated` maps procedure ids to the
    extents they hold, `free_total` is the size of `free`, and `residue`
    is a fixed-partitioned memory's tail too short for one unit. Each
    grant and release changes `allocated`, the `store` reference and
    `free_total` by what it changes, never by a rescan; the free store
    itself stays a value.
    """

    __slots__ = ("capacity", "organizer", "allocated", "store", "free_total",
                 "residue")

    def __init__(self, capacity: int, organizer: Organize, store: FreeStore,
                 free_total: int, residue: Extent | None):
        self.capacity = capacity
        self.organizer = organizer
        self.allocated: dict[int, tuple[Extent, ...]] = {}
        self.store = store
        self.free_total = free_total
        self.residue = residue

    @staticmethod
    def initial(capacity: int, organizer: Organize | None = None) -> "MemoryState":
        """An empty memory of `capacity` units under the given organizer."""
        if capacity < 0:
            raise ParameterError(f"capacity must be natural, got {capacity}")
        organizer = organizer or Organize.identity()
        store = free_store(organizer, capacity)
        # an empty store is one run from 0, or none; the rest is residue
        # (the benchmark's BuddyTree.free_extents span is reached only here)
        free_total = sum(e.size for e in store.free_extents())
        residue = Extent(free_total, capacity) if free_total < capacity else None
        return MemoryState(capacity, organizer, store, free_total, residue)

    @property
    def unit_size(self) -> int | None:
        return self.organizer.unit_size

    @property
    def free(self) -> tuple[Extent, ...]:
        return self.store.free_extents()

    def extents_of(self, pid: int) -> tuple[Extent, ...]:
        if pid not in self.allocated:
            raise NotFoundError(f"procedure {pid} holds no memory")
        return self.allocated[pid]

    def largest_free(self) -> int:
        return self.store.largest()

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


_start = attrgetter("start")


def _grant(m: MemoryState, pid: int, pieces: Sequence[int]) -> tuple[Extent, ...]:
    """Grant pid one extent per piece, from the memory's own store, which
    rounds each piece to a whole unit or buddy block. Pieces that sum past
    the free total fail before the store is searched."""
    if pid in m.allocated:
        raise ParameterError(f"procedure {pid} already holds memory")
    asked = sum(pieces)
    if asked > m.free_total:
        raise AllocationFailure(f"{asked} units asked, {m.free_total} free")
    granted, m.store = m.store.grant(pieces)
    m.allocated[pid] = granted
    m.free_total -= sum(e.size for e in granted)
    return granted


def allocate(d: Discipline, m: MemoryState, p: Procedure) -> tuple[Extent, ...]:
    """Assign p the pieces d's chunk cuts its size into, each an extent,
    or a whole allocation unit, or a buddy block, under the discipline d:
    the memory's own store grants them.

    The discipline must select first fit and organize the set the same
    way the memory does.
    :func:`segment_alloc` is this grant with its pieces mapped to their
    bases; :func:`build_page_table` grants a page table's frames. Under
    fixed partitioning each piece fits in one unit.
    """
    if d.organize != m.organizer:
        raise ParameterError("discipline and memory are organized differently")
    if d.select.tag is not SelectTag.FIRST_FIT:
        raise ParameterError(f"{d.select.tag.value} selection does not allocate memory")
    return _grant(m, p.id, d.chunk.pieces(p, p.size))


def deallocate(m: MemoryState, pid: int) -> tuple[Extent, ...]:
    """Return pid's extents to the free space, merging where the
    organization allows: adjacent runs coalesce, buddy siblings merge.
    Gives the extents freed."""
    extents = m.extents_of(pid)
    if extents:
        m.store = m.store.release(*extents)
    del m.allocated[pid]
    m.free_total += sum(e.size for e in extents)
    return extents


@dataclass(frozen=True)
class Pagination:
    """A procedure's demand of `size` units cut into pages of `page_size`
    units: only the last page may fall short."""

    pid: int
    page_size: int
    size: int

    @property
    def page_count(self) -> int:
        return -(-self.size // self.page_size)


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


def build_page_table(pages: Pagination, m: MemoryState) -> PageMap:
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
    granted = _grant(m, pages.pid, (unit,) * pages.page_count)
    entries = tuple((page, extent.start // unit) for page, extent in enumerate(granted))
    return PageMap(page_size=pages.page_size, entries=entries)


@dataclass(frozen=True)
class SegmentMap:
    """Placement of a procedure's variable-sized chunks."""

    pid: int
    segments: tuple[tuple[int, int, int], ...]  # (segment id, length, base)


def segment_alloc(d: Discipline, m: MemoryState, p: Procedure) -> SegmentMap:
    """Grant p as :func:`allocate` does, all or nothing, and map each piece
    d's chunk cuts, a declared segment under a segment chunk, to the base
    of the extent granted for it."""
    granted = allocate(d, m, p)
    segments = tuple(
        (i, length, extent.start)
        for i, (length, extent) in enumerate(zip(d.chunk.pieces(p, p.size), granted))
    )
    return SegmentMap(pid=p.id, segments=segments)


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
    """Where a swapped-out procedure's contents live in the backing store,
    and the `pieces` a swap-in regrants in primary memory: the lengths of
    the extents the procedure held there."""

    pid: int
    backing_extents: tuple[Extent, ...]
    pieces: tuple[int, ...]


def victim_key(p: Procedure) -> tuple[int, int, int, int]:
    """The swap-victim order, least first: lowest priority (none counts
    lowest), then largest size, then highest id. Ids are unique, so it is
    a total order. Like a ready set's order key it ends in the id, so a
    heap of these keys names its members."""
    return (p.priority if p.priority is not None else -1, -p.size, -p.id, p.id)


def swap_out(m: MemoryState, backing: MemoryState, victim: Procedure) -> SwapRecord:
    """Evict the victim's extents to the backing store.

    The caller has chosen the victim, one that holds primary memory (see
    :func:`victim_key`). Its contents are first-fit placed in the backing
    store, whole; a backing store that cannot hold them refuses as any
    memory does, with AllocationFailure and both memories unchanged.
    """
    held = m.extents_of(victim.id)  # NotFoundError before the grant
    granted = _grant(backing, victim.id, (victim.size,) if victim.size else ())
    record = SwapRecord(
        pid=victim.id,
        backing_extents=granted,
        pieces=tuple([e.end - e.start for e in held]),
    )
    deallocate(m, victim.id)
    return record


def swap_in(m: MemoryState, backing: MemoryState, record: SwapRecord) -> tuple[Extent, ...]:
    """Restore a swapped-out procedure to primary memory.

    Residency may land at different addresses; the grant takes the
    record's `pieces`. Insufficient primary space raises
    AllocationFailure, which is retriable once memory frees up. A
    swap-in that fails changes neither memory.
    """
    backing.extents_of(record.pid)  # NotFoundError before the grant
    granted = _grant(m, record.pid, record.pieces)
    deallocate(backing, record.pid)
    return granted
