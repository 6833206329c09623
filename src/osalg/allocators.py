"""Memory disciplines: contiguous allocation, fixed units, buddy blocks,
paging, segmentation, virtualization chains, deallocation, swapping, and
ownership partitioning.

A ``MemoryState`` is a pure value: every operation returns a new state,
and at all times the allocated extents, the free extents, and any
partition residue tile ``[0, capacity)`` exactly, pairwise disjoint.
Extent sharing is rejected outright; temporal coordination of shared
writes is out of scope.

Address virtualization is a chain of injective partial maps: a resource
set bound to an intermediate set that is in turn bound to the physical
one. ``translate`` walks such a chain and reports the faulting hop when
an address is unmapped.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace

from .combinators import (
    Discipline,
    FreeStore,
    Organize,
    SelectTag,
    free_store,
)
from .core import Extent, Procedure, ResourceSet
from .errors import (
    AllocationFailure,
    NotFoundError,
    ParameterError,
    SwapFailure,
    TranslationFault,
)

VictimPolicy = Callable[[Sequence[Procedure]], Procedure]


@dataclass(frozen=True)
class MemoryState:
    """Allocation bookkeeping for one finite reusable resource set.

    `store` is the free store `organizer` shapes: free runs for the
    identity organization, free runs of whole units for fixed
    partitioning, the block tree for the buddy organizer. `free` is its
    free extents, so under fixed partitioning it holds runs of whole
    units, not single units. `allocated` maps procedure ids to the
    extents they hold, `free_total` is the size of `free`, and `residue`
    is a fixed-partitioned memory's tail too short for one unit. Each
    grant and release updates the store and `free_total` by what it
    changes, never by a rescan.
    """

    resource: ResourceSet
    organizer: Organize
    allocated: Mapping[int, tuple[Extent, ...]]
    store: FreeStore
    free_total: int
    residue: Extent | None = None

    @staticmethod
    def initial(capacity: int, organizer: Organize | None = None) -> "MemoryState":
        """An empty memory of `capacity` units under the given organizer."""
        organizer = organizer or Organize.identity()
        resource = ResourceSet.memory(capacity)
        store = free_store(organizer, resource)
        # an empty store is one run from 0, or none; the rest is residue
        free_total = sum(e.size for e in store.free_extents())
        residue = Extent(free_total, capacity) if free_total < capacity else None
        return MemoryState(resource, organizer, {}, store, free_total, residue)

    @property
    def capacity(self) -> int:
        return self.resource.capacity or 0

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

    @property
    def allocated_size(self) -> int:
        return sum(e.size for exts in self.allocated.values() for e in exts)

    def largest_free(self) -> int:
        return self.store.largest()

    def check_invariants(self) -> None:
        """Conservation and disjointness, the carried free total and the
        store's own shape, each recomputed from scratch; raises
        ParameterError on breach."""
        pieces = list(self.free)
        pieces.extend(e for exts in self.allocated.values() for e in exts)
        if self.residue is not None:
            pieces.append(self.residue)
        pieces = [e for e in pieces if e.size > 0]
        pieces.sort(key=lambda e: e.start)
        covered = 0
        for e in pieces:
            if e.start < covered:
                raise ParameterError(f"extent {e} overlaps a previous one")
            if e.start > covered:
                raise ParameterError(f"gap before {e}: units uncovered")
            if e.end > self.capacity:
                raise ParameterError(f"extent {e} beyond capacity {self.capacity}")
            covered = e.end
        if covered != self.capacity:
            raise ParameterError(
                f"covered {covered} of {self.capacity} units: conservation broken"
            )
        scanned = sum(e.size for e in self.free)
        if scanned != self.free_total:
            raise ParameterError(
                f"carried free total {self.free_total}, free list holds {scanned}"
            )
        self.store.check()


def _grant(
    m: MemoryState, pid: int, pieces: Sequence[int]
) -> tuple[MemoryState, tuple[Extent, ...]]:
    """Grant pid one extent per piece size, from the state's own store."""
    if m.holds(pid):
        raise ParameterError(f"procedure {pid} already holds memory")
    granted, store = m.store.grant(pieces)
    allocated = dict(m.allocated)
    allocated[pid] = granted
    free_total = m.free_total - sum(e.size for e in granted)
    return replace(m, allocated=allocated, store=store, free_total=free_total), granted


def allocate(
    d: Discipline, m: MemoryState, p: Procedure
) -> tuple[MemoryState, tuple[Extent, ...]]:
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


def deallocate(m: MemoryState, pid: int) -> MemoryState:
    """Return pid's extents to the free space, merging where the
    organization allows: adjacent runs coalesce, buddy siblings merge."""
    extents = m.extents_of(pid)
    allocated = dict(m.allocated)
    del allocated[pid]
    # a release takes back what one grant gave: one block from a buddy tree
    store = m.store.release(*extents) if extents else m.store
    free_total = m.free_total + sum(e.size for e in extents)
    return replace(m, allocated=allocated, store=store, free_total=free_total)


@dataclass(frozen=True)
class Page:
    """One fixed-size chunk of a procedure's memory demand."""

    number: int
    length: int  # units actually used; only the last page may fall short


@dataclass(frozen=True)
class Pagination:
    """A procedure's demand cut into equal chunks."""

    pid: int
    page_size: int
    pages: tuple[Page, ...]

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def internal_fragmentation(self) -> int:
        return self.page_count * self.page_size - sum(p.length for p in self.pages)


def paginate(p: Procedure, page_size: int) -> Pagination:
    """Cut p's memory demand into ceil(size / page_size) pages."""
    if page_size < 1:
        raise ParameterError(f"page size must be >= 1, got {page_size}")
    count = -(-p.size // page_size)
    pages = tuple(
        Page(i, min(page_size, p.size - i * page_size)) for i in range(count)
    )
    return Pagination(pid=p.id, page_size=page_size, pages=pages)


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

    def to_layer(self, limit: int | None = None) -> "BindingLayer":
        """The map expanded to one address binding per logical unit."""
        span = self.page_count * self.page_size
        if limit is not None:
            span = min(span, limit)
        return BindingLayer({a: self.translate(a) for a in range(span)})


def build_page_table(
    pages: Pagination, m: MemoryState
) -> tuple[PageMap, MemoryState]:
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
    entries = tuple(
        (page.number, extent.start // unit)
        for page, extent in zip(pages.pages, granted)
    )
    return PageMap(page_size=pages.page_size, entries=entries), m2


@dataclass(frozen=True)
class SegmentMap:
    """Placement of a procedure's variable-sized chunks."""

    pid: int
    segments: tuple[tuple[int, int, int], ...]  # (segment id, length, base)

    def base_of(self, segment: int) -> int:
        for sid, _, base in self.segments:
            if sid == segment:
                return base
        raise NotFoundError(f"no segment {segment}")


def segment_alloc(
    p: Procedure,
    spec: Sequence[int],
    d: Discipline,
    m: MemoryState,
) -> tuple[SegmentMap, MemoryState]:
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


def default_victim(candidates: Sequence[Procedure]) -> Procedure:
    """Lowest priority first (none counts lowest), then largest size,
    then highest id. Ids are unique, so the key is a total order and the
    order of the candidates does not matter."""
    if not candidates:
        raise SwapFailure("no swappable resident procedure")
    key = lambda p: (p.priority if p.priority is not None else -1, -p.size, -p.id)
    return min(candidates, key=key)


def swap_out(
    m: MemoryState,
    backing: MemoryState,
    residents: Sequence[Procedure],
    policy: VictimPolicy = default_victim,
) -> tuple[MemoryState, MemoryState, SwapRecord]:
    """Evict one resident procedure's extents to the backing store.

    The victim comes from `policy` over the residents actually holding
    memory. Its contents are first-fit placed in the backing store; a
    full backing store fails the swap with the primary state unchanged.
    """
    candidates = [p for p in residents if m.holds(p.id)]
    if not candidates:
        raise SwapFailure("no swappable resident procedure")
    victim = policy(candidates)
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
    m: MemoryState, backing: MemoryState, record: SwapRecord
) -> tuple[MemoryState, MemoryState, tuple[Extent, ...]]:
    """Restore a swapped-out procedure to primary memory.

    Residency may land at different addresses; the grant takes the
    pieces described on :class:`SwapRecord`. Insufficient primary space
    raises AllocationFailure, which is retriable once memory frees up.
    """
    pieces = m.store.pieces(record.size, record.segments)
    m2, granted = _grant(m, record.pid, pieces)
    backing2 = deallocate(backing, record.pid)
    return m2, backing2, granted


def partition_by_owner(
    m: MemoryState, owners: Mapping[int, str]
) -> dict[str, tuple[Extent, ...]]:
    """Group allocated extents into equivalence classes by owner tag."""
    classes: dict[str, list[Extent]] = {}
    for pid, extents in m.allocated.items():
        owner = owners.get(pid)
        if owner is None:
            raise ParameterError(f"procedure {pid} has no owner")
        classes.setdefault(owner, []).extend(extents)
    return {
        owner: tuple(sorted(extents, key=lambda e: e.start))
        for owner, extents in classes.items()
    }
