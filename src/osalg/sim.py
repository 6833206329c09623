"""Deterministic single-processor simulator.

Drives one CPU discipline and one memory discipline over a workload of
procedures and produces an event trace plus derived metrics. The clock is
integer valued. Identical inputs produce identical traces, byte for byte
once rendered: ties between events at the same instant resolve through a
fixed kind order, and every policy in the pipeline is deterministic.

Admission requires memory: a procedure whose allocation fails triggers at
most one swap attempt, then waits in a FIFO backlog that is retried
whenever memory frees up. Swapped-out procedures are never dispatched;
they re-enter through swap-in, ahead of the backlog.

A trace is a word of typed events, each an immutable tuple record whose
class is its kind, such as `Dispatch`: its instant, its procedure's id,
then the fields its class states once, which every reader reads by
attribute. The class's name is the event's rendered name, and its `rank`
the kind's place in the fixed order; events are equal only within one kind.
"""

from __future__ import annotations

import math
import os
from collections import deque, namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, TypeVar

from . import binding as bindingmod
from .allocators import (
    MemoryState,
    SwapRecord,
    allocate as allocate_op,
    build_page_table,
    deallocate,
    paginate,
    segment_alloc,
    swap_in,
    swap_out,
    victim_key,
)
from .combinators import (
    Chunk,
    ChunkTag,
    Classifier,
    Discipline,
    Organize,
    OrderKey,
    Select,
    SelectTag,
    SortKey,
    compose,
    order_key,
)
from .core import ArrivalStream, Procedure, ProcedureSet, WorkClass
from .errors import (
    AllocationFailure,
    IncompleteRunError,
    OsAlgError,
    ParameterError,
    TraceLimitError,
    UnrunnableProcedureError,
)

if TYPE_CHECKING:
    from .strict import RunCheck

STRICT_ENV = "OSALG_STRICT"

T = TypeVar("T")


class TraceEvent:
    """One event of a run, a tuple record whose class is its kind: the
    class's name is the event's name, and its `rank` the kind's place
    among the events of one instant. Events are equal only within one
    kind."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), tuple.__hash__(self)))


_ranks = count()


def _record(name: str, *fields: str) -> type:
    """The record class of the kind `name`, ranked after the kinds declared
    before it: a tuple of `instant`, `pid`, then `fields`."""
    base = namedtuple(name, ("instant", "pid") + fields)
    return type(name, (TraceEvent, base), {"__slots__": (), "rank": next(_ranks)})


# Each kind's record, declared in the fixed order of events that share an
# instant: completions free resources before anything else claims them,
# and Dispatch always renders last. Its fields after `instant` and `pid`,
# in render order, are values: int sizes, times and lengths, tuples of
# Extent, PageMap.entries, SegmentMap.segments, the WorkClass, and a
# Fraction, or None when no memory is free, for ext_frag. A field that
# only some events of a kind carry is None on the others. Only the CLI
# renders them as text.
Complete = _record("Complete")
Preempt = _record("Preempt", "left")
Deallocate = _record("Deallocate", "extents")
SwapIn = _record("SwapIn", "extents")
Arrive = _record("Arrive", "size", "time", "priority", "owner", "io_class")
Admit = _record("Admit")
SwapOut = _record("SwapOut", "extents", "backing")
Allocate = _record("Allocate", "extents", "pages", "segments", "ext_frag", "int_frag")
Dispatch = _record("Dispatch", "run")
_TRACE_ORDER = attrgetter("instant", "rank")
Graph = bindingmod.BindingGraph


@dataclass(frozen=True)
class Trace:
    """Ordered event log of one run, plus the binding log derived from it."""

    events: tuple[TraceEvent, ...] = ()
    binding: bindingmod.BindingGraph = field(default_factory=bindingmod.BindingGraph)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: type[TraceEvent]) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if type(e) is kind)


@dataclass(frozen=True)
class Metrics:
    """Per-procedure and aggregate performance numbers for one trace."""

    waiting: Mapping[int, int]
    turnaround: Mapping[int, int]
    makespan: int
    mean_waiting: Fraction
    mean_turnaround: Fraction
    external_fragmentation: tuple[Fraction, ...]
    mean_external_fragmentation: Fraction | None
    internal_fragmentation_total: int


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs besides the workload."""

    memory_capacity: int = 64
    backing_capacity: int | None = None  # defaults to the primary capacity
    scheduler: str = "fcfs"  # a key of SCHEDULERS
    quantum: int = 1
    io_quantum: int = 1
    cpu_quantum: int = 4
    allocator: str = "first-fit"  # a key of ALLOCATORS
    unit_size: int | None = None
    page_size: int | None = None

    def __post_init__(self) -> None:
        if self.memory_capacity < 1:
            raise ParameterError("memory capacity must be >= 1")
        if self.backing_capacity is not None and self.backing_capacity < 0:
            raise ParameterError("backing capacity must be >= 0")
        if self.scheduler not in SCHEDULERS:
            raise ParameterError(f"unknown scheduler {self.scheduler!r}")
        if self.allocator not in ALLOCATORS:
            raise ParameterError(f"unknown allocator {self.allocator!r}")
        # building the entries checks their parameters
        SCHEDULERS[self.scheduler](self)
        ALLOCATORS[self.allocator](self)


@dataclass(frozen=True)
class Allocator:
    """A memory discipline as the simulator runs it, and the binding-log
    symbol of its free store. `swap_chunk`, when set, cuts what a swap-in
    regrants, in place of the pieces held; `int_frag` says whether a
    grant reports the units its store's rounding adds."""

    discipline: Discipline
    symbol: str
    swap_chunk: Chunk | None = None
    int_frag: bool = True

    @property
    def paged(self) -> bool:
        """Whether the chunk is fixed: then a grant is a page table, its
        Allocate line lists the pages, and the binding log binds them."""
        return self.discipline.chunk.tag is ChunkTag.FIXED

    def binding_log(self, events: Iterable[TraceEvent]) -> Graph:
        """The binding log of a run whose sorted trace is `events`: the
        free store is bound at 0. When paged, each Allocate or SwapIn of
        p binds p's pages, then p's page table, which depends on the
        frames and on those pages; each Dispatch of p uses p's page
        table. The graph is built, and checked, once."""
        graph = bindingmod.record(Graph(), self.symbol, bindingmod.EventKind.BIND, 0)
        if not self.paged:
            return graph
        bind, use = bindingmod.EventKind.BIND, bindingmod.EventKind.USE
        dependencies: set[tuple[str, str]] = set()
        for e in events:
            kind = type(e)
            if kind is Allocate or kind is SwapIn:
                pages, table = f"pages:{e.pid}", f"page-table:{e.pid}"
                graph = bindingmod.record(graph, pages, bind, e.instant)
                graph = bindingmod.record(graph, table, bind, e.instant)
                dependencies.update(((self.symbol, table), (pages, table)))
            elif kind is Dispatch:
                graph = bindingmod.record(graph, f"page-table:{e.pid}", use, e.instant)
        return Graph(graph.events, graph.dependencies | dependencies)


def _param(value: T, ok: bool, message: str) -> T:
    """`value`, a configured parameter, when `ok`; else ParameterError."""
    if not ok:
        raise ParameterError(message)
    return value


FIRST_FIT = Select.first_fit()
FIRST_FIT_MEMORY = Allocator(
    compose(FIRST_FIT, Organize.identity(), Chunk.whole()), "free-list",
    # swap-in regrants the declared segments, though admission granted
    # one extent: a known fault, kept until a change of traces mends it
    swap_chunk=Chunk.segments())

# Each allocator name -> its entry under a configuration; building the
# entry checks the allocator's parameters.
ALLOCATORS: dict[str, Callable[[SimConfig], Allocator]] = {
    "first-fit": lambda cfg: FIRST_FIT_MEMORY,
    "fixed": lambda cfg: Allocator(
        compose(FIRST_FIT, Organize.fixed_partition(_param(
            cfg.unit_size, (cfg.unit_size or 0) >= 1,
            "fixed allocator needs --unit >= 1")), Chunk.whole()), "frames"),
    "buddy": lambda cfg: Allocator(
        compose(FIRST_FIT, _param(
            Organize.buddy(), not cfg.memory_capacity & (cfg.memory_capacity - 1),
            "buddy allocator needs a power-of-two capacity"), Chunk.whole()), "buddy-tree",
        # a grant reports int_frag=0, though its block rounds the size up:
        # a known fault, kept until a change of traces mends it
        int_frag=False),
    "paging": lambda cfg: Allocator(
        compose(FIRST_FIT, Organize.fixed_partition(page := _param(
            cfg.page_size, (cfg.page_size or 0) >= 1,
            "paging allocator needs --page-size >= 1")), Chunk.fixed(page)), "frames"),
    "segmentation": lambda cfg: Allocator(
        compose(FIRST_FIT, Organize.identity(), Chunk.segments()), "free-list"),
}


def class_quantum(io_quantum: int = 1, cpu_quantum: int = 4) -> Classifier:
    """Classifier giving I/O-bound procedures a small chunk, CPU-bound a
    large one; untagged procedures count as CPU-bound."""
    if io_quantum < 1 or cpu_quantum < 1:
        raise ParameterError("class quanta must be >= 1")

    def classify(p: Procedure) -> int:
        return io_quantum if p.io_class is WorkClass.IO_BOUND else cpu_quantum

    return classify


class OrderedReady:
    """A ready set organized on entry: a heap of order keys, each ending
    in its procedure's id, plus each live member's key and the member by
    id. A key counts only while it is the one its member last joined
    with, so a key left by a discard, or by a join since replaced, is
    skipped when a pop or a look at the head meets it. Once the heap
    holds more than twice the live members it is rebuilt from their
    keys, so it stays O(live) in size. Keyed by `victim_key`, the same
    structure holds a run's swap candidates, whose head is read but
    seldom popped."""

    def __init__(self, key: OrderKey):
        self.key = key
        self.heap: list[tuple] = []
        self.live: dict[int, tuple[tuple, Procedure]] = {}

    def __len__(self) -> int:
        return len(self.live)

    def __contains__(self, p: Procedure) -> bool:
        return p.id in self.live

    def add(self, p: Procedure) -> None:
        key = self.key(p)
        self.live[p.id] = (key, p)
        heappush(self.heap, key)

    def pop(self) -> Procedure:
        """The member of least key, taken out of the set."""
        p = self.head()
        heappop(self.heap)
        del self.live[p.id]
        return p

    def head(self) -> Procedure | None:
        """The member of least key, left in the set; None when empty."""
        heap, live = self.heap, self.live
        while heap:
            key = heap[0]
            entry = live.get(key[-1])
            if entry is not None and entry[0] is key:
                return entry[1]
            heappop(heap)
        return None

    def discard(self, pid: int) -> None:
        self.live.pop(pid, None)
        if len(self.heap) > 2 * len(self.live) + 32:
            self.heap = [key for key, _ in self.live.values()]
            heapify(self.heap)


def ready_set(d: Discipline) -> OrderedReady:
    """An empty ready set for the CPU discipline d, ordered by
    `order_key(d)`: the organize done once, on entry. A chunked first
    come, first served rotates: its key is (joins, id), joins counting
    the joins to the set before this one, so each join goes to the back.
    Any other chunked discipline keeps its order key, of the declared
    time or priority, so a preempted procedure rejoins by it."""
    if d.chunk.tag is not ChunkTag.WHOLE and (d.select, d.organize) == (
            FCFS.select, FCFS.organize):
        joins = count()
        return OrderedReady(lambda p: (next(joins), p.id))
    return OrderedReady(order_key(d))


FCFS = compose(Select.identity(1), Organize.identity(), Chunk.whole())
SJF = {
    key: compose(Select.identity(1), Organize.sort(key), Chunk.whole())
    for key in (SortKey.SIZE, SortKey.TIME)
}
PRIORITY = compose(Select.argmax_priority(), Organize.identity(), Chunk.whole())


def rotating(chunk: Chunk) -> Discipline:
    """First come, first served in chunks: each chunk rejoins the ready
    set at its back, as `ready_set` orders it."""
    return compose(FCFS.select, FCFS.organize, chunk)


# Each scheduler name -> its CPU discipline under a configuration;
# building it checks the scheduler's parameters.
SCHEDULERS: dict[str, Callable[[SimConfig], Discipline]] = {
    "fcfs": lambda cfg: FCFS,
    "sjf-size": lambda cfg: SJF[SortKey.SIZE],
    "sjf-time": lambda cfg: SJF[SortKey.TIME],
    "priority": lambda cfg: PRIORITY,
    "rr": lambda cfg: rotating(Chunk.fixed(_param(
        cfg.quantum, cfg.quantum >= 1, "round robin quantum must be >= 1"))),
    "var-quantum": lambda cfg: rotating(
        Chunk.by_class(class_quantum(cfg.io_quantum, cfg.cpu_quantum))),
}


class _Simulation:
    """One run of the CPU discipline `cpu` and the memory discipline of
    `allocator` over the procedures, taken in arrival order, in primary
    and backing memories of the given capacities, which the run updates
    in place. `listed` counts what the trace lists toward MAX_TRACE:
    what `trace_bound` knows, counted before the first event, and the
    extents each swap lists again."""

    def __init__(
        self, procedures: Iterable[Procedure], cpu: Discipline, allocator: Allocator,
        memory_capacity: int, backing_capacity: int, strict: bool,
    ):
        self.stream = ArrivalStream(procedures)
        self.listed = 0
        self.count_listed(trace_bound(self.stream.members, cpu, allocator))
        # events in emission order; instants never decrease along it
        self.events: list[TraceEvent] = []
        self.allocator = allocator
        self.placement = d = allocator.discipline
        self.primary = MemoryState.initial(memory_capacity, d.organize)
        self.backing = MemoryState.initial(backing_capacity, Organize.identity())
        # the shape of a grant, decided once: a page table, a segment map or
        # a plain grant
        self.paged = allocator.paged
        self.segmented = d.chunk.tag is ChunkTag.SEGMENTS
        # strict mode's observer of the events; only a strict run loads it
        self.check: RunCheck | None = None
        if strict:
            from .strict import RunCheck

            self.check = RunCheck(self.primary, self.backing, self.events)
        self.run_length = cpu.chunk.first  # of a dispatch, given what is left
        self.needs_priority = cpu.select.tag is SelectTag.ARGMAX_PRIORITY
        self.clock = 0
        self.remaining: dict[int, int] = {}
        self.ready = ready_set(cpu)
        # what a swap may evict: every resident procedure but the running
        # one; a preempted procedure is one from its Preempt on, while the
        # arrivals of that instant come in ahead of its rejoining
        self.candidates = OrderedReady(victim_key)
        self.backlog: deque[Procedure] = deque()
        self.swapped: deque[tuple[Procedure, SwapRecord]] = deque()

    def emit(self, event: TraceEvent) -> None:
        if self.events and event.instant < self.events[-1].instant:
            raise OsAlgError(f"event at {event.instant} after instant {self.events[-1].instant}")
        if self.check is not None:
            self.check.see(event)
        self.events.append(event)

    def count_listed(self, listed: int) -> None:
        """Count what the trace lists; past MAX_TRACE the run stops."""
        self.listed += listed
        if self.listed > MAX_TRACE:
            raise TraceLimitError(MAX_TRACE)

    # -- memory ------------------------------------------------------

    def allocate(self, p: Procedure, at: int) -> TraceEvent | None:
        """The Allocate at `at` of a grant of memory to p, or None when
        memory refuses it, at once when p's size exceeds the free total."""
        d, m = self.placement, self.primary
        free = m.free_total
        if m.exceeds(p.size):
            return None
        pages = segments = None
        try:
            if self.paged:
                pages = build_page_table(paginate(p, d.chunk.size), m).entries or None
            elif self.segmented:
                segments = segment_alloc(d, m, p).segments or None
            else:
                allocate_op(d, m, p)
        except AllocationFailure:
            return None
        int_frag = free - m.free_total - p.size if self.allocator.int_frag else 0
        total = m.free_total
        frag = Fraction(m.largest_free(), total) if total else None
        return Allocate(at, p.id, m.extents_of(p.id), pages, segments, frag, int_frag)

    # -- admission ---------------------------------------------------

    def arrive(self, p: Procedure) -> None:
        # could p ever be resident in the empty primary memory? Its chunk's
        # count and first piece say
        if p.size and not self.primary.store.fits(self.placement.chunk, p):
            raise UnrunnableProcedureError(
                f"procedure {p.id} (size {p.size}) can never be resident under "
                f"{self.allocator.symbol} in {self.primary.capacity} units"
            )
        if self.needs_priority and p.priority is None:
            raise ParameterError(f"procedure {p.id} has no priority")
        self.remaining[p.id] = p.time
        self.emit(Arrive(p.arrival, p.id, p.size, p.time, p.priority, p.owner, p.io_class))
        if not self.try_admit(p, p.arrival):
            self.backlog.append(p)

    def try_admit(self, p: Procedure, at: int) -> bool:
        allocated = self.allocate(p, at)
        if allocated is None and self.swap_attempt(at):
            allocated = self.allocate(p, at)
        if allocated is None:
            return False
        self.emit(Admit(at, p.id))
        self.emit(allocated)
        self.make_ready(p)
        return True

    def make_ready(self, p: Procedure) -> None:
        self.ready.add(p)
        self.candidates.add(p)

    def swap_attempt(self, at: int) -> bool:
        victim = self.candidates.head()
        if victim is None or self.backing.exceeds(victim.size):
            return False
        freed = self.primary.extents_of(victim.id)
        try:
            record = swap_out(self.primary, self.backing, victim)
        except AllocationFailure:
            return False
        chunk = self.allocator.swap_chunk
        if chunk is not None:
            record = SwapRecord(record.pid, record.backing_extents,
                                chunk.pieces(victim, victim.size))
        self.count_listed(len(freed) + len(record.backing_extents))
        self.swapped.append((victim, record))
        self.candidates.discard(record.pid)
        self.ready.discard(record.pid)
        self.emit(SwapOut(at, record.pid, freed, record.backing_extents))
        return True

    # -- reclamation -------------------------------------------------

    def reclaim(self, at: int) -> None:
        """Re-admit swapped-out procedures, then the backlog, FIFO each."""
        while self.swapped:
            p, record = self.swapped[0]
            if self.primary.exceeds(sum(record.pieces)):
                break
            try:
                granted = swap_in(self.primary, self.backing, record)
            except AllocationFailure:
                break
            self.count_listed(len(granted))
            self.swapped.popleft()
            self.emit(SwapIn(at, p.id, granted))
            self.make_ready(p)
        while self.backlog:
            if not self.try_admit(self.backlog[0], at):
                break
            self.backlog.popleft()

    # -- dispatch ----------------------------------------------------

    def pump_arrivals(self, until: int) -> None:
        """Let in every arrival at or before `until`, in stream order."""
        head = self.stream.peek()
        if head is not None and head.arrival <= until:
            for p in self.stream.take_until(until):
                self.arrive(p)

    def dispatch(self) -> None:
        """Run the head of the ready set for one slice, to its end. The
        arrivals strictly inside the slice come in before it ends. At its
        end a completion frees memory and reclaims before that instant's
        arrivals; a preemption lets them in first, the preempted procedure
        a swap candidate throughout, and it rejoins unless swapped out."""
        p = self.ready.pop()
        self.candidates.discard(p.id)
        left = self.remaining[p.id]
        run = self.run_length(p, left)
        self.emit(Dispatch(self.clock, p.id, run))
        end = self.clock + run
        self.pump_arrivals(end - 1)
        self.clock = end
        self.remaining[p.id] = left = left - run
        if left == 0:
            self.emit(Complete(end, p.id))
            freed = deallocate(self.primary, p.id)
            self.emit(Deallocate(end, p.id, freed))
            self.reclaim(end)
        else:
            self.emit(Preempt(end, p.id, left))
            self.candidates.add(p)
            self.pump_arrivals(end)
            if p in self.candidates:
                self.ready.add(p)

    def run(self) -> Trace:
        while True:
            self.pump_arrivals(self.clock)
            if self.ready:
                self.dispatch()
                continue
            head = self.stream.peek()
            if head is not None:
                self.clock = head.arrival  # later than the clock, once pumped
                continue
            if self.swapped or self.backlog:
                # nothing is resident, and the last completion reclaimed
                # into empty memory, which grants whatever `fits` admitted
                raise OsAlgError("simulation stuck: nothing ready, memory idle")
            break
        # a stable sort: events of one instant keep their emission order
        # within each kind
        events = sorted(self.events, key=_TRACE_ORDER)
        graph = self.allocator.binding_log(events)
        if self.check is not None:
            self.check.finish(graph)
        return Trace(events=tuple(events), binding=graph)


def run(
    workload: ProcedureSet | Iterable[Procedure],
    cfg: SimConfig,
    strict: bool | None = None,
) -> tuple[Trace, Metrics]:
    """Simulate the workload under the configuration: the scheduler and
    allocator it names, over its memory and backing capacities.

    `strict` checks each event as it is emitted: each memory change, with
    full checks of memory spread over the run and run again at its end,
    and each dispatch; then the binding log, once. Unset, it follows the
    OSALG_STRICT environment variable.

    A run whose trace would list more than MAX_TRACE dispatches, pages
    and extents raises TraceLimitError: before its first event, when
    `trace_bound` is over the limit, or at the swap whose extents take it
    over. Two procedures of one id raise ParameterError.
    """
    if strict is None:
        strict = os.environ.get(STRICT_ENV, "") == "1"
    backing = cfg.backing_capacity
    trace = _Simulation(
        workload, SCHEDULERS[cfg.scheduler](cfg), ALLOCATORS[cfg.allocator](cfg),
        cfg.memory_capacity, cfg.memory_capacity if backing is None else backing, strict,
    ).run()
    return trace, metrics(trace)


# The largest count of dispatches, listed pages and relisted extents a
# run's trace may hold. One dispatch costs about 14 us and 0.9 KB of peak
# memory (rr with quantum 1 on Python 3.11, a 2-core host), so a run
# within the limit ends in seconds and under 200 MB.
MAX_TRACE = 200_000


def trace_bound(procedures: Iterable[Procedure], cpu: Discipline, allocator: Allocator) -> int:
    """What the trace of a run grows with, known before the run: its
    Dispatch lines, the count of the chunks the CPU discipline `cpu` cuts
    each procedure's CPU demand into (one for a discipline that runs a
    procedure to completion), plus, when the allocator is paged, each
    procedure's pages, which its Allocate line lists. Counting builds no
    chunk. A swap lists extents again, which the run counts as it goes."""
    memory, paged = allocator.discipline.chunk, allocator.paged
    return sum(cpu.chunk.count(p, p.time) + (memory.count(p, p.size) if paged else 0)
               for p in procedures)


def dispatch_slices(
    procedures: Iterable[Procedure], discipline: Discipline
) -> list[tuple[int, int, int]]:
    """(pid, start, length) of each dispatch when `discipline` schedules
    the procedures over first-fit memory that holds all of them at once;
    the run is bounded, and its ids checked, as `run`'s are."""
    members = list(procedures)
    capacity = max(1, sum(p.size for p in members))
    trace = _Simulation(members, discipline, FIRST_FIT_MEMORY, capacity, capacity,
                        False).run()
    return [(e.pid, e.instant, e.run) for e in trace.of_kind(Dispatch)]


def metrics(t: Trace) -> Metrics:
    """Waiting, turnaround, makespan, and fragmentation numbers.

    Requires a complete trace: every arrived procedure must have
    completed.
    """
    arrivals: dict[int, int] = {}
    times: dict[int, int] = {}
    completions: dict[int, int] = {}
    frag_samples: list[Fraction] = []
    int_frag = 0
    for e in t.events:
        kind = type(e)
        if kind is Arrive:
            arrivals[e.pid] = e.instant
            times[e.pid] = e.time
        elif kind is Complete:
            completions[e.pid] = e.instant
        elif kind is Allocate:
            if e.ext_frag is not None:
                frag_samples.append(e.ext_frag)
            int_frag += e.int_frag
    unfinished = sorted(set(arrivals) - set(completions))
    if unfinished:
        raise IncompleteRunError(f"procedures never completed: {unfinished}")
    turnaround = {pid: completions[pid] - arrivals[pid] for pid in sorted(arrivals)}
    waiting = {pid: turnaround[pid] - times[pid] for pid in sorted(arrivals)}
    count = len(arrivals)
    mean_wait = Fraction(sum(waiting.values()), count) if count else Fraction(0)
    mean_turn = Fraction(sum(turnaround.values()), count) if count else Fraction(0)
    return Metrics(
        waiting=waiting,
        turnaround=turnaround,
        makespan=max(completions.values(), default=0),
        mean_waiting=mean_wait,
        mean_turnaround=mean_turn,
        external_fragmentation=tuple(frag_samples),
        mean_external_fragmentation=_mean(frag_samples) if frag_samples else None,
        internal_fragmentation_total=int_frag,
    )


def _mean(samples: list[Fraction]) -> Fraction:
    """The exact mean of `samples`: the numerators of each denominator
    summed, those sums added over the least common denominator, and one
    Fraction made at the end. The sums are added in pairs, then pairs of
    pairs, so that the common denominators grow evenly rather than one
    running total carrying the largest through every addition."""
    numerators: dict[int, int] = {}
    for s in samples:
        numerators[s.denominator] = numerators.get(s.denominator, 0) + s.numerator
    terms = [(n, d) for d, n in numerators.items()]
    while len(terms) > 1:
        merged = []
        for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2]):
            common = math.lcm(d1, d2)
            merged.append((n1 * (common // d1) + n2 * (common // d2), common))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    total, common = terms[0]
    return Fraction(total, common * len(samples))
