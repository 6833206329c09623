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
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Iterable, Mapping

from . import binding as bindingmod
from .allocators import (
    MemoryLedger,
    MemoryState,
    Pagination,
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
    Discipline,
    Organize,
    OrderKey,
    Select,
    SortKey,
    compose,
    order_key,
)
from .core import ArrivalStream, Extent, Procedure, ProcedureSet, WorkClass
from .errors import (
    AllocationFailure,
    IncompleteRunError,
    OsAlgError,
    ParameterError,
    SwapFailure,
    UnrunnableProcedureError,
)

if TYPE_CHECKING:
    from .strict import RunCheck

STRICT_ENV = "OSALG_STRICT"


class EventKind(Enum):
    ARRIVE = "Arrive"
    ADMIT = "Admit"
    ALLOCATE = "Allocate"
    DISPATCH = "Dispatch"
    PREEMPT = "Preempt"
    COMPLETE = "Complete"
    SWAP_OUT = "SwapOut"
    SWAP_IN = "SwapIn"
    DEALLOCATE = "Deallocate"


# Fixed order for events sharing an instant; completions free resources
# before anything else claims them, dispatch always renders last.
_KIND_ORDER = {
    EventKind.COMPLETE: 0,
    EventKind.PREEMPT: 1,
    EventKind.DEALLOCATE: 2,
    EventKind.SWAP_IN: 3,
    EventKind.ARRIVE: 4,
    EventKind.ADMIT: 5,
    EventKind.SWAP_OUT: 6,
    EventKind.ALLOCATE: 7,
    EventKind.DISPATCH: 8,
}

# An event's fields in render order, as values: int sizes, times and lengths,
# tuples of Extent, SegmentMap.segments, PageMap.entries, the WorkClass, and
# a Fraction, or None, for ext_frag. Only the CLI renders them as text.
Detail = tuple[tuple[str, object], ...]
Extents = tuple[Extent, ...]
Graph = bindingmod.BindingGraph


@dataclass(frozen=True)
class TraceEvent:
    instant: int
    kind: EventKind
    pid: int
    detail: Detail = ()

    def value(self, key: str) -> object:
        for k, v in self.detail:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class Trace:
    """Ordered event log of one run, plus the binding log derived from it."""

    events: tuple[TraceEvent, ...] = ()
    binding: bindingmod.BindingGraph = field(default_factory=bindingmod.BindingGraph)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)


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
        SCHEDULERS[self.scheduler](self)  # building the policy checks its parameters
        ALLOCATORS[self.allocator].check_config(self)

    @property
    def effective_backing(self) -> int:
        return (
            self.memory_capacity
            if self.backing_capacity is None
            else self.backing_capacity
        )


class _Memory:
    """Primary/backing memory pair under one allocator, each a ledger the
    run updates in place.

    This base class is first fit over the identity organization; each
    other allocator is a subclass that changes its organizer, its
    feasibility test, its grant and, for paging, the binding log it
    derives from a trace.
    Swap-in is the same for all: the primary state's free store regrants
    the procedure in its own pieces. `ALLOCATORS` maps each allocator
    name to its class.
    """

    symbol = "free-list"  # the binding-log symbol of the free store
    select = Select.first_fit()

    @staticmethod
    def check_config(cfg: SimConfig) -> None:
        """Raise ParameterError when cfg lacks what this allocator needs."""

    def organizer(self) -> Organize:
        return Organize.identity()

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        organizer = self.organizer()
        self.discipline: Discipline = compose(self.select, organizer)
        self.primary = MemoryLedger(MemoryState.initial(cfg.memory_capacity, organizer))
        self.backing = MemoryLedger(
            MemoryState.initial(cfg.effective_backing, Organize.identity())
        )

    def feasible(self, p: Procedure) -> bool:
        """Could p, of non-zero size, ever be resident in an empty primary
        memory?"""
        return p.size <= self.cfg.memory_capacity

    @staticmethod
    def listed_pages(cfg: SimConfig, p: Procedure) -> int:
        """How many pages a trace line that grants p lists."""
        return 0

    def grant(self, p: Procedure) -> tuple[Detail, int]:
        """Grant memory to p; returns the allocator's own trace detail and
        the internal fragmentation."""
        self.primary, _ = allocate_op(self.discipline, self.primary, p)
        return (), 0

    def allocate(self, p: Procedure) -> Detail:
        """Grant memory to p; returns the trace detail of the grant."""
        extra, int_frag = self.grant(p)
        return (
            (("extents", self.primary.extents_of(p.id)),)
            + extra
            + (("ext_frag", self.frag_sample()), ("int_frag", int_frag))
        )

    def release(self, pid: int) -> Extents:
        extents = self.primary.extents_of(pid)
        self.primary = deallocate(self.primary, pid)
        return extents

    def swap_out_victim(self, victim: Procedure) -> tuple[SwapRecord, Extents]:
        freed = self.primary.extents_of(victim.id)
        self.primary, self.backing, record = swap_out(
            self.primary, self.backing, victim
        )
        return record, freed

    def swap_in_record(self, record: SwapRecord) -> Extents:
        self.primary, self.backing, granted = swap_in(
            self.primary, self.backing, record
        )
        return granted

    def binding_log(self, events: Iterable[TraceEvent]) -> Graph:
        """The binding log of a run whose sorted trace is `events`: the
        free store is bound at 0."""
        return bindingmod.record(Graph(), self.symbol, bindingmod.EventKind.BIND, 0)

    def frag_sample(self) -> Fraction | None:
        total = self.primary.free_size
        if total == 0:
            return None
        return Fraction(self.primary.largest_free(), total)


class _Fixed(_Memory):
    """First fit over fixed-size units; a procedure fits in one unit."""

    symbol = "frames"

    @staticmethod
    def check_config(cfg: SimConfig) -> None:
        if cfg.unit_size is None or cfg.unit_size < 1:
            raise ParameterError("fixed allocator needs --unit >= 1")

    def organizer(self) -> Organize:
        return Organize.fixed_partition(self.cfg.unit_size)

    def feasible(self, p: Procedure) -> bool:
        unit = self.cfg.unit_size
        return p.size <= unit and self.cfg.memory_capacity // unit >= 1

    def grant(self, p: Procedure) -> tuple[Detail, int]:
        super().grant(p)
        return (), (self.cfg.unit_size - p.size if p.size else 0)


class _Buddy(_Memory):
    """Buddy-fit selection over the binary buddy tree."""

    symbol = "buddy-tree"
    select = Select.buddy_fit()

    @staticmethod
    def check_config(cfg: SimConfig) -> None:
        if cfg.memory_capacity & (cfg.memory_capacity - 1):
            raise ParameterError("buddy allocator needs a power-of-two capacity")

    def organizer(self) -> Organize:
        return Organize.buddy()

    def feasible(self, p: Procedure) -> bool:
        return self.primary.store.block_size_for(p.size) <= self.cfg.memory_capacity


class _Segmentation(_Memory):
    """First fit per segment; an unsegmented procedure is one segment."""

    def grant(self, p: Procedure) -> tuple[Detail, int]:
        spec = p.segments if p.segments is not None else ((p.size,) if p.size else ())
        seg_map, self.primary = segment_alloc(p, spec, self.discipline, self.primary)
        return ((("segments", seg_map.segments),) if seg_map.segments else ()), 0


class _Paging(_Memory):
    """Pages of a procedure into free frames, through a page table that
    is bound on admit and used on every dispatch."""

    symbol = "frames"

    @staticmethod
    def check_config(cfg: SimConfig) -> None:
        if cfg.page_size is None or cfg.page_size < 1:
            raise ParameterError("paging allocator needs --page-size >= 1")

    def organizer(self) -> Organize:
        return Organize.fixed_partition(self.cfg.page_size)

    def feasible(self, p: Procedure) -> bool:
        page = self.cfg.page_size
        return self.listed_pages(self.cfg, p) <= self.cfg.memory_capacity // page

    @staticmethod
    def listed_pages(cfg: SimConfig, p: Procedure) -> int:
        return Pagination(p.id, cfg.page_size, p.size).page_count

    def grant(self, p: Procedure) -> tuple[Detail, int]:
        pagination = paginate(p, self.cfg.page_size)
        page_map, self.primary = build_page_table(pagination, self.primary)
        extra: Detail = (("pages", page_map.entries),) if page_map.entries else ()
        return extra, pagination.internal_fragmentation

    def binding_log(self, events: Iterable[TraceEvent]) -> Graph:
        """Each Allocate or SwapIn of p binds p's pages, then p's page
        table, which depends on the frames and on those pages; each
        Dispatch of p uses p's page table. The dependencies are gathered
        first and the graph is built, and checked, once."""
        graph = super().binding_log(events)
        bind, use = bindingmod.EventKind.BIND, bindingmod.EventKind.USE
        dependencies: set[tuple[str, str]] = set()
        for e in events:
            if e.kind is EventKind.ALLOCATE or e.kind is EventKind.SWAP_IN:
                pages, table = f"pages:{e.pid}", f"page-table:{e.pid}"
                graph = bindingmod.record(graph, pages, bind, e.instant)
                graph = bindingmod.record(graph, table, bind, e.instant)
                dependencies.update(((self.symbol, table), (pages, table)))
            elif e.kind is EventKind.DISPATCH:
                graph = bindingmod.record(graph, f"page-table:{e.pid}", use, e.instant)
        return Graph(graph.events, graph.dependencies | dependencies)


# Each allocator name -> its class; `check_config` checks its parameters.
ALLOCATORS: dict[str, type[_Memory]] = {
    "first-fit": _Memory,
    "fixed": _Fixed,
    "buddy": _Buddy,
    "paging": _Paging,
    "segmentation": _Segmentation,
}

Classifier = Callable[[Procedure], int]


def class_quantum(io_quantum: int = 1, cpu_quantum: int = 4) -> Classifier:
    """Classifier giving I/O-bound procedures a small chunk, CPU-bound a
    large one; untagged procedures count as CPU-bound."""
    if io_quantum < 1 or cpu_quantum < 1:
        raise ParameterError("class quanta must be >= 1")

    def classify(p: Procedure) -> int:
        return io_quantum if p.io_class is WorkClass.IO_BOUND else cpu_quantum

    return classify


class OrderedReady:
    """The ready set of a non-rotating policy, organized on entry: a heap
    of order keys, each ending in its procedure's id, plus the live
    members by id. A discarded member's key stays in the heap until a pop
    or a look at the head meets it and skips it; every key of one
    procedure is the same, so a procedure that rejoins while a stale key
    is left is popped once. Once stale keys outnumber the live members
    the heap is rebuilt from them, so it stays O(live) in size. Keyed by
    `victim_key`, the same structure holds a run's swap candidates,
    whose head is read but seldom popped."""

    def __init__(self, key: OrderKey):
        self.key = key
        self.heap: list[tuple] = []
        self.live: dict[int, Procedure] = {}

    def __len__(self) -> int:
        return len(self.live)

    def add(self, p: Procedure) -> None:
        self.live[p.id] = p
        heappush(self.heap, self.key(p))

    def pop(self) -> Procedure:
        """The member of least key, taken out of the set."""
        while True:
            p = self.live.pop(heappop(self.heap)[-1], None)
            if p is not None:
                return p

    def head(self) -> Procedure | None:
        """The member of least key, left in the set; None when empty."""
        heap, live = self.heap, self.live
        while heap:
            p = live.get(heap[0][-1])
            if p is not None:
                return p
            heappop(heap)
        return None

    def discard(self, pid: int) -> None:
        self.live.pop(pid, None)
        if len(self.heap) > 2 * len(self.live) + 32:
            self.heap = [self.key(p) for p in self.live.values()]
            heapify(self.heap)


class RotatingReady:
    """The ready set of a rotating policy: a FIFO queue."""

    def __init__(self) -> None:
        self.queue: deque[Procedure] = deque()

    def __len__(self) -> int:
        return len(self.queue)

    def add(self, p: Procedure) -> None:
        self.queue.append(p)

    def pop(self) -> Procedure:
        return self.queue.popleft()

    def discard(self, pid: int) -> None:
        for i, q in enumerate(self.queue):
            if q.id == pid:
                del self.queue[i]
                return


ReadySet = OrderedReady | RotatingReady


@dataclass(frozen=True)
class Policy:
    """A CPU discipline as the simulator runs it.

    Without `quantum_of`, the ready set is kept ordered by a key taken
    from `discipline` once, when the policy is built, and the head runs
    to completion; a discipline with no such order raises
    CompositionError. With `quantum_of`, the head of the rotation queue
    runs for at most `quantum_of` of it and is preempted at the end of
    that chunk.
    """

    discipline: Discipline | None = None
    quantum_of: Classifier | None = None
    needs_priority: bool = False  # every procedure must carry a priority
    key: OrderKey | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.quantum_of is None:
            if self.discipline is None:
                raise ParameterError("a policy needs a discipline or a quantum")
            object.__setattr__(self, "key", order_key(self.discipline))

    def ready_set(self) -> ReadySet:
        """An empty ready set kept in this policy's order."""
        if self.key is None:
            return RotatingReady()
        return OrderedReady(self.key)

    def run_length(self, p: Procedure, left: int) -> int:
        """How long p runs once dispatched with `left` time units to go."""
        if self.quantum_of is None:
            return left
        quantum = self.quantum_of(p)
        if quantum < 1:
            raise ParameterError(f"quantum for procedure {p.id} must be >= 1")
        return min(quantum, left)


FCFS = Policy(compose(Select.identity(1), Organize.identity()))
SJF = {
    key: Policy(compose(Select.identity(1), Organize.sort(key)))
    for key in (SortKey.SIZE, SortKey.TIME)
}
PRIORITY = Policy(
    compose(Select.argmax_priority(), Organize.identity()), needs_priority=True
)


def _round_robin(cfg: SimConfig) -> Policy:
    if cfg.quantum < 1:
        raise ParameterError("round robin quantum must be >= 1")
    return Policy(quantum_of=lambda p: cfg.quantum)


# Each scheduler name -> its policy under a configuration; building the
# policy checks the scheduler's parameters.
SCHEDULERS: dict[str, Callable[[SimConfig], Policy]] = {
    "fcfs": lambda cfg: FCFS,
    "sjf-size": lambda cfg: SJF[SortKey.SIZE],
    "sjf-time": lambda cfg: SJF[SortKey.TIME],
    "priority": lambda cfg: PRIORITY,
    "rr": _round_robin,
    "var-quantum": lambda cfg: Policy(
        quantum_of=class_quantum(cfg.io_quantum, cfg.cpu_quantum)
    ),
}


class _Simulation:
    """One run; `policy`, when given, replaces the scheduler cfg names."""

    def __init__(
        self, stream: ArrivalStream, cfg: SimConfig, strict: bool,
        policy: Policy | None = None,
    ):
        self.cfg = cfg
        self.stream = stream
        # events in emission order; instants never decrease along it
        self.events: list[TraceEvent] = []
        self.memory = ALLOCATORS[cfg.allocator](cfg)
        # strict mode's observer of the events; only a strict run loads it
        self.check: RunCheck | None = None
        if strict:
            from .strict import RunCheck

            self.check = RunCheck(self.memory, self.events)
        self.policy = policy or SCHEDULERS[cfg.scheduler](cfg)
        self.clock = 0
        self.procs: dict[int, Procedure] = {}
        self.remaining: dict[int, int] = {}
        self.ready = self.policy.ready_set()
        # what a swap may evict: the ready members plus the holdover
        self.candidates = OrderedReady(victim_key)
        self.backlog: deque[Procedure] = deque()
        self.swapped: deque[SwapRecord] = deque()
        self.running: tuple[int, int, int] | None = None  # pid, start, end
        self.holdover: Procedure | None = None  # preempted, rejoins after arrivals

    def emit(self, instant: int, kind: EventKind, pid: int, detail: Detail = ()) -> None:
        last = self.events[-1].instant if self.events else instant
        if instant < last:
            raise OsAlgError(f"event at {instant} after instant {last}")
        event = TraceEvent(instant, kind, pid, detail)
        if self.check is not None:
            self.check.see(event)
        self.events.append(event)

    # -- admission ---------------------------------------------------

    def arrive(self, p: Procedure) -> None:
        if p.size and not self.memory.feasible(p):
            raise UnrunnableProcedureError(
                f"procedure {p.id} (size {p.size}) can never be resident under "
                f"{self.cfg.allocator} in {self.cfg.memory_capacity} units"
            )
        if self.policy.needs_priority and p.priority is None:
            raise ParameterError(f"procedure {p.id} has no priority")
        self.procs[p.id] = p
        self.remaining[p.id] = p.time
        detail: list[tuple[str, object]] = [("size", p.size), ("time", p.time)]
        if p.priority is not None:
            detail.append(("priority", p.priority))
        if p.owner is not None:
            detail.append(("owner", p.owner))
        if p.io_class is not None:
            detail.append(("class", p.io_class))
        self.emit(p.arrival, EventKind.ARRIVE, p.id, tuple(detail))
        if not self.try_admit(p, p.arrival):
            self.backlog.append(p)

    def try_admit(self, p: Procedure, at: int) -> bool:
        try:
            detail = self.memory.allocate(p)
        except AllocationFailure:
            if not self.swap_attempt(at):
                return False
            try:
                detail = self.memory.allocate(p)
            except AllocationFailure:
                return False
        self.emit(at, EventKind.ADMIT, p.id)
        self.emit(at, EventKind.ALLOCATE, p.id, detail)
        self.make_ready(p)
        return True

    def make_ready(self, p: Procedure) -> None:
        self.ready.add(p)
        self.candidates.add(p)

    def swap_attempt(self, at: int) -> bool:
        # the running procedure stays resident; a just-preempted one is an
        # ordinary candidate even before it rejoins the queue
        victim = self.candidates.head()
        if victim is None:
            return False
        try:
            record, freed = self.memory.swap_out_victim(victim)
        except SwapFailure:
            return False
        self.swapped.append(record)
        self.candidates.discard(record.pid)
        self.ready.discard(record.pid)
        if self.holdover is not None and self.holdover.id == record.pid:
            self.holdover = None
        self.emit(
            at,
            EventKind.SWAP_OUT,
            record.pid,
            (("extents", freed), ("backing", record.backing_extents)),
        )
        return True

    # -- reclamation -------------------------------------------------

    def reclaim(self, at: int) -> None:
        """Re-admit swapped-out procedures, then the backlog, FIFO each."""
        while self.swapped:
            record = self.swapped[0]
            p = self.procs[record.pid]
            try:
                granted = self.memory.swap_in_record(record)
            except AllocationFailure:
                break
            self.swapped.popleft()
            self.emit(at, EventKind.SWAP_IN, p.id, (("extents", granted),))
            self.make_ready(p)
        while self.backlog:
            if not self.try_admit(self.backlog[0], at):
                break
            self.backlog.popleft()

    # -- dispatch ----------------------------------------------------

    def pump_arrivals(self, limit: int, inclusive: bool) -> None:
        while True:
            head = self.stream.peek()
            if head is None:
                return
            if head.arrival > limit or (head.arrival == limit and not inclusive):
                return
            for p in self.stream.take_until(head.arrival):
                self.arrive(p)

    def dispatch(self) -> None:
        chosen = self.ready.pop()
        self.candidates.discard(chosen.id)
        run = self.policy.run_length(chosen, self.remaining[chosen.id])
        self.emit(self.clock, EventKind.DISPATCH, chosen.id, (("run", run),))
        self.running = (chosen.id, self.clock, self.clock + run)

    def finish_slice(self) -> None:
        assert self.running is not None
        pid, start, end = self.running
        self.running = None
        self.remaining[pid] -= end - start
        if self.remaining[pid] == 0:
            self.emit(end, EventKind.COMPLETE, pid)
            freed = self.memory.release(pid)
            self.emit(end, EventKind.DEALLOCATE, pid, (("extents", freed),))
            self.reclaim(end)
        else:
            self.emit(end, EventKind.PREEMPT, pid, (("left", self.remaining[pid]),))
            self.holdover = self.procs[pid]
            self.candidates.add(self.holdover)

    def run(self) -> Trace:
        while True:
            if self.running is not None:
                _, _, end = self.running
                self.pump_arrivals(end, inclusive=False)
                self.clock = end
                self.finish_slice()
                continue
            self.pump_arrivals(self.clock, inclusive=True)
            if self.holdover is not None:
                self.ready.add(self.holdover)  # arrivals joined first
                self.holdover = None
            if self.ready:
                self.dispatch()
                continue
            head = self.stream.peek()
            if head is not None:
                self.clock = max(self.clock, head.arrival)
                continue
            if self.swapped or self.backlog:
                self.reclaim(self.clock)
                if self.ready:
                    continue
                raise OsAlgError("simulation stuck: nothing ready, memory idle")
            break
        # a stable sort: events of one instant keep their emission order
        # within each kind
        events = sorted(self.events, key=lambda e: (e.instant, _KIND_ORDER[e.kind]))
        graph = self.memory.binding_log(events)
        if self.check is not None:
            self.check.finish(graph)
        return Trace(events=tuple(events), binding=graph)


def run(
    workload: ProcedureSet | Iterable[Procedure] | ArrivalStream,
    cfg: SimConfig,
    strict: bool | None = None,
) -> tuple[Trace, Metrics]:
    """Simulate the workload under the configuration.

    `strict` checks each event as it is emitted: each memory change, with
    full checks of memory spread over the run and run again at its end,
    and each dispatch; then the binding log, once. Unset, it follows the
    OSALG_STRICT environment variable.
    """
    if strict is None:
        strict = os.environ.get(STRICT_ENV, "") == "1"
    if isinstance(workload, ArrivalStream):
        stream = workload
    else:
        members = sorted(workload, key=lambda p: (p.arrival, p.id))
        stream = ArrivalStream(members)
    sim = _Simulation(stream, cfg, strict)
    trace = sim.run()
    return trace, metrics(trace)


def trace_bound(procedures: Iterable[Procedure], cfg: SimConfig) -> int:
    """What the trace of a run grows with, known before the run: its
    Dispatch lines, the CPU demand of each procedure in quanta (one
    dispatch for a policy that runs a procedure to completion), plus,
    under paging, each procedure's pages, which its Allocate line lists."""
    policy, pages = SCHEDULERS[cfg.scheduler](cfg), ALLOCATORS[cfg.allocator].listed_pages
    return sum(-(-p.time // policy.run_length(p, p.time)) + pages(cfg, p)
               for p in procedures)


def dispatch_slices(
    procedures: Iterable[Procedure], policy: Policy
) -> list[tuple[int, int, int]]:
    """(pid, start, length) of each dispatch when `policy` schedules the
    procedures over first-fit memory that holds all of them at once."""
    members = sorted(procedures, key=lambda p: (p.arrival, p.id))
    cfg = SimConfig(memory_capacity=max(1, sum(p.size for p in members)))
    trace = _Simulation(ArrivalStream(members), cfg, False, policy).run()
    return [
        (e.pid, e.instant, e.value("run"))
        for e in trace.of_kind(EventKind.DISPATCH)
    ]


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
        if e.kind is EventKind.ARRIVE:
            arrivals[e.pid] = e.instant
            times[e.pid] = e.value("time")
        elif e.kind is EventKind.COMPLETE:
            completions[e.pid] = e.instant
        elif e.kind is EventKind.ALLOCATE:
            sample = e.value("ext_frag")
            if sample is not None:
                frag_samples.append(sample)
            int_frag += e.value("int_frag")
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
