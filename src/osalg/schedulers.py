"""CPU-time disciplines built from the select/organize algebra.

Each discipline repeatedly draws the next procedure from the ready set:
first-come-first-served selects the first member of the identity
organization, shortest-job-first the first member of a sort, priority
scheduling the argmax. CPU time is not reusable, so the resulting
schedule assigns every instant at most once; when nothing is ready the
clock jumps to the next arrival.

Fixed-size chunking of CPU demands gives round robin; variable-size
chunking, driven by a per-procedure classifier, gives the I/O-bound
versus CPU-bound disciplines. Both preempt only at chunk boundaries.
Arrivals at or before a chunk's end join the rotation queue ahead of the
preempted procedure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .combinators import Organize, Select, SortKey, compose
from .core import Procedure, ProcedureSet, WorkClass
from .errors import ParameterError, StreamOrderError

Classifier = Callable[[Procedure], int]


@dataclass(frozen=True)
class Slice:
    """One contiguous CPU-time assignment."""

    pid: int
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of disjoint CPU-time slices."""

    slices: tuple[Slice, ...] = ()

    def __iter__(self) -> Iterator[Slice]:
        return iter(self.slices)

    def __len__(self) -> int:
        return len(self.slices)

    @property
    def makespan(self) -> int:
        return max((s.end for s in self.slices), default=0)

    def dispatch_order(self) -> tuple[int, ...]:
        """Procedure ids in order of first dispatch."""
        seen: list[int] = []
        for s in self.slices:
            if s.pid not in seen:
                seen.append(s.pid)
        return tuple(seen)

    def total_time(self, pid: int) -> int:
        return sum(s.length for s in self.slices if s.pid == pid)

    def completion(self, pid: int) -> int:
        ends = [s.end for s in self.slices if s.pid == pid]
        if not ends:
            raise ParameterError(f"procedure {pid} never scheduled")
        return max(ends)

    def check_disjoint(self) -> None:
        """Assert no CPU instant is assigned twice and time never rewinds."""
        clock = 0
        for s in self.slices:
            if s.start < clock:
                raise ParameterError(
                    f"slice for {s.pid} at {s.start} overlaps instant {clock - 1}"
                )
            clock = s.end


@dataclass(frozen=True)
class Quantum:
    """A fixed CPU-time chunk size."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ParameterError(f"quantum must be >= 1, got {self.value}")


class ArrivalStream:
    """Pull-based arrival source; arrivals must be non-decreasing.

    Works over any iterable, including unbounded generators, pulling only
    as far as the requested instant.
    """

    def __init__(self, procedures: Iterable[Procedure]):
        self._source = iter(procedures)
        self._peeked: Procedure | None = None
        self._last_arrival = 0
        self._exhausted = False

    def peek(self) -> Procedure | None:
        if self._peeked is None and not self._exhausted:
            try:
                candidate = next(self._source)
            except StopIteration:
                self._exhausted = True
                return None
            if candidate.arrival < self._last_arrival:
                raise StreamOrderError(
                    f"arrival {candidate.arrival} after {self._last_arrival}"
                )
            self._last_arrival = candidate.arrival
            self._peeked = candidate
        return self._peeked

    def take_until(self, now: int) -> tuple[Procedure, ...]:
        """Pull every procedure with arrival <= now, in stream order."""
        taken: list[Procedure] = []
        while True:
            head = self.peek()
            if head is None or head.arrival > now:
                break
            taken.append(head)
            self._peeked = None
        return tuple(taken)

    @property
    def exhausted(self) -> bool:
        return self.peek() is None


def admit(stream: ArrivalStream | Iterable[Procedure], now: int) -> ProcedureSet:
    """Procedures that have arrived by `now`, in arrival order.

    The caller keeps the ready set: finished or swapped-out members drop
    out of it there, not here.
    """
    if not isinstance(stream, ArrivalStream):
        stream = ArrivalStream(stream)
    return ProcedureSet(stream.take_until(now))


def _dispatch_loop(
    procedures: ProcedureSet | Sequence[Procedure],
    pick: Callable[[tuple[Procedure, ...]], Procedure],
) -> Schedule:
    """Non-preemptive loop: re-evaluate the discipline at each dispatch."""
    pending = sorted(procedures, key=lambda p: (p.arrival, p.id))
    ready: list[Procedure] = []
    slices: list[Slice] = []
    clock = 0
    while pending or ready:
        while pending and pending[0].arrival <= clock:
            ready.append(pending.pop(0))
        if not ready:
            clock = pending[0].arrival
            continue
        chosen = pick(tuple(ready))
        ready.remove(chosen)
        slices.append(Slice(chosen.id, clock, chosen.time))
        clock += chosen.time
    return Schedule(tuple(slices))


def fcfs(procedures: ProcedureSet | Sequence[Procedure]) -> Schedule:
    """First come, first served: identity selection over the arrival order."""
    discipline = compose(Select.identity(1), Organize.identity())
    return _dispatch_loop(procedures, lambda ready: discipline.apply(ready))


def sjf(procedures: ProcedureSet | Sequence[Procedure], key: SortKey | str) -> Schedule:
    """Shortest job first by size or time, non-preemptive."""
    key = SortKey(key) if not isinstance(key, SortKey) else key
    if key is SortKey.PRIORITY:
        raise ParameterError("shortest-job-first orders by size or time")
    discipline = compose(Select.identity(1), Organize.sort(key))
    return _dispatch_loop(procedures, lambda ready: discipline.apply(ready))


def priority_schedule(procedures: ProcedureSet | Sequence[Procedure]) -> Schedule:
    """Highest priority first, non-preemptive; ids break ties."""
    for p in procedures:
        if p.priority is None:
            raise ParameterError(f"procedure {p.id} has no priority")
    discipline = compose(Select.argmax_priority(), Organize.identity())
    return _dispatch_loop(procedures, lambda ready: discipline.apply(ready))


def _quantum_loop(
    procedures: ProcedureSet | Sequence[Procedure], quantum_of: Classifier
) -> Schedule:
    pending = sorted(procedures, key=lambda p: (p.arrival, p.id))
    for p in pending:
        if quantum_of(p) < 1:
            raise ParameterError(f"quantum for procedure {p.id} must be >= 1")
    remaining = {p.id: p.time for p in pending}
    queue: list[Procedure] = []
    slices: list[Slice] = []
    clock = 0

    def admit_until(now: int) -> None:
        while pending and pending[0].arrival <= now:
            queue.append(pending.pop(0))

    admit_until(clock)
    while queue or pending:
        if not queue:
            clock = pending[0].arrival
            admit_until(clock)
            continue
        p = queue.pop(0)
        run = min(quantum_of(p), remaining[p.id])
        slices.append(Slice(p.id, clock, run))
        clock += run
        remaining[p.id] -= run
        admit_until(clock)  # arrivals enter ahead of the preempted procedure
        if remaining[p.id] > 0:
            queue.append(p)
    return Schedule(tuple(slices))


def round_robin(
    procedures: ProcedureSet | Sequence[Procedure], q: Quantum | int
) -> Schedule:
    """Equal CPU-time chunks of size q, rotated in arrival order."""
    value = q.value if isinstance(q, Quantum) else q
    if value < 1:
        raise ParameterError(f"quantum must be >= 1, got {value}")
    return _quantum_loop(procedures, lambda p: value)


def variable_quantum(
    procedures: ProcedureSet | Sequence[Procedure], classifier: Classifier
) -> Schedule:
    """Round robin with a per-procedure chunk size from the classifier."""
    return _quantum_loop(procedures, classifier)


def class_quantum(io_quantum: int = 1, cpu_quantum: int = 4) -> Classifier:
    """Classifier giving I/O-bound procedures a small chunk, CPU-bound a
    large one; untagged procedures count as CPU-bound."""
    if io_quantum < 1 or cpu_quantum < 1:
        raise ParameterError("class quanta must be >= 1")

    def classify(p: Procedure) -> int:
        return io_quantum if p.io_class is WorkClass.IO_BOUND else cpu_quantum

    return classify
