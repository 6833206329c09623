"""CPU-time disciplines as batch schedules.

Each function runs one scheduling policy of the simulator (`osalg.sim`)
over first-fit memory large enough to hold every procedure at once, and
returns the simulator's dispatches as slices; the disciplines themselves
are written once, as the simulator's policies, and a schedule is bounded
as a simulator run is.

Each discipline repeatedly draws the next procedure from the ready set:
first-come-first-served selects the first member of the identity
organization, shortest-job-first the first member of a sort, priority
scheduling the argmax. CPU time is not reusable, so the resulting
schedule assigns every instant at most once; when nothing is ready the
clock jumps to the next arrival.

Fixed-size chunking of CPU demands (``Chunk.fixed``) gives round robin;
variable-size chunking, driven by a per-procedure classifier
(``Chunk.by_class``), gives the I/O-bound versus CPU-bound disciplines.
Both preempt only at chunk boundaries. Each rotates: the ready set's key
is join order, and arrivals at or before a chunk's end join ahead of the
preempted procedure. A chunk composes with the other selects too: a
chunked sort or argmax priority keeps its key, of the declared time or
priority, so a preempted procedure rejoins by it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .combinators import Chunk, Classifier, Discipline, SortKey
# ArrivalStream is imported for the benchmark's span over
# `schedulers.ArrivalStream.take_until`, which wraps it here
from .core import ArrivalStream, Procedure, ProcedureSet
from .errors import ParameterError
# class_quantum is defined with the simulator's registry and published
# here, next to the disciplines that take it
from .sim import FCFS, PRIORITY, SJF, class_quantum, dispatch_slices, rotating


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

    def completion(self, pid: int) -> int:
        ends = [s.end for s in self.slices if s.pid == pid]
        if not ends:
            raise ParameterError(f"procedure {pid} never scheduled")
        return max(ends)


def _project(procedures: Iterable[Procedure], discipline: Discipline) -> Schedule:
    return Schedule(tuple(Slice(*s) for s in dispatch_slices(procedures, discipline)))


def fcfs(procedures: ProcedureSet | Sequence[Procedure]) -> Schedule:
    """First come, first served: identity selection over the arrival order."""
    return _project(procedures, FCFS)


def sjf(procedures: ProcedureSet | Sequence[Procedure], key: SortKey | str) -> Schedule:
    """Shortest job first by size or time, non-preemptive."""
    key = SortKey(key) if not isinstance(key, SortKey) else key
    if key is SortKey.PRIORITY:
        raise ParameterError("shortest-job-first orders by size or time")
    return _project(procedures, SJF[key])


def priority_schedule(procedures: ProcedureSet | Sequence[Procedure]) -> Schedule:
    """Highest priority first, non-preemptive; ids break ties. A procedure
    without a priority raises ParameterError."""
    return _project(procedures, PRIORITY)


def round_robin(procedures: ProcedureSet | Sequence[Procedure], q: int) -> Schedule:
    """Equal CPU-time chunks of size q, rotated in arrival order: first
    come, first served in fixed chunks."""
    return _project(procedures, rotating(Chunk.fixed(q)))


def variable_quantum(
    procedures: ProcedureSet | Sequence[Procedure], classifier: Classifier
) -> Schedule:
    """Round robin with a per-procedure chunk size from the classifier; a
    chunk size below 1 raises ParameterError."""
    return _project(procedures, rotating(Chunk.by_class(classifier)))
