"""CPU-time disciplines as batch schedules.

Each function runs one scheduling policy of the simulator (`osalg.sim`)
over first-fit memory large enough to hold every procedure at once, and
returns the simulator's dispatches as slices; the disciplines themselves
are written once, as the simulator's policies.

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

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .combinators import SortKey
from .core import ArrivalStream, Procedure, ProcedureSet
from .errors import ParameterError
# Classifier and class_quantum are defined with the simulator's registry
# and published here, next to the disciplines that take them
from .sim import FCFS, PRIORITY, SJF, Classifier, Policy, class_quantum, dispatch_slices


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


def admit(stream: ArrivalStream | Iterable[Procedure], now: int) -> ProcedureSet:
    """Procedures that have arrived by `now`, in arrival order.

    The caller keeps the ready set: finished or swapped-out members drop
    out of it there, not here.
    """
    if not isinstance(stream, ArrivalStream):
        stream = ArrivalStream(stream)
    return ProcedureSet(stream.take_until(now))


def _project(procedures: Iterable[Procedure], policy: Policy) -> Schedule:
    return Schedule(tuple(Slice(*s) for s in dispatch_slices(procedures, policy)))


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


def round_robin(
    procedures: ProcedureSet | Sequence[Procedure], q: Quantum | int
) -> Schedule:
    """Equal CPU-time chunks of size q, rotated in arrival order."""
    value = (q if isinstance(q, Quantum) else Quantum(q)).value
    return _project(procedures, Policy(quantum_of=lambda p: value))


def variable_quantum(
    procedures: ProcedureSet | Sequence[Procedure], classifier: Classifier
) -> Schedule:
    """Round robin with a per-procedure chunk size from the classifier; a
    chunk size below 1 raises ParameterError."""
    return _project(procedures, Policy(quantum_of=classifier))
