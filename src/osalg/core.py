"""Domain types shared by every other module.

Memory is modeled as a finite pool of reusable units, counted by its
capacity; CPU time as an unbounded sequence of instants, each assignable
once. Every unit of memory carries a unique natural number, its address,
from 0 up. A contiguous run of units is described by a half-open
``Extent`` so that its size is exactly ``end - start``.

A ``Procedure`` is the unit every discipline manipulates: it records a
memory demand and a CPU demand. Procedure values are ordinary data: sets
hold them, disciplines take them as arguments and hand them back as
results. All types here are immutable values. The one exception is
``ArrivalStream``, a run's cursor over its procedures: it sorts them
into arrival order once, checks their ids, and hands them out as the
clock reaches their arrivals.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import MalformedExtentError, ParameterError

# Addresses are consecutive naturals from 0 within one memory; any unique
# monotone numbering would do, consecutiveness keeps extent arithmetic
# total.
Address = int


@dataclass(frozen=True)
class Extent:
    """A half-open contiguous run ``[start, end)`` of resource units."""

    start: Address
    end: Address

    def __post_init__(self) -> None:
        if self.start < 0:
            raise MalformedExtentError(f"extent start must be natural, got {self.start}")
        if self.start > self.end:
            raise MalformedExtentError(f"malformed extent [{self.start}, {self.end})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        # ".." rather than "," keeps extents comma-free for CSV details
        return f"[{self.start}..{self.end})"


class WorkClass(Enum):
    """Static workload tag steering variable-quantum scheduling."""

    IO_BOUND = "IoBound"
    CPU_BOUND = "CpuBound"


@dataclass(frozen=True)
class Procedure:
    """A schedulable unit: memory demand `size`, CPU demand `time`.

    `priority` and `owner` are optional external attributes; `segments`,
    when present, names the variable-sized chunks a segmentation
    allocator should place (they must sum to `size`).
    """

    id: int
    size: int
    time: int
    priority: int | None = None
    owner: str | None = None
    arrival: int = 0
    io_class: WorkClass | None = None
    segments: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ParameterError(f"id must be natural, got {self.id}")
        if self.size < 0:
            raise ParameterError(f"size must be >= 0, got {self.size}")
        if self.time < 1:
            raise ParameterError(f"time must be >= 1, got {self.time}")
        if self.arrival < 0:
            raise ParameterError(f"arrival must be >= 0, got {self.arrival}")
        if self.priority is not None and self.priority < 0:
            raise ParameterError(f"priority must be natural, got {self.priority}")
        if self.segments is not None:
            if any(s < 1 for s in self.segments):
                raise ParameterError("segments must each be >= 1")
            if sum(self.segments) != self.size:
                raise ParameterError(
                    f"segments sum to {sum(self.segments)}, size is {self.size}"
                )


@dataclass(frozen=True)
class ProcedureSet:
    """An ordered set of procedures with unique ids.

    Order is arrival order unless some organize operation reorders it.
    """

    members: tuple[Procedure, ...] = ()

    def __post_init__(self) -> None:
        counts = Counter(p.id for p in self.members)
        if len(counts) != len(self.members):
            dup = next(i for i, n in counts.items() if n > 1)
            raise ParameterError(f"duplicate procedure id {dup}")

    @staticmethod
    def of(*procedures: Procedure) -> "ProcedureSet":
        return ProcedureSet(tuple(procedures))

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> Procedure:
        return self.members[index]


class ArrivalStream:
    """A run's arrivals: the procedures sorted by (arrival, id) into
    `members`, which must be a ProcedureSet (ids unique), taken in
    slices as the clock reaches them."""

    def __init__(self, procedures: Iterable[Procedure]):
        self.members = ProcedureSet(
            tuple(sorted(procedures, key=lambda p: (p.arrival, p.id)))).members
        self._next = 0

    def peek(self) -> Procedure | None:
        """The next procedure to arrive, or None once all have."""
        return self.members[self._next] if self._next < len(self.members) else None

    def take_until(self, now: int) -> tuple[Procedure, ...]:
        """Take every procedure not yet taken with arrival <= now."""
        start = self._next
        self._next = bisect_right(self.members, now, start, key=attrgetter("arrival"))
        return self.members[start:self._next]
