"""Domain types shared by every other module.

Memory is modeled as a finite pool of reusable units; CPU time as an
unbounded sequence of instants, each assignable once. Every unit of a
resource set carries a unique natural number, its address, and units are
kept in strictly increasing address order. A contiguous run of units is
described by a half-open ``Extent`` so that its size is exactly
``end - start``.

A ``Procedure`` is the unit every discipline manipulates: it records a
memory demand, a CPU demand, and a lifecycle state. While passive it is a
file; activating it against an interpretation context makes it a process,
and passivating captures the context back into the file. Procedure values
are ordinary data: sets hold them, disciplines take them as arguments and
hand them back as results. All types here are immutable values; the
operations are pure functions. The one exception is ``ArrivalStream``,
the cursor that hands procedures to schedulers in arrival order.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BoundsError,
    IllegalTransitionError,
    MalformedExtentError,
    ParameterError,
    StreamOrderError,
)

# Addresses are consecutive naturals from 0 within each resource set; any
# unique monotone numbering would do, consecutiveness keeps extent
# arithmetic total.
Address = int


class ResourceKind(Enum):
    """The only two kinds of resource the disciplines manage."""

    FINITE_REUSABLE = "finite-reusable"  # memory
    INFINITE_NONREUSABLE = "infinite-nonreusable"  # CPU time


@dataclass(frozen=True)
class ResourceUnit:
    """One indivisible unit of a resource, identified by its address."""

    address: Address

    def __post_init__(self) -> None:
        if self.address < 0:
            raise MalformedExtentError(f"address must be natural, got {self.address}")


class _Addresses(abc.Sequence):
    """The units of addresses 0..count-1, each made when it is read.

    Compares equal to the tuple of the same units, so a memory set built
    by :meth:`ResourceSet.memory` equals one given its units eagerly.
    """

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        addresses = range(self.count)[index]
        if isinstance(addresses, range):
            return tuple(map(ResourceUnit, addresses))
        return ResourceUnit(addresses)

    def __iter__(self) -> Iterator[ResourceUnit]:
        return map(ResourceUnit, range(self.count))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Addresses):
            return self.count == other.count
        if isinstance(other, tuple):
            return len(other) == self.count and tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<units 0..{self.count - 1}>" if self.count else "()"


@dataclass(frozen=True)
class ResourceSet:
    """An address-ordered countable set of resource units.

    Finite reusable sets (memory) carry a capacity equal to the unit
    count; :meth:`memory` builds one in O(1), its units made on demand
    like those of an infinite set. Infinite non-reusable sets (CPU time)
    have ``capacity is None`` and generate units on demand via
    :meth:`unit_at`.
    """

    kind: ResourceKind
    units: Sequence[ResourceUnit] = ()
    capacity: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.units, _Addresses):  # consecutive by construction
            addresses = [u.address for u in self.units]
            if any(b <= a for a, b in zip(addresses, addresses[1:])):
                raise MalformedExtentError("unit addresses must strictly increase")
        if self.kind is ResourceKind.FINITE_REUSABLE:
            # an on-demand set counts its units without len(), which fails
            # past the largest index, 2**63 - 1 on 64-bit builds
            count = (
                self.units.count if isinstance(self.units, _Addresses)
                else len(self.units)
            )
            if self.capacity is None or self.capacity != count:
                raise ParameterError("finite set capacity must equal its unit count")
        elif self.capacity is not None:
            raise ParameterError("infinite set cannot carry a capacity")

    def __hash__(self) -> int:
        # equal sets agree on kind and capacity; hashing the units would
        # cost O(capacity) and fail on the on-demand ones
        return hash((self.kind, self.capacity))

    @staticmethod
    def memory(capacity: int) -> "ResourceSet":
        """A finite reusable set of `capacity` consecutively addressed units."""
        if capacity < 0:
            raise ParameterError(f"capacity must be natural, got {capacity}")
        return ResourceSet(
            kind=ResourceKind.FINITE_REUSABLE,
            units=_Addresses(capacity),
            capacity=capacity,
        )

    @staticmethod
    def cpu_time() -> "ResourceSet":
        """The countably infinite, non-reusable set of CPU time instants."""
        return ResourceSet(kind=ResourceKind.INFINITE_NONREUSABLE)

    def unit_at(self, address: Address) -> ResourceUnit:
        """The unit with the given address (valid for both kinds)."""
        if address < 0 or (self.capacity is not None and address >= self.capacity):
            raise BoundsError(f"no unit at address {address}")
        if self.capacity is not None:
            return self.units[address]
        return ResourceUnit(address)


def addr(unit: ResourceUnit) -> Address:
    """The unique natural address of a resource unit."""
    return unit.address


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

    def contains(self, address: Address) -> bool:
        return self.start <= address < self.end

    def encloses(self, other: "Extent") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Extent") -> bool:
        return self.start < other.end and other.start < self.end

    def __str__(self) -> str:
        # ".." rather than "," keeps extents comma-free for CSV details
        return f"[{self.start}..{self.end})"


def extent_size(e: Extent) -> int:
    """Number of units in the extent: ``end - start``."""
    return e.size


class LifecycleState(Enum):
    """Passive procedures are files; active ones are processes."""

    PASSIVE = "passive"
    ACTIVE = "active"


class WorkClass(Enum):
    """Static workload tag steering variable-quantum scheduling."""

    IO_BOUND = "IoBound"
    CPU_BOUND = "CpuBound"


Context = tuple[tuple[str, Any], ...]


def _freeze_context(context: Mapping[str, Any] | Context) -> Context:
    if isinstance(context, tuple):
        return context
    return tuple(sorted(context.items()))


@dataclass(frozen=True)
class Procedure:
    """A schedulable unit: memory demand `size`, CPU demand `time`.

    `priority` and `owner` are optional external attributes; `segments`,
    when present, names the variable-sized chunks a segmentation
    allocator should place (they must sum to `size`). The interpretation
    context is opaque: nothing here reads its contents.
    """

    id: int
    size: int
    time: int
    priority: int | None = None
    owner: str | None = None
    arrival: int = 0
    state: LifecycleState = LifecycleState.PASSIVE
    io_class: WorkClass | None = None
    segments: tuple[int, ...] | None = None
    context: Context | None = None

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


def activate(p: Procedure, context: Mapping[str, Any] | Context) -> Procedure:
    """Turn a file into a process by attaching an interpretation context."""
    if p.state is LifecycleState.ACTIVE:
        raise IllegalTransitionError(f"procedure {p.id} is already active")
    if context is None:
        raise ParameterError("activation requires an interpretation context")
    return replace(p, state=LifecycleState.ACTIVE, context=_freeze_context(context))


def passivate(p: Procedure) -> Procedure:
    """Turn a process back into a file, capturing its current context."""
    if p.state is LifecycleState.PASSIVE:
        raise IllegalTransitionError(f"procedure {p.id} is already passive")
    return replace(p, state=LifecycleState.PASSIVE)


def set_state(
    p: Procedure,
    target: LifecycleState,
    context: Mapping[str, Any] | Context | None = None,
) -> Procedure:
    """Dispatch to :func:`activate` or :func:`passivate` by target state."""
    if target is LifecycleState.ACTIVE:
        if context is None:
            raise ParameterError("activation requires an interpretation context")
        return activate(p, context)
    return passivate(p)


@dataclass(frozen=True)
class ProcedureSet:
    """An ordered set of procedures with unique ids.

    Order is arrival order unless some organize operation reorders it.
    """

    members: tuple[Procedure, ...] = ()

    def __post_init__(self) -> None:
        ids = [p.id for p in self.members]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
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


def project(k: int, value: Procedure | ProcedureSet | Sequence[Any]) -> Any:
    """1-indexed projection.

    For a procedure, component 1 is its size and component 2 its time.
    For a set or sequence, the k-th member.
    """
    if isinstance(value, Procedure):
        if k == 1:
            return value.size
        if k == 2:
            return value.time
        raise BoundsError(f"procedure has components 1..2, got {k}")
    members = value.members if isinstance(value, ProcedureSet) else value
    if not 1 <= k <= len(members):
        raise BoundsError(f"index {k} outside 1..{len(members)}")
    return members[k - 1]
