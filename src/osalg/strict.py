"""Strict mode: a check of each run against the trace it emits.

A strict run hands each event to `RunCheck.see` as it is emitted, before
it joins the trace. A Dispatch must start once the CPU's last slice is
over (cpu-time) and run a resident procedure (residency). An Admit,
Deallocate, SwapOut or SwapIn records a grant or a release of extents,
which reaches the `MemoryCheck` of its memory as a delta, and an
Allocate must list what its Admit granted (conservation). The check
keeps its own record of that memory: the occupied extents in address
order, and the extents each holder was granted. It shares no code with
the free stores, so a store or memory that goes wrong shows as a
disagreement with the record. Each delta is checked in O(log n) plus a
list insert or delete:

- a granted extent lies inside the memory (whole units under a unit),
  clear of the occupied extents next to it and of the store's free
  extents;
- a freed one is what its holder was granted, and lies inside a free
  extent of the store after the release, which is itself inside the
  memory and clear of the occupied extents;
- the unit just before and the unit just after each granted extent, and
  each free extent a release leaves, is occupied, free or outside the
  memory, so no unit beside a change drops out of both;
- the memory holds the procedure after a grant and not after a release,
  has as many holders as the record, and carries a free total of the
  memory's size less what the record has occupied.

A delta that disagrees runs the full `MemoryState.check_invariants` at
once, so that a breach that check finds is reported in its words. The
full check also runs once the changes since its last run reach the
holders it found then (at least one), and on every memory at the end of
the run: its cost is spread to O(log n) a change. It alone sees the
store's own shape, and a store that changed away from the extents a
delta touched. `RunCheck.finish` runs the checks at the end of the run,
and validates the binding log.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import NoReturn

from . import binding
from .allocators import MemoryState
from .core import Extent, address_order
from .errors import InvariantViolation
from .sim import Admit, Allocate, Deallocate, Dispatch, SwapIn, SwapOut, TraceEvent

# a delta as (verb, extents, the event that records it)
Change = tuple[str, tuple[Extent, ...], TraceEvent]


def _text(extents: Sequence[Extent]) -> str:
    return "+".join(map(str, extents)) or "nothing"


def _where(index: int, event: TraceEvent | None) -> str:
    if event is None:
        return f"the end of the run (event {index})"
    instant, kind, pid = event.instant, type(event).__name__, event.pid
    return f"event {index} ({kind} of procedure {pid} at instant {instant})"


def _violation(
    invariant: str, found: str, index: int, event: TraceEvent | None,
    excerpt: str, how: str = "", last_clean: int | None = None,
) -> InvariantViolation:
    """A breach found at `event`, the `index`th emitted (None at the end)."""
    at = None if event is None else (event.instant, type(event).__name__, event.pid)
    return InvariantViolation(
        invariant, f"{invariant} broken at {_where(index, event)}{how}: {found} ({excerpt})",
        index, at, excerpt, last_clean,
    )


class RunCheck:
    """Strict mode's observer of one run over its primary and backing
    memories: `see` is given each event before it joins `events`, so a
    breach is found at that event's index."""

    def __init__(self, primary: MemoryState, backing: MemoryState,
                 events: Sequence[TraceEvent]):
        self.events = events
        self.primary = MemoryCheck("primary", primary, events)
        self.backing = MemoryCheck("backing", backing, events)
        self.frontier = 0  # the first CPU instant not yet assigned

    def see(self, event: TraceEvent) -> None:
        """Check the change `event` records: an Admit grants what the
        memory holds for its procedure, which its Allocate must list, and
        a SwapIn frees what the backing record holds for it."""
        kind, primary, backing = type(event), self.primary, self.backing
        if kind is Admit:
            primary.grant(primary.memory.allocated.get(event.pid, ()), event)
        elif kind is Allocate:
            held = primary.held.get(event.pid, ())
            if event.extents != held:
                primary.fail(("listing", event.extents, event), "conservation",
                             f"procedure {event.pid} was granted {_text(held)}")
        elif kind is Deallocate:
            primary.release(event.extents, event)
        elif kind is SwapOut:
            primary.release(event.extents, event)
            backing.grant(event.backing, event)
        elif kind is SwapIn:
            primary.grant(event.extents, event)
            backing.release(backing.held.get(event.pid, ()), event)
        elif kind is Dispatch:
            index, start, pid = len(self.events), event.instant, event.pid
            if start < self.frontier:
                raise _violation("cpu-time", f"CPU instant {start} would be assigned twice",
                                 index, event, f"CPU assigned until {self.frontier}")
            if pid not in primary.memory.allocated:
                raise _violation("residency", f"dispatch of non-resident procedure {pid}",
                                 index, event, f"{len(primary.held)} resident procedures")
            self.frontier = start + event.run

    def finish(self, graph: binding.BindingGraph) -> None:
        """Fully check both memories, then validate the binding log."""
        self.primary.full()
        self.backing.full()
        violations = binding.validate(graph)
        if violations:
            raise InvariantViolation(
                "binding", "binding violations: " + "; ".join(map(str, violations)),
                len(self.events),
            )


class MemoryCheck:
    """Strict mode's record of one memory of a run, beside the memory."""

    def __init__(self, name: str, memory: MemoryState, events: Sequence[TraceEvent]):
        self.name = name
        self.memory = memory
        self.events = events
        residue = memory.residue
        self.limit = memory.capacity if residue is None else residue.start
        self.unit = memory.unit_size
        # the occupied extents, address ordered, as parallel start and end lists
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.occupied = 0
        self.held: dict[int, tuple[Extent, ...]] = {}
        self.since = 0  # changes since the last full check
        self.due = 1  # the holders at the last full check, at least 1
        # the event index and event of the last full check passed
        self.clean: tuple[int, TraceEvent | None] | None = None

    def grant(self, extents: tuple[Extent, ...], event: TraceEvent) -> None:
        change, pid = ("grant", extents, event), event.pid
        if pid in self.held:
            self.fail(change, "conservation",
                      f"procedure {pid} already holds {_text(self.held[pid])}")
        starts, ends, unit, limit = self.starts, self.ends, self.unit, self.limit
        free = self.memory.store.free_extents()
        for e in extents:
            s, t = e.start, e.end
            if s == t:
                continue
            if t > limit:
                self.fail(change, "conservation",
                          f"extent {e} beyond the {limit} units of the memory")
            if unit is not None and (s % unit or t % unit):
                self.fail(change, "store-shape",
                          f"extent {e} is not whole units of {unit}")
            i = bisect_right(starts, s)
            if (i and ends[i - 1] > s) or (i < len(starts) and starts[i] < t):
                self.fail(change, "disjointness",
                          f"extent {e} overlaps an occupied one")
            j = bisect_right(free, s, key=address_order)
            if (j and free[j - 1].end > s) or (j < len(free) and free[j].start < t):
                self.fail(change, "disjointness",
                          f"extent {e} overlaps a free extent of the store")
            starts.insert(i, s)
            ends.insert(i, t)
            self.occupied += t - s
        # the units beside each extent, once all are in the record, as they
        # may sit side by side: free extents end at or before s, and start
        # at or after t
        for e in extents:
            s, t = e.start, e.end
            if s == t:
                continue
            i = bisect_left(starts, s)
            j = bisect_right(free, s, key=address_order)
            if not (s == 0 or (i and ends[i - 1] == s) or (j and free[j - 1].end == s)):
                self.uncovered(change, s - 1, e)
            if not (t == limit or (i + 1 < len(starts) and starts[i + 1] == t)
                    or (j < len(free) and free[j].start == t)):
                self.uncovered(change, t, e)
        self.held[pid] = extents
        self.settle(change, True)

    def release(self, extents: tuple[Extent, ...], event: TraceEvent) -> None:
        change, pid = ("release", extents, event), event.pid
        held = self.held.pop(pid, None)
        if held != extents:
            self.fail(change, "conservation",
                      f"procedure {pid} was granted "
                      f"{'nothing' if held is None else _text(held)}")
        starts, ends, limit = self.starts, self.ends, self.limit
        for e in extents:
            if e.start < e.end:
                i = bisect_left(starts, e.start)
                del starts[i], ends[i]
                self.occupied -= e.end - e.start
        free = self.memory.store.free_extents()
        for e in extents:
            s, t = e.start, e.end
            if s == t:
                continue
            j = bisect_right(free, s, key=address_order) - 1
            # a free extent past the memory breaks the full check too, so
            # `fail` always reports that in the full check's words
            if j < 0 or free[j].end < t or free[j].end > limit:
                self.fail(change, "conservation",
                          f"freed extent {e} is not free in the store")
            # the free extent around e, and the units beside it
            a, b = free[j].start, free[j].end
            i = bisect_right(starts, a)
            if (i and ends[i - 1] > a) or (i < len(starts) and starts[i] < b):
                self.fail(change, "disjointness",
                          f"free extent {free[j]} overlaps an occupied one")
            if not (a == 0 or (i and ends[i - 1] == a) or (j and free[j - 1].end == a)):
                self.uncovered(change, a - 1, free[j])
            if not (b == limit or (i < len(starts) and starts[i] == b)
                    or (j + 1 < len(free) and free[j + 1].start == b)):
                self.uncovered(change, b, free[j])
        self.settle(change, False)

    def uncovered(self, change: Change, unit: int, e: Extent) -> NoReturn:
        self.fail(change, "conservation",
                  f"unit {unit} beside {e} is neither occupied nor free")

    def settle(self, change: Change, holds: bool) -> None:
        """The memory's holders and free total against the record; then a
        full check, once the changes since the last reach `due`."""
        memory, pid = self.memory, change[2].pid
        if (pid in memory.allocated) != holds:
            self.fail(change, "conservation",
                      f"the memory {'lacks' if holds else 'still holds'} procedure {pid}")
        if len(memory.allocated) != len(self.held):
            self.fail(change, "conservation",
                      f"the memory has {len(memory.allocated)} holders, "
                      f"the record {len(self.held)}")
        if memory.free_total != self.limit - self.occupied:
            self.fail(change, "free-total",
                      f"free total {memory.free_total}, "
                      f"{self.limit - self.occupied} units unoccupied")
        self.since += 1
        if self.since >= self.due:
            self.full(change)

    def full(self, change: Change | None = None) -> None:
        """Run the full check of the memory, at the event that records
        `change`, or at the end of the run when there is none."""
        found = self.breach()
        if found is not None:
            before = ("never found clean before" if self.clean is None
                      else f"last found clean at {_where(*self.clean)}")
            raise self.violation(
                found.invariant, str(found), change,
                f", found by a full check, {before}",
                None if self.clean is None else self.clean[0],
            ) from found
        self.clean = (len(self.events), None if change is None else change[2])
        self.since = 0
        self.due = max(1, len(self.held))

    def fail(self, change: Change, invariant: str, found: str) -> NoReturn:
        """Raise for a delta that disagrees with the record: in the words of
        the full check when it finds the breach too, else in the delta's."""
        breach = self.breach()
        if breach is not None:
            raise self.violation(breach.invariant, str(breach), change) from breach
        raise self.violation(invariant, found, change)

    def breach(self) -> InvariantViolation | None:
        """What the full check of the memory finds broken, if anything."""
        try:
            self.memory.check_invariants()
        except InvariantViolation as found:
            return found
        return None

    def violation(
        self, invariant: str, found: str, change: Change | None,
        how: str = "", last_clean: int | None = None,
    ) -> InvariantViolation:
        event, what = None, ""
        if change is not None:
            verb, extents, event = change
            what = f", {verb} of {_text(extents)} for procedure {event.pid}"
        memory = self.memory
        excerpt = (f"{self.name} memory{what}: "
                   f"{len(memory.allocated)} holders, "
                   f"{memory.free_total} of {self.limit} units free")
        return _violation(invariant, found, len(self.events), event, excerpt,
                          how, last_clean)
