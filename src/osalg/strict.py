"""Strict mode's memory check, one change at a time.

Each grant, release, swap-out and swap-in of a strict run reaches the
`MemoryCheck` of the memory it changed as a delta: the procedure, the
extents it took or freed, and the instant and kind of the trace event
that records it. The check keeps its own record of that memory: the
occupied extents in address order, and the extents each holder was
granted. It shares no code with the free stores, so a store or ledger
that goes wrong shows as a disagreement with the record. Each delta is
checked in O(log n) plus a list insert or delete:

- a granted extent lies inside the memory (whole units under a unit),
  clear of the occupied extents next to it and of the store's free
  extents;
- a freed one is what its holder was granted, and lies inside a free
  extent of the store after the release, which is itself inside the
  memory and clear of the occupied extents;
- the unit just before and the unit just after each granted extent, and
  each free extent a release leaves, is occupied, free or outside the
  memory, so no unit beside a change drops out of both;
- the ledger holds the procedure after a grant and not after a release,
  has as many holders as the record, and carries a free total of the
  memory's size less what the record has occupied.

A delta that disagrees runs the full `MemoryState.check_invariants` at
once, so that a breach that check finds is reported in its words. The
full check also runs once the changes since its last run reach the
number of holders, and on every memory at the end of the run: its cost
is spread to O(log n) a change. It alone sees the store's own shape, and
a store that changed away from the extents a delta touched.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from enum import Enum
from operator import attrgetter
from typing import NoReturn

from .allocators import MemoryLedger
from .core import Extent
from .errors import InvariantViolation

_start = attrgetter("start")

# a delta as (verb, procedure id, extents, instant, event kind), put into
# words only on failure
Change = tuple[str, int, tuple[Extent, ...], int, Enum]


def _text(extents: Sequence[Extent]) -> str:
    return "+".join(map(str, extents)) or "nothing"


def _where(event: int, at: tuple[int, str, int] | None) -> str:
    if at is None:
        return f"the end of the run (event {event})"
    instant, kind, pid = at
    return f"event {event} ({kind} of procedure {pid} at instant {instant})"


class MemoryCheck:
    """Strict mode's record of one memory of a run. `events` is the run's
    list of emitted events: a change is found at the index of the next
    event emitted, the one that records it (a grant's Admit, a release's
    Deallocate, a swap's SwapOut or SwapIn)."""

    def __init__(self, name: str, ledger: MemoryLedger, events: Sequence[object]):
        self.name = name
        self.events = events
        residue = ledger.residue
        self.limit = ledger.capacity if residue is None else residue.start
        self.unit = ledger.unit_size
        # the occupied extents, address ordered, as parallel start and end lists
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.occupied = 0
        self.held: dict[int, tuple[Extent, ...]] = {}
        self.since = 0  # changes since the last full check
        # the event index and event of the last full check passed
        self.clean: tuple[int, tuple[int, str, int] | None] | None = None

    def grant(
        self, ledger: MemoryLedger, pid: int, extents: tuple[Extent, ...],
        instant: int, kind: Enum,
    ) -> None:
        change = ("grant", pid, extents, instant, kind)
        if pid in self.held:
            self.fail(ledger, change, "conservation",
                      f"procedure {pid} already holds {_text(self.held[pid])}")
        starts, ends, unit, limit = self.starts, self.ends, self.unit, self.limit
        free = ledger.store.free_extents()
        for e in extents:
            s, t = e.start, e.end
            if s == t:
                continue
            if t > limit:
                self.fail(ledger, change, "conservation",
                          f"extent {e} beyond the {limit} units of the memory")
            if unit is not None and (s % unit or t % unit):
                self.fail(ledger, change, "store-shape",
                          f"extent {e} is not whole units of {unit}")
            i = bisect_right(starts, s)
            if (i and ends[i - 1] > s) or (i < len(starts) and starts[i] < t):
                self.fail(ledger, change, "disjointness",
                          f"extent {e} overlaps an occupied one")
            j = bisect_right(free, s, key=_start)
            if (j and free[j - 1].end > s) or (j < len(free) and free[j].start < t):
                self.fail(ledger, change, "disjointness",
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
            j = bisect_right(free, s, key=_start)
            if not (s == 0 or (i and ends[i - 1] == s) or (j and free[j - 1].end == s)):
                self.uncovered(ledger, change, s - 1, e)
            if not (t == limit or (i + 1 < len(starts) and starts[i + 1] == t)
                    or (j < len(free) and free[j].start == t)):
                self.uncovered(ledger, change, t, e)
        self.held[pid] = extents
        self.settle(ledger, change, pid, True)

    def release(
        self, ledger: MemoryLedger, pid: int, extents: tuple[Extent, ...],
        instant: int, kind: Enum,
    ) -> None:
        change = ("release", pid, extents, instant, kind)
        held = self.held.pop(pid, None)
        if held != extents:
            self.fail(ledger, change, "conservation",
                      f"procedure {pid} was granted "
                      f"{'nothing' if held is None else _text(held)}")
        starts, ends, limit = self.starts, self.ends, self.limit
        for e in extents:
            if e.start < e.end:
                i = bisect_left(starts, e.start)
                del starts[i], ends[i]
                self.occupied -= e.end - e.start
        free = ledger.store.free_extents()
        for e in extents:
            s, t = e.start, e.end
            if s == t:
                continue
            j = bisect_right(free, s, key=_start) - 1
            if j < 0 or free[j].end < t:
                self.fail(ledger, change, "conservation",
                          f"freed extent {e} is not free in the store")
            # the free extent around e, and the units beside it
            a, b = free[j].start, free[j].end
            if b > limit:
                self.fail(ledger, change, "conservation",
                          f"free extent {free[j]} beyond the {limit} units "
                          f"of the memory")
            i = bisect_right(starts, a)
            if (i and ends[i - 1] > a) or (i < len(starts) and starts[i] < b):
                self.fail(ledger, change, "disjointness",
                          f"free extent {free[j]} overlaps an occupied one")
            if not (a == 0 or (i and ends[i - 1] == a) or (j and free[j - 1].end == a)):
                self.uncovered(ledger, change, a - 1, free[j])
            if not (b == limit or (i < len(starts) and starts[i] == b)
                    or (j + 1 < len(free) and free[j + 1].start == b)):
                self.uncovered(ledger, change, b, free[j])
        self.settle(ledger, change, pid, False)

    def uncovered(self, ledger: MemoryLedger, change: Change, unit: int, e: Extent) -> NoReturn:
        self.fail(ledger, change, "conservation",
                  f"unit {unit} beside {e} is neither occupied nor free")

    def settle(self, ledger: MemoryLedger, change: Change, pid: int, holds: bool) -> None:
        """The ledger's holders and free total against the record; then a
        full check, once the changes since the last reach the holders."""
        if (pid in ledger.allocated) != holds:
            self.fail(ledger, change, "conservation",
                      f"the ledger {'lacks' if holds else 'still holds'} procedure {pid}")
        if len(ledger.allocated) != len(self.held):
            self.fail(ledger, change, "conservation",
                      f"the ledger has {len(ledger.allocated)} holders, "
                      f"the record {len(self.held)}")
        if ledger.free_total != self.limit - self.occupied:
            self.fail(ledger, change, "free-total",
                      f"free total {ledger.free_total}, "
                      f"{self.limit - self.occupied} units unoccupied")
        self.since += 1
        if self.since >= len(self.held):
            self.full(ledger, change)

    def full(self, ledger: MemoryLedger, change: Change | None = None) -> None:
        """Run the full check of the memory, at the event that records
        `change`, or at the end of the run when there is none."""
        event, at = len(self.events), self.event_of(change)
        found = self.breach(ledger)
        if found is not None:
            if self.clean is None:
                before = "never found clean before"
            else:
                before = f"last found clean at {_where(*self.clean)}"
            raise self.violation(
                found.invariant, str(found), ledger, change,
                f", found by a full check, {before}",
                None if self.clean is None else self.clean[0],
            ) from found
        self.clean = (event, at)
        self.since = 0

    def fail(
        self, ledger: MemoryLedger, change: Change, invariant: str, found: str
    ) -> NoReturn:
        """Raise for a delta that disagrees with the record: in the words of
        the full check when it finds the breach too, else in the delta's."""
        breach = self.breach(ledger)
        if breach is not None:
            raise self.violation(breach.invariant, str(breach), ledger, change) from breach
        raise self.violation(invariant, found, ledger, change)

    @staticmethod
    def breach(ledger: MemoryLedger) -> InvariantViolation | None:
        """What the full check of the memory finds broken, if anything."""
        try:
            ledger.snapshot().check_invariants()
        except InvariantViolation as found:
            return found
        return None

    @staticmethod
    def event_of(change: Change | None) -> tuple[int, str, int] | None:
        """The event that records `change`, as the rendered trace shows it."""
        if change is None:
            return None
        _, pid, _, instant, kind = change
        return (instant, kind.value, pid)

    def violation(
        self, invariant: str, found: str, ledger: MemoryLedger,
        change: Change | None, how: str = "", last_clean: int | None = None,
    ) -> InvariantViolation:
        event, at = len(self.events), self.event_of(change)
        what = ""
        if change is not None:
            verb, pid, extents, _, _ = change
            what = f", {verb} of {_text(extents)} for procedure {pid}"
        excerpt = (f"{self.name} memory{what}: "
                   f"{len(ledger.allocated)} holders, "
                   f"{ledger.free_total} of {self.limit} units free")
        return InvariantViolation(
            invariant,
            f"{invariant} broken at {_where(event, at)}{how}: {found} ({excerpt})",
            event, at, excerpt, last_clean,
        )
