"""Brute-force reference implementations used as ground truth in tests.

Everything here is deliberately independent of the combinator machinery
and of the simulator: schedules come from exhaustive permutation
enumeration or a round robin stepped one instant at a time, buddy
placements from a textbook free-list allocator. Nothing is imported from
`osalg`: procedures are read by their `id`, `arrival` and `time`
attributes, failures are built-in exceptions or `NoFreeBlock`, and
results are plain tuples, so nothing leaks back from the code paths they
are meant to check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations
from typing import Any, Callable, Iterable, Sequence

MAX_ENUMERATION = 8  # factorial enumeration stays under a second


class NoFreeBlock(Exception):
    """The reference buddy allocator has no free block for a demand."""


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive search: the best value and its cost."""

    order: tuple[int, ...]  # procedure ids in dispatch order
    slices: tuple[tuple[int, int, int], ...]  # (pid, start, length)
    cost: int


def _replay(order: Sequence[Any]) -> tuple[tuple[tuple[int, int, int], ...], int]:
    clock = 0
    slices = []
    total_wait = 0
    for p in order:
        start = max(clock, p.arrival)
        total_wait += start - p.arrival
        slices.append((p.id, start, p.time))
        clock = start + p.time
    return tuple(slices), total_wait


def brute_schedule(procedures: Iterable[Any]) -> OracleResult:
    """Enumerate every dispatch order and return a minimum total-wait one.

    Ties resolve to the lexicographically smallest id order. Limited to
    8 procedures; an empty set has the one empty order.
    """
    members = tuple(procedures)
    if len(members) > MAX_ENUMERATION:
        raise ValueError(
            f"enumeration limited to {MAX_ENUMERATION} procedures, got {len(members)}"
        )
    best: OracleResult | None = None
    for perm in permutations(members):
        slices, cost = _replay(perm)
        ids = tuple(p.id for p in perm)
        if best is None or cost < best.cost or (cost == best.cost and ids < best.order):
            best = OracleResult(order=ids, slices=slices, cost=cost)
    return best


def reference_buddy(
    capacity: int, ops: Iterable[tuple] = ()
) -> "ReferenceBuddy":
    """Replay allocate/free ops on a textbook free-list buddy allocator.

    Ops are ``("alloc", key, size)`` or ``("free", key)``. Returns the
    allocator so callers can inspect placements and the final free lists.
    """
    allocator = ReferenceBuddy(capacity)
    for op in ops:
        if op[0] == "alloc":
            allocator.alloc(op[1], op[2])
        elif op[0] == "free":
            allocator.free(op[1])
        else:
            raise ValueError(f"unknown op {op[0]!r}")
    return allocator


class ReferenceBuddy:
    """Free-list buddy allocator: power-of-two blocks, eager sibling merge.

    Placement policy: the lowest-addressed free block large enough, split
    repeatedly keeping the lower half. Blocks are (start, size) pairs.
    """

    def __init__(self, capacity: int):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        self.capacity = capacity
        self.free_blocks: list[tuple[int, int]] = [(0, capacity)]
        self.placements: dict[object, tuple[int, int]] = {}

    def alloc(self, key: object, size: int) -> tuple[int, int]:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        block_size = 1 << (size - 1).bit_length()
        candidates = [b for b in self.free_blocks if b[1] >= block_size]
        if not candidates:
            raise NoFreeBlock(f"no free block of {block_size} units")
        start, have = min(candidates)
        self.free_blocks.remove((start, have))
        while have > block_size:
            have //= 2
            self.free_blocks.append((start + have, have))
        self.free_blocks.sort()
        self.placements[key] = (start, block_size)
        return (start, block_size)

    def free(self, key: object) -> None:
        if key not in self.placements:
            raise KeyError(f"unknown placement {key!r}")
        start, size = self.placements.pop(key)
        while size < self.capacity:
            buddy = (start ^ size, size)
            if buddy not in self.free_blocks:
                break
            self.free_blocks.remove(buddy)
            start = min(start, buddy[0])
            size *= 2
        self.free_blocks.append((start, size))
        self.free_blocks.sort()

    def free_extent_pairs(self) -> list[tuple[int, int]]:
        """Free blocks as (start, end) pairs in address order."""
        return [(s, s + n) for s, n in self.free_blocks]


def replay_rr(
    procedures: Iterable[Any],
    quantum: int | Callable[[Any], int],
) -> tuple[tuple[int, int, int], ...]:
    """Round robin stepped one CPU instant at a time, one slice tuple per
    turn.

    At each instant, first every procedure arrived by then joins the
    queue's tail, then a turn that has used its quantum or finished its
    work ends (an unfinished procedure rejoins the tail, behind those
    arrivals), then an idle CPU takes the queue's head, and the running
    procedure spends the instant. A constant quantum reproduces the
    fixed-quantum discipline; a callable gives per-procedure quanta.
    """
    quantum_of = quantum if callable(quantum) else (lambda p: quantum)
    pending = deque(sorted(procedures, key=lambda p: (p.arrival, p.id)))
    for p in pending:
        if quantum_of(p) < 1:
            raise ValueError(f"quantum must be >= 1 for procedure {p.id}")
    left = {p.id: p.time for p in pending}
    queue: deque[Any] = deque()
    turn: tuple[Any, int] | None = None  # running procedure, turn start
    slices: list[tuple[int, int, int]] = []
    now = 0
    while pending or queue or turn is not None:
        while pending and pending[0].arrival <= now:
            queue.append(pending.popleft())
        if turn is not None:
            p, start = turn
            if left[p.id] == 0 or now - start == quantum_of(p):
                slices.append((p.id, start, now - start))
                if left[p.id]:
                    queue.append(p)
                turn = None
        if turn is None and queue:
            turn = (queue.popleft(), now)
        if turn is not None:
            left[turn[0].id] -= 1
        now += 1
    return tuple(slices)
