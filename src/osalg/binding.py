"""Binding-before-use validation.

The graph records Bind and Use events against a non-decreasing clock and
checks them after the fact: a use of a symbol is only legal when some
binding of that symbol sits at an earlier or equal instant, and declared
dependencies constrain the order in which bindings themselves may appear.
Undeclared bindings are independent and may land in any order. Violations
are data, not errors.

The classic memory-management instance: framing memory and paginating a
program are independent bindings, and both must exist before the page
table that binds pages to frames is built and used.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum

from .errors import ClockError, CycleError


class EventKind(Enum):
    BIND = "Bind"
    USE = "Use"


@dataclass(frozen=True)
class BindingEvent:
    symbol: str
    kind: EventKind
    instant: int


@dataclass(frozen=True)
class Violation:
    """One breach of the binding rules, located at an event or a pair of
    symbols."""

    kind: str  # "use-before-bind" | "dependency-order"
    symbol: str
    instant: int | None = None
    required: str | None = None  # the symbol that had to be bound first

    def __str__(self) -> str:
        if self.kind == "use-before-bind":
            return f"{self.symbol} used at {self.instant} with no prior binding"
        return f"{self.required} must be bound before {self.symbol}"


@dataclass(frozen=True)
class BindingGraph:
    """Append-only log of binding/use events plus a dependency relation.

    A dependency pair (a, b) reads: a must be bound before b is bound.
    Rebinding is allowed; the latest binding at or before a use governs.

    The constructor validates its whole input: instants must never
    decrease and the dependencies must be acyclic. `with_dependency`
    builds through it. Only `record` checks just what it adds, the new
    event's instant, so a log grown one event at a time costs no
    re-validation of the events already checked.
    """

    events: tuple[BindingEvent, ...] = ()
    dependencies: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        instants = [e.instant for e in self.events]
        if any(b < a for a, b in zip(instants, instants[1:])):
            raise ClockError("event instants must be non-decreasing")
        successors = _successor_index(self.dependencies)
        _find_cycle(successors)

    @classmethod
    def _extend(
        cls,
        events: tuple[BindingEvent, ...],
        dependencies: frozenset[tuple[str, str]],
    ) -> "BindingGraph":
        """A graph whose parts the caller has already checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "events", events)
        object.__setattr__(g, "dependencies", dependencies)
        return g

    def with_dependency(self, first: str, then: str) -> "BindingGraph":
        """Declare that `first` must be bound before `then`. The graph was
        acyclic, so any cycle the constructor finds runs through the new
        edge."""
        return BindingGraph(self.events, self.dependencies | {(first, then)})


def record(
    g: BindingGraph, symbol: str, kind: EventKind | str, instant: int
) -> BindingGraph:
    """Append one event; instants may never decrease."""
    kind = EventKind(kind) if not isinstance(kind, EventKind) else kind
    if g.events and instant < g.events[-1].instant:
        raise ClockError(
            f"instant {instant} precedes last recorded {g.events[-1].instant}"
        )
    return BindingGraph._extend(
        g.events + (BindingEvent(symbol, kind, instant),), g.dependencies
    )


def validate(g: BindingGraph) -> list[Violation]:
    """Every breach of bind-before-use and of the dependency order.

    A use at instant t is legal when some binding of the same symbol
    exists at an instant <= t, so binding and using at the same instant
    is allowed. A dependency (a, b) is violated when b's first binding
    strictly precedes a's, or when b is bound and a never is.
    """
    violations: list[Violation] = []
    first_bind: dict[str, int] = {}
    for e in g.events:
        if e.kind is EventKind.BIND:
            first_bind.setdefault(e.symbol, e.instant)
    for e in g.events:
        if e.kind is EventKind.USE:
            bound = e.symbol in first_bind and first_bind[e.symbol] <= e.instant
            if not bound:
                violations.append(
                    Violation("use-before-bind", e.symbol, instant=e.instant)
                )
    for first, then in sorted(g.dependencies):
        if then not in first_bind:
            continue
        if first not in first_bind or first_bind[then] < first_bind[first]:
            violations.append(Violation("dependency-order", then, required=first))
    return violations


def legal_orderings(
    symbols: Iterable[str], dependencies: Iterable[tuple[str, str]]
) -> list[tuple[str, ...]]:
    """All orders in which the symbols may be bound.

    Exactly the topological orders of the dependency relation, sorted
    lexicographically. Cyclic dependencies raise CycleError naming one
    cycle.
    """
    return list(_topological_orders(tuple(symbols), frozenset(dependencies)))


def _topological_orders(
    symbols: tuple[str, ...], dependencies: frozenset[tuple[str, str]]
) -> Iterator[tuple[str, ...]]:
    """The orders of `legal_orderings`, each yielded once it is found; a
    cycle raises CycleError before the first."""
    nodes = sorted(set(symbols) | {s for pair in dependencies for s in pair})
    successors = _successor_index(dependencies)
    _find_cycle(successors)
    # blockers not yet placed, per symbol; `ready` holds, sorted, the
    # unplaced symbols with none left, which are the candidates for the
    # next position of the prefix
    unplaced: dict[str, int] = dict.fromkeys(nodes, 0)
    for _, then in dependencies:
        unplaced[then] += 1
    ready = [n for n in nodes if not unplaced[n]]
    prefix: list[str] = []

    def place(n: str) -> None:
        prefix.append(n)
        del ready[bisect.bisect_left(ready, n)]
        for then in successors.get(n, ()):
            unplaced[then] -= 1
            if not unplaced[then]:
                bisect.insort(ready, then)

    def unplace() -> None:
        n = prefix.pop()
        for then in successors.get(n, ()):
            if not unplaced[then]:
                del ready[bisect.bisect_left(ready, then)]
            unplaced[then] += 1
        bisect.insort(ready, n)

    # iterative, so chains of any length fit in a constant Python stack:
    # one iterator per position of the prefix, over a copy of the
    # candidates for it, in sorted order
    pending = [iter(tuple(ready))]
    while pending:
        for n in pending[-1]:
            place(n)
            pending.append(iter(tuple(ready)))
            break
        else:
            if len(prefix) == len(nodes):
                yield tuple(prefix)
            pending.pop()
            if prefix:
                unplace()


def _successor_index(
    dependencies: frozenset[tuple[str, str]],
) -> dict[str, tuple[str, ...]]:
    """Each symbol with a successor, in sorted order, mapped to its
    successors, in sorted order."""
    successors: dict[str, list[str]] = {}
    for first, then in sorted(dependencies):
        successors.setdefault(first, []).append(then)
    return {first: tuple(thens) for first, thens in successors.items()}


def _find_cycle(successors: Mapping[str, tuple[str, ...]]) -> None:
    """Depth-first search from each node of the index in turn; raises
    CycleError naming the first cycle met, from the node it re-enters to
    the last node on the current path.

    Iterative, so chains of any length fit in a constant Python stack.
    Nodes without successors cannot start a cycle, so searching from every
    node of the index, in index order, covers the whole graph.
    """
    state: dict[str, int] = {}  # 1 = on the current path, 2 = done
    for root in successors:
        if root in state:
            continue
        state[root] = 1
        path = [root]
        pending = [iter(successors.get(root, ()))]
        while pending:
            for nxt in pending[-1]:
                seen = state.get(nxt)
                if seen == 1:
                    raise CycleError(tuple(path[path.index(nxt):]))
                if seen is None:
                    state[nxt] = 1
                    path.append(nxt)
                    pending.append(iter(successors.get(nxt, ())))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
