"""Legal binding orders against the enumerator that scans every symbol at
every position of the prefix."""

import itertools
import signal
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from osalg.binding import _find_cycle, _successor_index, legal_orderings
from osalg.cli import main
from osalg.errors import CycleError


def reference_orders(symbols, dependencies):
    """Every topological order, lexicographically: at each position, try
    each symbol in sorted order that is unplaced and whose blockers are
    all placed."""
    dependencies = frozenset(dependencies)
    nodes = sorted(set(symbols) | {s for pair in dependencies for s in pair})
    successors = _successor_index(dependencies)
    _find_cycle(successors, successors)
    blockers = {n: set() for n in nodes}
    for first, then in dependencies:
        blockers[then].add(first)
    orders, prefix, placed = [], [], set()
    pending = [iter(nodes)]
    while pending:
        for n in pending[-1]:
            if n not in placed and blockers[n] <= placed:
                prefix.append(n)
                placed.add(n)
                pending.append(iter(nodes))
                break
        else:
            if len(prefix) == len(nodes):
                orders.append(tuple(prefix))
            pending.pop()
            if prefix:
                placed.remove(prefix.pop())
    return orders


NAMES = st.sampled_from(list("abcdefg"))


def outcome(enumerate_orders, symbols, deps):
    try:
        return enumerate_orders(symbols, deps)
    except CycleError as exc:
        return ("cycle", exc.cycle, str(exc))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(NAMES, max_size=6),
    st.frozensets(st.tuples(NAMES, NAMES), max_size=8),
)
def test_equals_the_reference_on_random_graphs(symbols, deps):
    assert outcome(legal_orderings, symbols, deps) == outcome(
        reference_orders, symbols, deps
    )


@settings(max_examples=100, deadline=None)
@given(st.permutations(list("abcdefg")), st.data())
def test_equals_the_reference_on_acyclic_graphs(ranked, data):
    # edges only run forward in a random rank, so the graph has no cycle
    pairs = [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1:]]
    deps = data.draw(st.frozensets(st.sampled_from(pairs), max_size=12))
    expected = reference_orders(ranked, deps)
    assert expected
    assert legal_orderings(ranked, deps) == expected


def test_cycle_is_reported_like_the_reference():
    deps = {("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")}
    with pytest.raises(CycleError) as fast:
        legal_orderings("abcd", deps)
    with pytest.raises(CycleError) as slow:
        reference_orders("abcd", deps)
    assert fast.value.cycle == slow.value.cycle


def test_long_chain_takes_one_pass():
    names = [f"s{i:04d}" for i in range(3000)]
    deps = [(b, a) for a, b in zip(names, names[1:])]
    start = time.perf_counter()
    orders = legal_orderings(names, deps)
    elapsed = time.perf_counter() - start
    assert orders == [tuple(reversed(names))]
    assert elapsed < 0.5  # about 0.02 s; the full rescan took about 0.7 s


class Enough(Exception):
    """Raised by the output once it has what the test reads."""


class FirstLines:
    def __init__(self, wanted):
        self.lines, self.wanted = [], wanted

    def write(self, text):
        self.lines.append(text)
        if len(self.lines) == self.wanted:
            raise Enough


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
def test_orderings_are_written_as_they_are_found(monkeypatch):
    """12 free symbols have 479 001 600 orders; the first ten are printed
    at once, not after all of them are collected."""
    symbols = "abcdefghijkl"
    out = FirstLines(10)
    monkeypatch.setattr(sys, "stdout", out)

    def too_slow(signum, frame):
        raise TimeoutError("no 10 orders within 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(Enough):
            main(["orderings", "--symbols", ",".join(symbols)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    first = itertools.islice(itertools.permutations(symbols), 10)
    assert out.lines == [",".join(order) + "\n" for order in first]
