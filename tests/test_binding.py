"""Bind-before-use validation and legal binding orders."""

from functools import partial

import pytest
from hypothesis import given, strategies as st

from osalg import BindingGraph, legal_orderings, record, validate
from osalg.binding import Bind, Use, UseBeforeBind
from osalg.errors import ClockError, CycleError, ParameterError

from make_golden import export_edges
from oracle import reference_find_cycle

PAGE_DEPS = {("frames", "page-table"), ("pages", "page-table")}


def build(events, deps=frozenset()):
    g = BindingGraph(dependencies=frozenset(deps))
    for symbol, kind, instant in events:
        g = record(g, symbol, kind, instant)
    return g


class TestRecord:
    def test_appends_events(self):
        g = build([("frames", "Bind", 1), ("pages", "Bind", 2)])
        assert len(g.events) == 2
        assert type(g.events[0]) is Bind

    def test_clock_never_decreases(self):
        g = build([("a", "Bind", 3)])
        with pytest.raises(ClockError):
            record(g, "b", "Bind", 1)

    def test_unknown_kind_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="'Bound'"):
            record(BindingGraph(), "x", "Bound", 1)

    def test_use_on_empty_graph_records_fine(self):
        g = build([("a", "Use", 1)])
        assert len(g.events) == 1  # validation, not recording, flags it


class TestValidate:
    def test_page_table_scenario_ok(self):
        g = build(
            [("frames", "Bind", 1), ("pages", "Bind", 2),
             ("page-table", "Bind", 3), ("page-table", "Use", 4)],
            deps=PAGE_DEPS,
        )
        assert validate(g) == []

    def test_independent_bindings_commute(self):
        g = build(
            [("pages", "Bind", 1), ("frames", "Bind", 2),
             ("page-table", "Bind", 3), ("page-table", "Use", 4)],
            deps=PAGE_DEPS,
        )
        assert validate(g) == []

    def test_use_before_bind_flagged_once(self):
        g = build(
            [("frames", "Bind", 1), ("page-table", "Use", 2),
             ("page-table", "Bind", 3)],
        )
        violations = validate(g)
        assert len(violations) == 1
        assert type(violations[0]) is UseBeforeBind
        assert violations[0].symbol == "page-table"

    def test_bind_at_same_instant_as_use_is_legal(self):
        g = build([("x", "Bind", 5), ("x", "Use", 5)])
        assert validate(g) == []

    def test_dependency_order_violation(self):
        g = build(
            [("page-table", "Bind", 1), ("frames", "Bind", 2), ("pages", "Bind", 2)],
            deps=PAGE_DEPS,
        )
        violations = validate(g)
        assert {v.required for v in violations} == {"frames", "pages"}
        assert sorted(map(str, violations)) == [
            "frames must be bound before page-table",
            "pages must be bound before page-table",
        ]

    def test_dependency_with_unbound_prerequisite(self):
        g = build([("page-table", "Bind", 1)], deps=PAGE_DEPS)
        assert len(validate(g)) == 2

    def test_rebinding_latest_governs(self):
        g = build([("x", "Bind", 1), ("x", "Bind", 4), ("x", "Use", 5)])
        assert validate(g) == []

    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans()),
        max_size=20,
    ))
    def test_monotone_in_use_violations(self, script):
        """Appending a Bind never creates a use violation; appending a Use
        never removes one (dependency-free graphs)."""
        g = BindingGraph()
        instant = 0
        for symbol, is_bind in script:
            before = {(v.symbol, v.instant) for v in validate(g)}
            instant += 1
            kind = "Bind" if is_bind else "Use"
            g = record(g, symbol, kind, instant)
            after = {(v.symbol, v.instant) for v in validate(g)}
            if is_bind:
                assert after <= before
            else:
                assert before <= after


class TestLegalOrderings:
    def test_page_table_has_two_orders(self):
        orders = legal_orderings(["frames", "pages", "page-table"], PAGE_DEPS)
        assert orders == [
            ("frames", "pages", "page-table"),
            ("pages", "frames", "page-table"),
        ]

    def test_no_deps_full_factorial(self):
        assert len(legal_orderings(["a", "b", "c"], [])) == 6

    def test_cycle_named(self):
        with pytest.raises(CycleError) as exc:
            legal_orderings(["a", "b"], [("a", "b"), ("b", "a")])
        assert set(exc.value.cycle) == {"a", "b"}

    def test_every_order_replays_clean(self):
        symbols = ["frames", "pages", "page-table"]
        for order in legal_orderings(symbols, PAGE_DEPS):
            g = BindingGraph(dependencies=frozenset(PAGE_DEPS))
            for instant, symbol in enumerate(order, start=1):
                g = record(g, symbol, "Bind", instant)
            g = record(g, "page-table", "Use", len(order) + 1)
            assert validate(g) == []

    def test_chain_dependencies(self):
        orders = legal_orderings(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert orders == [("a", "b", "c")]


def chain(length):
    return frozenset((f"s{i}", f"s{i + 1}") for i in range(length))


SYMBOLS = st.sampled_from(["a", "b", "c", "d", "e"])


class TestCycleSearch:
    def test_long_chain_constructs(self):
        g = BindingGraph(dependencies=chain(5000))
        assert len(g.dependencies) == 5000

    def test_long_chain_closed_into_cycle(self):
        closed = chain(5000) | {("s5000", "s0")}
        with pytest.raises(CycleError) as exc:
            BindingGraph(dependencies=closed)
        assert len(exc.value.cycle) == 5001
        with pytest.raises(CycleError):
            BindingGraph(dependencies=chain(5000)).with_dependency("s5000", "s0")

    @given(st.frozensets(st.tuples(SYMBOLS, SYMBOLS), max_size=12))
    def test_names_the_cycle_the_recursive_search_named(self, deps):
        nodes = sorted({s for pair in deps for s in pair})
        expected = reference_find_cycle(nodes, deps)
        try:
            BindingGraph(dependencies=deps)
        except CycleError as exc:
            assert exc.cycle == expected
        else:
            assert expected is None


# one step of growing a log: ("record", symbol, is_bind, instant step) or
# ("depend", first, then); a negative instant step moves the clock back
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), SYMBOLS, st.booleans(), st.integers(-1, 2)),
        st.tuples(st.just("depend"), SYMBOLS, SYMBOLS),
    ),
    max_size=30,
)


class TestIncrementalAppend:
    @given(STEPS)
    def test_matches_the_validating_constructor(self, steps):
        """After every record or with_dependency, the graph equals one the
        constructor builds from the same parts, and both refuse the same
        steps with the same error."""
        g = BindingGraph()
        for step in steps:
            events, deps = g.events, g.dependencies
            if step[0] == "record":
                _, symbol, is_bind, delta = step
                instant = (events[-1].instant if events else 0) + delta
                kind = Bind if is_bind else Use
                events += (kind(symbol, instant),)
                append = partial(record, g, symbol, kind, instant)
            else:
                _, first, then = step
                deps = deps | {(first, then)}
                append = partial(g.with_dependency, first, then)
            try:
                expected = BindingGraph(events=events, dependencies=deps)
            except (ClockError, CycleError) as exc:
                with pytest.raises(type(exc)) as raised:
                    append()
                if step[0] == "depend":
                    cycle = raised.value.cycle
                    edges = set(zip(cycle, cycle[1:] + cycle[:1]))
                    assert (first, then) in edges and edges <= deps
                continue
            g = append()
            assert g == expected


def test_export_edges_plain_text():
    g = build(
        [("frames", "Bind", 1), ("page-table", "Bind", 2)],
        deps={("frames", "page-table")},
    )
    text = export_edges(g)
    assert "frames -> page-table" in text
    assert "1 Bind frames" in text
    assert text.endswith("\n")
